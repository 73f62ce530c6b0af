// Per-worker ingest counters shipped across the process boundary.
//
// The in-process pipeline's counters (SpscRing stall accounting, the
// DegradationPolicy retry totals in RuntimeMetrics) are plain atomics in
// the worker's address space — invisible to a coordinator in another
// process. Workers therefore serialize this block into every checkpoint
// and into the final frame payload, so the coordinator's metrics dump can
// state the cross-process conservation invariant (edges ingested ==
// processed + discarded, summed over workers) and validate_metrics.py can
// check it.
//
// Counter semantics under respawn: a checkpoint snapshots the counters for
// the committed segment prefix only, and a respawned worker resumes from
// that snapshot and re-counts everything it re-ingests. Work done by a dead
// incarnation past its last checkpoint dies with it — exactly like the
// sketch state — so the final counters always describe the edges that are
// actually in the merged result, never double-counting a replayed segment.

#ifndef STREAMKC_DIST_WORKER_COUNTERS_H_
#define STREAMKC_DIST_WORKER_COUNTERS_H_

#include <cstddef>
#include <cstdint>
#include <istream>
#include <iterator>
#include <ostream>

#include "util/serialize.h"

// The counters in wire order, named once: each X(name) declares one u64
// field, and Save/Load/kSerializedBytes walk the member list built from it.
#define STREAMKC_WORKER_COUNTERS(X)                                        \
  X(edges_ingested)        /* edges pulled from the segment streams */    \
  X(edges_processed)       /* edges folded into the local state */        \
  X(edges_discarded)       /* ingested but dropped (truncated segment) */ \
  X(batches)               /* ProcessBatch hand-offs */                   \
  X(stream_retries)        /* transient read errors retried (bounded) */  \
  X(truncated_segments)    /* segments cut short by retry exhaustion */   \
  X(segments_done)         /* fully ingested (committed) segments */      \
  X(checkpoints_written)                                                  \
  X(checkpoints_loaded)                                                   \
  X(checkpoints_rejected)  /* torn/foreign blobs discarded on load */     \
  X(connect_retries)       /* transport dials retried (TCP ship path) */

namespace streamkc {

struct WorkerCounters {
#define STREAMKC_DECLARE_COUNTER(name) uint64_t name = 0;
  STREAMKC_WORKER_COUNTERS(STREAMKC_DECLARE_COUNTER)
#undef STREAMKC_DECLARE_COUNTER

#define STREAMKC_COUNTER_MEMBER(name) &WorkerCounters::name,
  static constexpr uint64_t WorkerCounters::*kFields[] = {
      STREAMKC_WORKER_COUNTERS(STREAMKC_COUNTER_MEMBER)};
#undef STREAMKC_COUNTER_MEMBER

  // Exact Save() footprint; the checkpoint Try-decoder validates body
  // lengths against this before handing the bytes to Load.
  static constexpr size_t kSerializedBytes =
      std::size(kFields) * sizeof(uint64_t);

  void Save(std::ostream& os) const {
    for (auto f : kFields) WriteU64(os, this->*f);
  }

  static WorkerCounters Load(std::istream& is) {
    WorkerCounters c;
    for (auto f : kFields) c.*f = ReadU64(is);
    return c;
  }
};

}  // namespace streamkc

#endif  // STREAMKC_DIST_WORKER_COUNTERS_H_
