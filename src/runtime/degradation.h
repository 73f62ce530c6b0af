// The degradation policy every ingest engine shares. Every stream read —
// the pipeline producer, inline serving, the dist worker and the CLI's
// inline passes — goes through DrainStream, which retries transient
// failures under one RetryBackoff (the TCP dial is the only other
// RetryBackoff user). Both reduction engines quarantine merge-fingerprint
// minorities through one vote and one quarantine verdict, which
// ReduceReplicas (runtime/reduction_tree.h) applies. Each caller keeps its
// own action for an exhausted retry budget.

#ifndef STREAMKC_RUNTIME_DEGRADATION_H_
#define STREAMKC_RUNTIME_DEGRADATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "runtime/edge_batch.h"
#include "stream/edge_stream.h"

namespace streamkc {

class Histogram;

struct DegradationPolicy {
  // Consecutive transient-failure retries before the caller gives up; the
  // budget resets after every successful read.
  uint32_t max_stream_retries = 5;
  // First retry sleep (clamped to max_backoff_ns); doubles per retry and
  // saturates at max_backoff_ns.
  uint64_t initial_backoff_ns = 100'000;  // 100 µs
  uint64_t max_backoff_ns = 100'000'000;  // 100 ms
  // Hard-fail mode: exit(1) on any degradation (exhausted retries, worker
  // death, merge corruption) instead of quarantining, always after every
  // worker thread is joined or worker process reaped.
  bool strict = false;
};

// One consecutive-failure retry budget.
class RetryBackoff {
 public:
  // `histogram`, when non-null, records every sleep before it happens.
  explicit RetryBackoff(const DegradationPolicy& policy,
                        Histogram* histogram = nullptr);

  // A successful read: the budget and the sleep length start over.
  void Reset() {
    retries_ = 0;
    next_ns_ = first_ns_;
  }

  // Sleeps the current backoff and doubles it toward the cap, without
  // overflow. Returns false, without sleeping, once the budget is spent.
  bool Retry();

  uint32_t retries() const { return retries_; }  // since the last Reset()

 private:
  uint64_t first_ns_;
  uint64_t max_ns_;
  uint32_t max_retries_;
  Histogram* histogram_;
  uint64_t next_ns_;
  uint32_t retries_ = 0;
};

// How a DrainStream pass ended.
enum class DrainEnd {
  kEnd,        // clean end of stream
  kTruncated,  // a transient error outlived the retry budget
  kError,      // a hard (non-transient) stream error
};

struct DrainResult {
  DrainEnd end = DrainEnd::kEnd;
  uint64_t retries = 0;  // transient errors retried
};

// Reads `stream` to its end in batches of up to `batch_size` edges and
// hands each non-empty batch, in stream order, to `sink`. A batch goes out
// when it is full or when a read ends without error (a short read: the
// end of the stream, or a source that hands out smaller chunks); a batch
// interrupted by a transient error keeps filling after `backoff` retries,
// so batch boundaries never depend on where errors fall. The backoff
// resets after every read that yields edges. A batch cut short by an
// exhausted budget or a hard error is still delivered before the drain
// returns; the stream keeps its error state for the caller to report.
DrainResult DrainStream(EdgeStream& stream, size_t batch_size,
                        RetryBackoff& backoff, EdgeBatch* batch,
                        const std::function<void(EdgeBatch&)>& sink);

struct FingerprintVote {
  uint64_t majority = 0;
  std::vector<uint32_t> minority;  // disagreeing voters, ascending
};

// Majority vote over fingerprints[i] for every i with voting[i] set;
// non-voters are never judged. Ties go to the lowest voting index.
FingerprintVote VoteFingerprints(const std::vector<uint64_t>& fingerprints,
                                 const std::vector<uint8_t>& voting);

// Exits 1 when `quarantined` of `total` replicas (`unit`: "shards",
// "workers") leave no acceptable answer: any quarantine in strict mode, or
// all of them in any mode. Call after every worker is joined or reaped.
void ExitIfQuarantineFatal(const DegradationPolicy& policy,
                           uint32_t quarantined, uint32_t total,
                           const char* unit);

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_DEGRADATION_H_
