// Observability for the multi-process reduction tree.
//
// DistMetrics is the coordinator-side ledger: one row per worker (the
// counters the worker shipped inside its final frame, plus what only the
// coordinator can observe — bytes received, respawns, CRC rejections,
// quarantine verdicts) and run-level totals for the merge tree. Unlike
// RuntimeMetrics there are no atomics: the coordinator is single-threaded,
// and worker-side counters cross the process boundary by serialization
// (see worker_counters.h), not by shared memory.
//
// ToJson() renders the "dist" section of the CLI metrics dump (an extra
// section of ComposeMetrics, like serve's "serving" section); PublishTo()
// mirrors the totals and per-worker rows into a MetricsRegistry as dist_*
// gauges. Both render from the ledgers in dist_metrics.cc (obs/ledger.h).

#ifndef STREAMKC_DIST_DIST_METRICS_H_
#define STREAMKC_DIST_DIST_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dist/worker_counters.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "runtime/reduction_tree.h"

namespace streamkc {

struct DistWorkerRow {
  uint32_t worker = 0;
  WorkerCounters counters;       // from the final frame (zero if none landed)
  uint32_t segments_assigned = 0;
  uint64_t bytes_shipped = 0;    // frame bytes the coordinator received
  uint32_t respawns = 0;         // successful respawn cycles consumed
  uint32_t crc_rejections = 0;   // frames rejected by the decoder
  bool quarantined = false;      // excluded from the merge
  bool fingerprint_corrupted = false;  // lost the majority vote
};

struct DistMetrics {
  uint32_t num_workers = 0;
  uint32_t merge_arity = 0;
  uint32_t num_segments = 0;
  uint64_t frames_received = 0;  // valid final frames decoded
  uint64_t wall_ns = 0;
  std::string transport = "pipe";     // how frames traveled (pipe | tcp)
  uint64_t poll_wakeups = 0;          // coordinator poll(2) returns
  uint64_t connections_accepted = 0;  // TCP hellos bound to slots (0: pipe)
  uint64_t socket_drops = 0;          // connections dropped by fault plan
  MergeTreeStats tree;
  std::vector<DistWorkerRow> workers;

  // Sum of one field over the worker rows: a shipped counter
  // (&WorkerCounters::edges_processed) or a row member
  // (&DistWorkerRow::respawns). Quarantined rows carry zero counters: their
  // partial work died with the process and is not in the merged result.
  uint64_t Total(uint64_t WorkerCounters::*counter) const {
    return SumRows(workers, [counter](const DistWorkerRow& w) {
      return w.counters.*counter;
    });
  }
  template <typename F>
  uint64_t Total(F DistWorkerRow::*field) const {
    return SumRows(workers, field);
  }

  double EdgesPerSecond() const {
    return wall_ns > 0 ? static_cast<double>(
                             Total(&WorkerCounters::edges_processed)) /
                             (static_cast<double>(wall_ns) / 1e9)
                       : 0.0;
  }

  std::string ToJson() const;
  void PublishTo(MetricsRegistry* registry) const;
};

}  // namespace streamkc

#endif  // STREAMKC_DIST_DIST_METRICS_H_
