// Ingestion-engine observability: atomic counters + JSON snapshot.
//
// Counters are written from three contexts — the producer threads
// (edges_ingested, batches_enqueued, queue_full_stalls, plus each
// producer's own PerProducer row), each worker thread (its own PerShard
// row), and the coordinator after the join (state_bytes, wall_ns, merges).
// All cross-thread counters are relaxed atomics: they are statistics, not
// synchronization; the pipeline's happens-before edges come from the rings
// and thread joins.
//
// Every counter is declared once, in the ledgers of runtime_metrics.cc
// (obs/ledger.h): ToJson() and PublishTo() both render from them. ToJson()
// is a point-in-time snapshot meant to be taken after Run() returns
// (calling it mid-run is safe but reads moving counters).

#ifndef STREAMKC_RUNTIME_RUNTIME_METRICS_H_
#define STREAMKC_RUNTIME_RUNTIME_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "obs/ledger.h"
#include "obs/metrics.h"

namespace streamkc {

class RuntimeMetrics {
 public:
  struct PerShard {
    std::atomic<uint64_t> edges{0};     // edges processed by this shard
    std::atomic<uint64_t> batches{0};   // batches processed
    std::atomic<uint64_t> busy_ns{0};   // time spent inside State::Process
    std::atomic<uint64_t> state_bytes{0};  // MemoryBytes() at end of stream
    // Producer-side backpressure against this shard's ring: stall events
    // (Push calls that waited), wait-loop rounds (≥ events; spurious
    // wakeups counted), and total blocked wall time.
    std::atomic<uint64_t> ring_stalls{0};
    std::atomic<uint64_t> ring_stall_rounds{0};
    std::atomic<uint64_t> ring_stalled_ns{0};
    // Degradation: edges popped but dropped by a dead worker (the ring is
    // drained to keep backpressure alive), and whether the shard was
    // quarantined out of the merge (0/1). edges + edges_discarded summed
    // over shards equals edges_ingested.
    std::atomic<uint64_t> edges_discarded{0};
    std::atomic<uint64_t> quarantined{0};
  };

  // One row per producer thread of the segmented front-end. Each row is
  // written only by its own producer before the join; a single-producer run
  // has exactly one row mirroring the producer-side aggregates.
  struct PerProducer {
    std::atomic<uint64_t> edges{0};            // edges read from its segment
    std::atomic<uint64_t> batches{0};          // batches flushed into rings
    std::atomic<uint64_t> stream_retries{0};   // transient retries it took
    std::atomic<uint64_t> batches_recycled{0};  // flushes served from the
                                                // recycle lane (no alloc)
  };

  RuntimeMetrics() = default;

  // (Re)sizes the per-shard and per-producer tables and zeroes every
  // counter. Called by the pipeline at the start of Run(); not thread-safe
  // against concurrent use.
  void Reset(uint32_t num_shards, uint32_t num_producers = 1);

  PerShard& shard(uint32_t s);
  const PerShard& shard(uint32_t s) const;
  uint32_t num_shards() const { return num_shards_; }
  std::span<const PerShard> shards() const {
    return {shards_.get(), num_shards_};
  }

  PerProducer& producer(uint32_t p);
  const PerProducer& producer(uint32_t p) const;
  uint32_t num_producers() const { return num_producers_; }
  std::span<const PerProducer> producers() const {
    return {producers_.get(), num_producers_};
  }

  // Whole-run aggregates: sums of one counter over its shard or producer
  // rows.
  uint64_t TotalShardEdges() const {
    return SumRows(shards(), &PerShard::edges);
  }
  uint64_t TotalStateBytes() const {
    return SumRows(shards(), &PerShard::state_bytes);
  }
  uint64_t TotalRingStallRounds() const {
    return SumRows(shards(), &PerShard::ring_stall_rounds);
  }
  uint64_t TotalRingStalledNs() const {
    return SumRows(shards(), &PerShard::ring_stalled_ns);
  }
  uint64_t TotalEdgesDiscarded() const {
    return SumRows(shards(), &PerShard::edges_discarded);
  }
  uint64_t TotalBatchesRecycled() const {
    return SumRows(producers(), &PerProducer::batches_recycled);
  }
  double EdgesPerSecond() const;  // edges_ingested / wall time; 0 if unknown
  // Quarantined shards / num_shards — the confidence discount a degraded
  // run reports alongside its estimate. 0 when the run was clean.
  double QuarantinedFraction() const;

  std::string ToJson() const {
    JsonWriter json(2);
    return AppendJson(json).Close();
  }
  // Appends the ToJson() members (top-level keys and row arrays) to an open
  // object: the metrics dump extends this schema in place.
  JsonWriter& AppendJson(JsonWriter& json) const;

  // Mirrors every counter into `registry` under runtime_* names (per-shard
  // rows as shard-labeled gauges), so the Prometheus exporter and any other
  // registry consumer see the ingestion engine without knowing this struct.
  void PublishTo(MetricsRegistry* registry) const;

  // Producer-side counters.
  std::atomic<uint64_t> edges_ingested{0};
  std::atomic<uint64_t> batches_enqueued{0};
  std::atomic<uint64_t> queue_full_stalls{0};
  // Degradation-policy counters: transient-read retries taken by the
  // producer (retries_total), and the coordinator's post-join verdicts.
  std::atomic<uint64_t> stream_retries{0};
  std::atomic<uint64_t> worker_deaths{0};
  std::atomic<uint64_t> merge_corruptions_detected{0};
  std::atomic<uint64_t> shards_quarantined{0};
  // Coordinator-side counters (written single-threaded after the join).
  std::atomic<uint64_t> merges{0};
  std::atomic<uint64_t> merge_ns{0};
  std::atomic<uint64_t> merged_state_bytes{0};
  std::atomic<uint64_t> wall_ns{0};

 private:
  uint32_t num_shards_ = 0;
  uint32_t num_producers_ = 0;
  std::unique_ptr<PerShard[]> shards_;
  std::unique_ptr<PerProducer[]> producers_;
};

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_RUNTIME_METRICS_H_
