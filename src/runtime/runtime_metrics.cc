#include "runtime/runtime_metrics.h"

#include "util/check.h"

namespace streamkc {
namespace {

using M = RuntimeMetrics;
using Shard = RuntimeMetrics::PerShard;
using Producer = RuntimeMetrics::PerProducer;

const Ledger<M> kRunFields = {
    {"edges_ingested", "runtime_edges_ingested", &M::edges_ingested},
    {"batches_enqueued", "runtime_batches_enqueued", &M::batches_enqueued},
    {"queue_full_stalls", "runtime_queue_full_stalls", &M::queue_full_stalls},
    {"ring_stall_rounds", "runtime_ring_stall_rounds",
     &M::TotalRingStallRounds},
    {"ring_stalled_ns", "runtime_ring_stalled_ns", &M::TotalRingStalledNs},
    // "retries_total"/"shards_quarantined" are the names the obs layer's
    // consumers alert on.
    {"stream_retries", "retries_total", &M::stream_retries},
    {"worker_deaths", "runtime_worker_deaths", &M::worker_deaths},
    {"merge_corruptions_detected", "runtime_merge_corruptions_detected",
     &M::merge_corruptions_detected},
    {"shards_quarantined", "shards_quarantined", &M::shards_quarantined},
    {"quarantined_fraction", nullptr,
     [](const M& m) { return LedgerValue::Fixed(m.QuarantinedFraction(), 4); }},
    {"edges_discarded", "runtime_edges_discarded", &M::TotalEdgesDiscarded},
    {"merges", "runtime_merges", &M::merges},
    {"merge_ns", "runtime_merge_ns", &M::merge_ns},
    {"merged_state_bytes", "runtime_merged_state_bytes",
     &M::merged_state_bytes},
    {"total_shard_state_bytes", "runtime_total_shard_state_bytes",
     &M::TotalStateBytes},
    {"wall_ns", "runtime_wall_ns", &M::wall_ns},
    {"edges_per_second", nullptr,
     [](const M& m) { return LedgerValue::Fixed(m.EdgesPerSecond(), 0); }},
    {nullptr, "runtime_num_shards", &M::num_shards},
    {"num_producers", "runtime_num_producers", &M::num_producers},
    {"batches_recycled", "runtime_batches_recycled", &M::TotalBatchesRecycled},
};

const Ledger<Shard> kShardFields = {
    {"edges", "runtime_shard_edges", &Shard::edges},
    {"batches", "runtime_shard_batches", &Shard::batches},
    {"busy_ns", "runtime_shard_busy_ns", &Shard::busy_ns},
    {"state_bytes", "runtime_shard_state_bytes", &Shard::state_bytes},
    {"ring_stalls", "runtime_shard_ring_stalls", &Shard::ring_stalls},
    {"ring_stall_rounds", "runtime_shard_ring_stall_rounds",
     &Shard::ring_stall_rounds},
    {"ring_stalled_ns", "runtime_shard_ring_stalled_ns",
     &Shard::ring_stalled_ns},
    {"edges_discarded", "runtime_shard_edges_discarded",
     &Shard::edges_discarded},
    {"quarantined", "runtime_shard_quarantined", &Shard::quarantined},
};

const Ledger<Producer> kProducerFields = {
    {"edges", "runtime_producer_edges", &Producer::edges},
    {"batches", "runtime_producer_batches", &Producer::batches},
    {"stream_retries", "runtime_producer_stream_retries",
     &Producer::stream_retries},
    {"batches_recycled", "runtime_producer_batches_recycled",
     &Producer::batches_recycled},
};

}  // namespace

void RuntimeMetrics::Reset(uint32_t num_shards, uint32_t num_producers) {
  num_shards_ = num_shards;
  num_producers_ = num_producers;
  shards_ = std::make_unique<PerShard[]>(num_shards);
  producers_ = std::make_unique<PerProducer[]>(num_producers);
  for (std::atomic<uint64_t>* c :
       {&edges_ingested, &batches_enqueued, &queue_full_stalls,
        &stream_retries, &worker_deaths, &merge_corruptions_detected,
        &shards_quarantined, &merges, &merge_ns, &merged_state_bytes,
        &wall_ns}) {
    c->store(0, std::memory_order_relaxed);
  }
}

RuntimeMetrics::PerShard& RuntimeMetrics::shard(uint32_t s) {
  CHECK_LT(s, num_shards_);
  return shards_[s];
}

const RuntimeMetrics::PerShard& RuntimeMetrics::shard(uint32_t s) const {
  CHECK_LT(s, num_shards_);
  return shards_[s];
}

RuntimeMetrics::PerProducer& RuntimeMetrics::producer(uint32_t p) {
  CHECK_LT(p, num_producers_);
  return producers_[p];
}

const RuntimeMetrics::PerProducer& RuntimeMetrics::producer(uint32_t p) const {
  CHECK_LT(p, num_producers_);
  return producers_[p];
}

double RuntimeMetrics::QuarantinedFraction() const {
  if (num_shards_ == 0) return 0;
  return static_cast<double>(
             shards_quarantined.load(std::memory_order_relaxed)) /
         static_cast<double>(num_shards_);
}

double RuntimeMetrics::EdgesPerSecond() const {
  uint64_t ns = wall_ns.load(std::memory_order_relaxed);
  if (ns == 0) return 0;
  return static_cast<double>(edges_ingested.load(std::memory_order_relaxed)) *
         1e9 / static_cast<double>(ns);
}

JsonWriter& RuntimeMetrics::AppendJson(JsonWriter& json) const {
  return json.AddFields(*this, kRunFields)
      .AddRows("shards", "shard", shards(), kShardFields)
      .AddRows("producers", "producer", producers(), kProducerFields);
}

void RuntimeMetrics::PublishTo(MetricsRegistry* registry) const {
  PublishFields(registry, *this, kRunFields);
  PublishRows(registry, shards(), kShardFields, "shard");
  PublishRows(registry, producers(), kProducerFields, "producer");
}

}  // namespace streamkc
