#include "dist/dist_metrics.h"

namespace streamkc {
namespace {

using D = DistMetrics;
using W = DistWorkerRow;
using C = WorkerCounters;

// A worker-row field read from the counters the worker shipped.
std::function<LedgerValue(const W&)> Shipped(uint64_t C::*counter) {
  return [counter](const W& w) { return w.counters.*counter; };
}

// A run field summing one worker field (see DistMetrics::Total).
template <typename Field>
std::function<LedgerValue(const D&)> Summed(Field field) {
  return [field](const D& d) { return d.Total(field); };
}

const Ledger<D> kRunFields = {
    {"num_workers", "dist_num_workers", &D::num_workers},
    {"merge_arity", "dist_merge_arity", &D::merge_arity},
    {"num_segments", "dist_num_segments", &D::num_segments},
    {"transport", nullptr, &D::transport},
    {"poll_wakeups", "dist_poll_wakeups_total", &D::poll_wakeups},
    {"connections_accepted", "dist_connections_accepted_total",
     &D::connections_accepted},
    {"socket_drops", "dist_socket_drops_total", &D::socket_drops},
    {"edges_ingested", "dist_edges_ingested_total", Summed(&C::edges_ingested)},
    {"edges_processed", "dist_edges_processed_total",
     Summed(&C::edges_processed)},
    {"edges_discarded", "dist_edges_discarded_total",
     Summed(&C::edges_discarded)},
    {"stream_retries", "dist_stream_retries_total", Summed(&C::stream_retries)},
    {"bytes_shipped", "dist_bytes_shipped_total", Summed(&W::bytes_shipped)},
    {"frames_received", "dist_frames_received_total", &D::frames_received},
    {"crc_rejections", "dist_crc_rejections_total", Summed(&W::crc_rejections)},
    {"fingerprint_corruptions_detected",
     "dist_fingerprint_corruptions_detected",
     Summed(&W::fingerprint_corrupted)},
    {"workers_respawned", "dist_workers_respawned_total", Summed(&W::respawns)},
    {"workers_quarantined", "dist_workers_quarantined",
     Summed(&W::quarantined)},
    {"checkpoints_written", "dist_checkpoints_written_total",
     Summed(&C::checkpoints_written)},
    {"checkpoints_loaded", "dist_checkpoints_loaded_total",
     Summed(&C::checkpoints_loaded)},
    {"checkpoints_rejected", "dist_checkpoints_rejected_total",
     Summed(&C::checkpoints_rejected)},
    {"connect_retries", "dist_connect_retries_total",
     Summed(&C::connect_retries)},
    {"merge_depth", "dist_merge_depth",
     [](const D& d) { return d.tree.depth; }},
    {"merges", "dist_merges_total", [](const D& d) { return d.tree.merges; }},
    {"merge_ns", "dist_merge_ns", [](const D& d) { return d.tree.merge_ns; }},
    {"wall_ns", "dist_wall_ns", &D::wall_ns},
    {"edges_per_second", nullptr,
     [](const D& d) { return LedgerValue::Fixed(d.EdgesPerSecond(), 0); }},
};

const Ledger<W> kWorkerFields = {
    {"edges_ingested", nullptr, Shipped(&C::edges_ingested)},
    {"edges_processed", "dist_worker_edges_total",
     Shipped(&C::edges_processed)},
    {"edges_discarded", nullptr, Shipped(&C::edges_discarded)},
    {"batches", nullptr, Shipped(&C::batches)},
    {"stream_retries", nullptr, Shipped(&C::stream_retries)},
    {"truncated_segments", nullptr, Shipped(&C::truncated_segments)},
    {"segments_assigned", nullptr, &W::segments_assigned},
    {"segments_done", nullptr, Shipped(&C::segments_done)},
    {"checkpoints_written", "dist_worker_checkpoints_written_total",
     Shipped(&C::checkpoints_written)},
    {"checkpoints_loaded", nullptr, Shipped(&C::checkpoints_loaded)},
    {"checkpoints_rejected", nullptr, Shipped(&C::checkpoints_rejected)},
    {"connect_retries", nullptr, Shipped(&C::connect_retries)},
    {"bytes_shipped", "dist_worker_bytes_shipped_total", &W::bytes_shipped},
    {"respawns", "dist_worker_respawns_total", &W::respawns},
    {"crc_rejections", nullptr, &W::crc_rejections},
    {"quarantined", "dist_worker_quarantined", &W::quarantined},
    {"fingerprint_corrupted", nullptr, &W::fingerprint_corrupted},
};

}  // namespace

std::string DistMetrics::ToJson() const {
  return JsonWriter(4)
      .AddFields(*this, kRunFields)
      .AddRows("workers", "worker", workers, kWorkerFields)
      .Close();
}

void DistMetrics::PublishTo(MetricsRegistry* registry) const {
  PublishFields(registry, *this, kRunFields);
  PublishRows(registry, workers, kWorkerFields, "worker");
}

}  // namespace streamkc
