#include "serve/serving_runtime.h"

#include <chrono>
#include <optional>
#include <utility>

#include "runtime/edge_batch.h"
#include "runtime/sharded_pipeline.h"
#include "util/check.h"

namespace streamkc {

namespace {

uint64_t NowSteadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ServingRuntime::ServingRuntime(const ServingState::Config& state_config,
                               const ServingRuntimeOptions& options,
                               SnapshotStore* store)
    : state_config_(state_config),
      options_(options),
      store_(store),
      state_(state_config) {
  CHECK(store != nullptr);
  CHECK_GE(options_.snapshot_every_edges, 1u);
  CHECK_GE(options_.batch_size, 1u);
  MetricsRegistry* reg =
      options_.registry ? options_.registry : &MetricsRegistry::Global();
  edges_ingested_ = reg->GetCounter("serve_ingest_edges_total");
  segments_total_ = reg->GetCounter("serve_ingest_segments_total");
  publish_ns_ = reg->GetHistogram("serve_publish_ns");
  retry_backoff_ns_ = reg->GetHistogram("runtime_retry_backoff_ns");
}

void ServingRuntime::PublishSnapshot(IngestSummary* summary) {
  uint64_t t0 = NowSteadyNs();
  SnapshotMeta meta;
  meta.epoch = ++epoch_;
  meta.edges_ingested = summary->edges;
  meta.batches_ingested = summary->segments;
  meta.quarantined_fraction = summary->quarantined_fraction;
  meta.shards = options_.threads;
  meta.publish_steady_ns = t0;
  std::shared_ptr<const CoverageSnapshot> snap =
      CoverageSnapshot::Build(state_, meta);
  store_->Publish(snap);
  ++summary->snapshots_published;
  publish_ns_->Observe(NowSteadyNs() - t0);
  if (options_.on_publish) options_.on_publish(snap);
}

IngestSummary ServingRuntime::Ingest(EdgeStream& stream) {
  uint64_t t0 = NowSteadyNs();
  IngestSummary summary;
  // Each segment is the bounded view's next snapshot_every_edges edges, so
  // a segment boundary always falls exactly on the snapshot cadence — the
  // epoch-E differential guarantee depends on it. A trailing partial
  // segment still publishes, so the final snapshot always covers the
  // entire stream.
  BoundedEdgeStream bounded(&stream, options_.snapshot_every_edges);
  for (;;) {
    bounded.Rearm();
    // A sharded segment's merged state lives until after its publish:
    // freeing it first slows the publish's finalize (by ~16% on the
    // serve-mixed benchmark workload).
    std::optional<ServingState> sharded;
    const uint64_t got =
        options_.threads == 0
            ? IngestSegmentInline(bounded)
            : IngestSegmentSharded(bounded, &summary, &sharded);
    if (got == 0) break;  // end of stream or unrecoverable error
    edges_ingested_->Increment(got);
    summary.edges += got;
    ++summary.segments;
    segments_total_->Increment();
    PublishSnapshot(&summary);
    if (!stream.ok()) break;  // truncated segment: error already surfaced
  }
  summary.ingest_ns = NowSteadyNs() - t0;
  summary.stream_ok = stream.ok();
  if (!summary.stream_ok) summary.stream_error = stream.StatusMessage();
  return summary;
}

uint64_t ServingRuntime::IngestSegmentInline(EdgeStream& segment) {
  // The sharded path's pipelines record into the same histogram.
  RetryBackoff backoff(options_.degradation, retry_backoff_ns_);
  EdgeBatch batch(options_.batch_size);
  uint64_t got = 0;
  DrainStream(segment, options_.batch_size, backoff, &batch,
              [&](EdgeBatch& b) {
                b.Prefold();
                state_.ProcessBatch(b.View());
                got += b.size();
              });
  return got;
}

uint64_t ServingRuntime::IngestSegmentSharded(
    EdgeStream& segment, IngestSummary* summary,
    std::optional<ServingState>* merged) {
  ShardedPipelineOptions popts;
  popts.num_shards = options_.threads;
  popts.batch_size = options_.batch_size;
  popts.policy = options_.policy;
  popts.registry = options_.registry;
  popts.fault_injector = options_.fault_injector;
  popts.degradation = options_.degradation;
  const ServingState::Config config = state_config_;
  // One segment = one full pipeline run over the bounded view: the
  // degradation machinery (retries, quarantine, fingerprint votes) is
  // reused unchanged at every snapshot boundary.
  ShardedPipeline<ServingState> pipeline(
      popts, [config](uint32_t) { return ServingState(config); });
  merged->emplace(pipeline.Run(segment));
  const RuntimeMetrics& rm = pipeline.metrics();
  const uint64_t got = rm.edges_ingested.load(std::memory_order_relaxed);
  if (got == 0) return 0;
  // Only segments that saw edges count toward the quarantine fraction —
  // an empty trailing run has no substreams to lose — so the shard runs so
  // far are this segment's plus every earlier segment's.
  summary->shard_runs_quarantined += static_cast<uint32_t>(
      rm.shards_quarantined.load(std::memory_order_relaxed));
  summary->quarantined_fraction =
      static_cast<double>(summary->shard_runs_quarantined) /
      static_cast<double>((summary->segments + 1) * options_.threads);
  state_.Merge(**merged);
  return got;
}

}  // namespace streamkc
