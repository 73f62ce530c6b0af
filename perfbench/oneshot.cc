// The one-shot workloads: oracle-inline (ReportMaxCover on the calling
// thread) and trivial-parallel (ShardedPipeline<ReportMaxCover> over a
// segmented text file), plus the shared pass loop.
//
// Every edge of a one-shot pass is due when the pass is ready to ingest
// (the whole file is there), and the only query is the end-of-stream
// report. So per pass: generator_lag_s is ready → end of stream, and
// answer_age_ms is ready → answer in hand.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common.h"
#include "core/streaming_interface.h"
#include "obs/metrics.h"
#include "obs/space_accountant.h"
#include "runtime/edge_batch.h"
#include "runtime/sharded_pipeline.h"
#include "stream/text_stream.h"
#include "util/math_util.h"

namespace streamkc::perf {

namespace {

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Finalize is const, so it is called for at least 5 ms: a trivial-branch
// report takes a fraction of a microsecond, an oracle one a hundred
// milliseconds (one call). Returns the median of (up to 256) call times.
double TimeFinalize(const ReportMaxCover& reporter, MaxCoverSolution* out) {
  const uint64_t t0 = NowNs();
  *out = reporter.Finalize();
  uint64_t prev = NowNs();
  std::vector<double> calls{Seconds(prev - t0)};
  while (prev - t0 < 5'000'000) {
    MaxCoverSolution again = reporter.Finalize();
    uint64_t now = NowNs();
    if (calls.size() < 256) calls.push_back(Seconds(now - prev));
    prev = now;
  }
  return Median(calls);
}

// oracle-inline also times Finalize on a full-file state about this often
// while a pass ingests, leaving that time out of the pass. The host's speed
// drifts from one second to the next, and one call per pass end would
// sample it at a handful of instants per run.
constexpr uint64_t kFinalizeEveryNs = 500'000'000;

// One pass's end-to-end figures plus, when traced, its layer figures.
struct Pass {
  double ingest_s = 0;  // ready to ingest → end of stream (+ merge)
  double finalize_s = 0;
  std::vector<double> mid_pass_finalize_s;  // see kFinalizeEveryNs
  uint64_t edges = 0;
  MaxCoverSolution answer;
  std::map<std::string, double> layers;
};

void RecordPass(const Pass& p, RunReport* rep) {
  rep->edges_per_s.push_back(static_cast<double>(p.edges) /
                             (p.ingest_s + p.finalize_s));
  rep->finalize_s.push_back(p.finalize_s);
  for (double f : p.mid_pass_finalize_s) rep->finalize_s.push_back(f);
  rep->answer_age_ms.push_back((p.ingest_s + p.finalize_s) * 1e3);
  rep->generator_lag_s.push_back(p.ingest_s);
}

// Runs `pass(tracer)` repeatedly: untraced for the whole budget, or — in
// a traced run — untraced for the first half and traced for the second,
// so trace.overhead_ratio compares the two halves of one process. Layer
// metrics are the per-key medians over the traced passes.
void RunPasses(const RunOptions& opt, Tracer* tracer, RunReport* rep,
               const std::function<Pass(Tracer*)>& pass,
               const std::function<void()>& setup_only) {
  TimeSetups(setup_only, rep);
  uint64_t last_setups = NowNs();
  // One warm-up pass fills the page cache and the allocator's free lists;
  // it is checked like the others but not timed. Peak RSS is read after it
  // (unless the workload read it earlier): one pass's peak, not the
  // allocator's drift over many passes.
  std::vector<Pass> passes{pass(nullptr)};
  if (rep->peak_rss_mb == 0) rep->peak_rss_mb = PeakRssMb();
  auto budget_ns = static_cast<uint64_t>(opt.seconds * 1e9);
  uint64_t untraced_ns = tracer ? budget_ns / 2 : budget_ns;
  uint64_t start = NowNs();
  do {
    passes.push_back(pass(nullptr));
    if (NowNs() - last_setups >= 1'000'000'000) {
      TimeSetups(setup_only, rep);
      last_setups = NowNs();
    }
  } while (NowNs() - start < untraced_ns);
  for (size_t i = 1; i < passes.size(); ++i) RecordPass(passes[i], rep);
  rep->answer = passes.front().answer;
  for (const Pass& p : passes) {
    rep->Check(p.edges == opt.expect_edges,
               "pass ingested " + std::to_string(p.edges) + " edges, corpus has " +
                   std::to_string(opt.expect_edges));
    rep->Check(SameAnswer(p.answer, rep->answer),
               "answer differs between passes of the same file");
  }
  if (tracer == nullptr) return;

  std::vector<Pass> traced;
  start = NowNs();
  do {
    traced.push_back(pass(tracer));
  } while (NowNs() - start < budget_ns - untraced_ns);
  for (const Pass& p : traced) {
    rep->Check(SameAnswer(p.answer, rep->answer),
               "traced pass answer differs from untraced");
  }
  std::map<std::string, std::vector<double>> by_key;
  for (const Pass& p : traced) {
    for (const auto& [k, v] : p.layers) by_key[k].push_back(v);
  }
  for (const auto& [k, vs] : by_key) rep->layers[k] = Median(vs);
  // Pass time as answer_age measures it (ready → answer in hand), which
  // leaves out oracle-inline's mid-pass Finalize samples.
  auto pass_s = [](const std::vector<Pass>& ps, size_t from) {
    std::vector<double> v;
    for (size_t i = from; i < ps.size(); ++i) {
      v.push_back(ps[i].ingest_s + ps[i].finalize_s);
    }
    return Median(v);
  };
  rep->layers["trace.overhead_ratio"] = pass_s(traced, 0) / pass_s(passes, 1);
}

// Sanity of a reported k-cover against the instance shape.
void CheckSolution(const Workload& w, RunReport* rep) {
  const MaxCoverSolution& s = rep->answer;
  std::set<SetId> distinct(s.sets.begin(), s.sets.end());
  bool ids_ok = !s.sets.empty() && s.sets.size() <= w.k &&
                distinct.size() == s.sets.size() && *distinct.rbegin() < w.m;
  rep->Check(ids_ok, "reported sets are not a k-subset of [0, m)");
  rep->Check(std::isfinite(s.estimate) && s.estimate > 0,
             "estimate is not a positive number");
}

// Forwards the ShardedPipeline State surface to a ReportMaxCover and times
// each ProcessBatch as a core.process span under its shard's worker span.
// The worker span itself ([first batch, last batch] on the worker thread)
// is recorded by the pass after the join.
struct ShardTrace {
  uint64_t span_id = 0;
  uint64_t pipeline_span = 0;
  uint64_t first_ns = 0;
  uint64_t last_ns = 0;
  uint64_t core_ns = 0;
};

class TimedReporter : public SpaceMetered {
 public:
  TimedReporter(const ReportMaxCover::Config& config, Tracer* tracer,
                ShardTrace* trace)
      : inner_(config), tracer_(tracer), trace_(trace) {}

  void Process(const Edge& edge) { inner_.Process(edge); }
  void ProcessBatch(const PrefoldedEdges& batch) {
    uint64_t t0 = NowNs();
    inner_.ProcessBatch(batch);
    uint64_t t1 = NowNs();
    tracer_->Record(tracer_->NewId(), trace_->span_id, "core.process", t0, t1);
    if (trace_->first_ns == 0) trace_->first_ns = t0;
    trace_->last_ns = t1;
    trace_->core_ns += t1 - t0;
  }
  void Merge(const TimedReporter& other) {
    SpanScope span(tracer_, "core.merge", trace_->pipeline_span);
    inner_.Merge(other.inner_);
  }
  uint64_t MergeFingerprint() const { return inner_.MergeFingerprint(); }

  size_t MemoryBytes() const override { return inner_.MemoryBytes(); }
  const char* ComponentName() const override { return inner_.ComponentName(); }
  uint64_t ItemCount() const override { return inner_.ItemCount(); }
  void ReportSpace(SpaceAccountant* acct) const override {
    inner_.ReportSpace(acct);
  }

  const ReportMaxCover& inner() const { return inner_; }

 private:
  ReportMaxCover inner_;
  Tracer* tracer_;
  ShardTrace* trace_;
};

// An EdgeStream decorator for a pipeline producer: times every NextBatch
// as a stream.parse span and closes its producer's runtime.producer span
// when the substream ends. Constructed by the segment opener, i.e. on the
// producer's own thread.
class TimedStream : public EdgeStream {
 public:
  TimedStream(std::unique_ptr<EdgeStream> inner, Tracer* tracer,
              uint64_t parent, std::atomic<uint64_t>* parse_ns)
      : inner_(std::move(inner)),
        tracer_(tracer),
        parent_(parent),
        parse_ns_(parse_ns),
        span_id_(tracer->NewId()),
        start_ns_(NowNs()) {}

  bool Next(Edge* edge) override { return inner_->Next(edge); }
  size_t NextBatch(std::vector<Edge>* out, size_t max_edges) override {
    uint64_t t0 = NowNs();
    size_t got = inner_->NextBatch(out, max_edges);
    uint64_t t1 = NowNs();
    tracer_->Record(tracer_->NewId(), span_id_, "stream.parse", t0, t1);
    parse_ns_->fetch_add(t1 - t0, std::memory_order_relaxed);
    if (got == 0 && !closed_) {
      closed_ = true;
      tracer_->Record(span_id_, parent_, "runtime.producer", start_ns_, t1);
    }
    return got;
  }
  void Reset() override { inner_->Reset(); }
  bool ok() const override { return inner_->ok(); }
  bool transient() const override { return inner_->transient(); }
  std::string StatusMessage() const override { return inner_->StatusMessage(); }

 private:
  std::unique_ptr<EdgeStream> inner_;
  Tracer* tracer_;
  uint64_t parent_;
  std::atomic<uint64_t>* parse_ns_;
  uint64_t span_id_;
  uint64_t start_ns_;
  bool closed_ = false;
};

const ReportMaxCover& Inner(const ReportMaxCover& r) { return r; }
const ReportMaxCover& Inner(const TimedReporter& r) { return r.inner(); }

ShardedPipelineOptions TrivialOptions(const Workload& w,
                                      MetricsRegistry* registry) {
  ShardedPipelineOptions o;
  o.num_shards = w.shards;
  o.num_producers = w.producers;
  o.batch_size = kBatchEdges;
  o.registry = registry;
  return o;
}

// One trivial-parallel pass through ShardedPipeline<State>::RunSegmented,
// where State is ReportMaxCover (timing runs) or TimedReporter (traced).
template <typename State>
Pass PipelinePass(const Workload& w, const std::string& path, Tracer* tracer,
                  RunReport* rep) {
  Pass p;
  const ReportMaxCover::Config cfg{w.MakeParams(), kEstimatorSeed};
  SpanScope pass_span(tracer, "bench.pass", 0);
  SegmentedTextStream segments(path, w.producers);
  MetricsRegistry registry;
  std::vector<ShardTrace> shard_traces(w.shards);
  std::atomic<uint64_t> parse_ns{0};
  uint64_t pipeline_span = tracer ? tracer->NewId() : 0;
  typename ShardedPipeline<State>::Factory factory;
  typename ShardedPipeline<State>::SegmentOpener open;
  if constexpr (std::is_same_v<State, TimedReporter>) {
    for (ShardTrace& st : shard_traces) {
      st.span_id = tracer->NewId();
      st.pipeline_span = pipeline_span;
    }
    factory = [&](uint32_t s) {
      return TimedReporter(cfg, tracer, &shard_traces[s]);
    };
    open = [&](uint32_t i) -> std::unique_ptr<EdgeStream> {
      return std::make_unique<TimedStream>(segments.OpenSegment(i), tracer,
                                           pipeline_span, &parse_ns);
    };
  } else {
    factory = [&cfg](uint32_t) { return ReportMaxCover(cfg); };
    open = [&segments](uint32_t i) { return segments.OpenSegment(i); };
  }
  ShardedPipeline<State> pipeline(TrivialOptions(w, &registry), factory);
  uint64_t t1 = NowNs();

  uint64_t run_start = NowNs();
  State merged = pipeline.RunSegmented(open);
  uint64_t t2 = NowNs();
  p.ingest_s = Seconds(t2 - t1);
  {
    SpanScope fin(tracer, "core.finalize", pass_span.id());
    p.finalize_s = TimeFinalize(Inner(merged), &p.answer);
  }

  const RuntimeMetrics& rm = pipeline.metrics();
  p.edges = rm.edges_ingested.load();
  uint64_t discarded = rm.TotalEdgesDiscarded();
  rep->attempted += p.edges;
  rep->failed += discarded;
  if (discarded > 0) rep->failures.push_back("pipeline discarded edges");
  rep->Check(rm.shards_quarantined.load() == 0, "a shard was quarantined");
  for (const auto& ps : pipeline.producer_status()) {
    rep->Check(ps.ok, "producer stream error: " + ps.message);
  }
  rep->state_bytes = std::max<uint64_t>(rep->state_bytes,
                                        pipeline.space().peak_total_bytes());
  if (tracer == nullptr) return p;

  tracer->Record(pipeline_span, pass_span.id(), "runtime.pipeline", run_start,
                 t2);
  uint64_t core_ns = 0, busy_ns = 0, max_edges = 0;
  for (uint32_t s = 0; s < w.shards; ++s) {
    const ShardTrace& st = shard_traces[s];
    if (st.first_ns != 0) {
      tracer->Record(st.span_id, pipeline_span, "runtime.worker", st.first_ns,
                     st.last_ns);
    }
    core_ns += st.core_ns;
    busy_ns += rm.shard(s).busy_ns.load();
    max_edges = std::max<uint64_t>(max_edges, rm.shard(s).edges.load());
  }
  double mean_edges =
      static_cast<double>(rm.TotalShardEdges()) / static_cast<double>(w.shards);
  auto& L = p.layers;
  L["core.ingest_s"] = Seconds(core_ns);
  L["core.finalize_s"] = p.finalize_s;
  L["stream.parse_s"] = Seconds(parse_ns.load());
  L["stream.bytes_per_s"] =
      static_cast<double>(segments.file_size()) / Seconds(parse_ns.load());
  L["runtime.prefold_s"] = Seconds(busy_ns - std::min(busy_ns, core_ns));
  L["runtime.pipeline_s"] = Seconds(rm.wall_ns.load());
  L["runtime.merge_s"] = Seconds(rm.merge_ns.load());
  L["runtime.ring_blocked_s"] = Seconds(rm.TotalRingStalledNs());
  L["runtime.queue_full_stalls"] =
      static_cast<double>(rm.queue_full_stalls.load());
  L["runtime.shard_edge_skew"] =
      mean_edges > 0 ? static_cast<double>(max_edges) / mean_edges : 0;
  L["runtime.batches_recycled"] =
      static_cast<double>(rm.TotalBatchesRecycled());
  L["runtime.segment_runs"] = 1;
  SpaceLayers(pipeline.space(), &L);
  return p;
}

// One oracle-inline pass: TextEdgeStream → EdgeBatch::Prefold →
// ReportMaxCover::ProcessBatch on this thread, then Finalize. Untraced
// passes also time `full`'s Finalize every kFinalizeEveryNs.
Pass InlinePass(const Workload& w, const std::string& path, Tracer* tracer,
                const ReportMaxCover& full, RunReport* rep) {
  Pass p;
  SpanScope pass_span(tracer, "bench.pass", 0);
  const uint64_t root = pass_span.id();
  ReportMaxCover reporter(
      ReportMaxCover::Config{w.MakeParams(), kEstimatorSeed});
  TextEdgeStream stream(path);
  EdgeBatch batch(kBatchEdges);
  SpaceAccountant space;
  uint64_t t1 = NowNs();

  uint64_t parse_ns = 0, prefold_ns = 0, core_ns = 0;
  uint64_t paused_ns = 0, last_finalize = t1;
  uint32_t batches = 0;
  for (;;) {
    size_t got;
    {
      SpanScope span(tracer, "stream.parse", root, &parse_ns);
      got = stream.NextBatch(&batch.edges, kBatchEdges);
    }
    if (got == 0) break;
    p.edges += got;
    {
      SpanScope span(tracer, "runtime.prefold", root, &prefold_ns);
      batch.Prefold();
    }
    {
      SpanScope span(tracer, "core.process", root, &core_ns);
      reporter.ProcessBatch(batch.View());
    }
    // Same cadence as ShardedPipeline's worker-side space sampling.
    if (++batches % 16 == 0) {
      SpanScope span(tracer, "bench.space_sample", root);
      space.Sample(reporter);
    }
    if (tracer == nullptr && NowNs() - last_finalize >= kFinalizeEveryNs) {
      uint64_t f0 = NowNs();
      MaxCoverSolution mid = full.Finalize();
      last_finalize = NowNs();
      p.mid_pass_finalize_s.push_back(Seconds(last_finalize - f0));
      paused_ns += last_finalize - f0;
    }
  }
  uint64_t t2 = NowNs();
  p.ingest_s = Seconds(t2 - t1 - paused_ns);
  {
    SpanScope span(tracer, "core.finalize", root);
    p.finalize_s = TimeFinalize(reporter, &p.answer);
  }
  space.Sample(reporter);
  rep->attempted += p.edges;
  rep->Check(stream.ok() && stream.malformed_lines() == 0,
             "edge file did not parse cleanly: " + stream.StatusMessage());
  rep->state_bytes = std::max<uint64_t>(rep->state_bytes,
                                        space.peak_total_bytes());
  if (tracer == nullptr) return p;

  auto& L = p.layers;
  L["core.ingest_s"] = Seconds(core_ns);
  L["core.finalize_s"] = p.finalize_s;
  L["stream.parse_s"] = Seconds(parse_ns);
  L["stream.bytes_per_s"] =
      static_cast<double>(std::filesystem::file_size(path)) / Seconds(parse_ns);
  L["runtime.prefold_s"] = Seconds(prefold_ns);
  SpaceLayers(space, &L);
  return p;
}

}  // namespace

void RunOracleInline(const Workload& w, const RunOptions& opt, RunReport* rep,
                     Tracer* tracer) {
  // The full-file state whose Finalize the passes time (kFinalizeEveryNs).
  // Passes hold a second state beside it, so peak RSS is read once this one
  // has ingested the file and finalized.
  ReportMaxCover full(ReportMaxCover::Config{w.MakeParams(), kEstimatorSeed});
  {
    TextEdgeStream stream(opt.edges_path);
    FeedStream(stream, full);
  }
  full.Finalize();
  rep->peak_rss_mb = PeakRssMb();
  RunPasses(
      opt, tracer, rep,
      [&](Tracer* t) { return InlinePass(w, opt.edges_path, t, full, rep); },
      [&] {
        ReportMaxCover reporter(
            ReportMaxCover::Config{w.MakeParams(), kEstimatorSeed});
        TextEdgeStream stream(opt.edges_path);
        EdgeBatch batch(kBatchEdges);
      });
  CheckSolution(w, rep);
}

void RunTrivialParallel(const Workload& w, const RunOptions& opt,
                        RunReport* rep, Tracer* tracer) {
  rep->config["producers"] = std::to_string(w.producers);
  rep->config["shards"] = std::to_string(w.shards);
  RunPasses(
      opt, tracer, rep,
      [&](Tracer* t) {
        return t ? PipelinePass<TimedReporter>(w, opt.edges_path, t, rep)
                 : PipelinePass<ReportMaxCover>(w, opt.edges_path, t, rep);
      },
      [&] {
        SegmentedTextStream segments(opt.edges_path, w.producers);
        MetricsRegistry registry;
        const ReportMaxCover::Config cfg{w.MakeParams(), kEstimatorSeed};
        ShardedPipeline<ReportMaxCover> pipeline(
            TrivialOptions(w, &registry),
            [&cfg](uint32_t) { return ReportMaxCover(cfg); });
      });
  CheckSolution(w, rep);
  // The deterministic-merge contract: P producers x N shards must report
  // exactly what one inline pass over the same file reports.
  rep->Check(SameAnswer(rep->answer, InlineReference(w, opt.edges_path)),
             "sharded answer differs from the inline pass");
}

}  // namespace streamkc::perf
