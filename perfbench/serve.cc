// The serve-mixed workload: ServingRuntime with sharded ingest and a short
// snapshot cadence, fed open-loop at a fixed edge rate, while one reader
// thread runs the QueryEngine mix open-loop at a fixed query rate.
//
// Edge i of the file is due at ready + i / kIngestEdgesPerS. The paced
// stream hands the runtime a chunk once its last edge is due, so a slow
// system falls behind the schedule instead of slowing the generator.
// Queries are due at first-snapshot + j / kQueriesPerS and are timed from
// their due time. Answer age = query completion − due time of the last edge
// the answering snapshot contains.
//
// Since the edge rate is fixed, edges_per_s here is the serving capacity
// the session used: edges ÷ the program's thread time (stream parsing,
// shard worker busy time and publishing), not edges ÷ paced wall time.
// generator_lag_s is, per snapshot, its publish time − the due time of its
// last edge; it grows over a session if the rate is not sustainable.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/metrics.h"
#include "obs/space_accountant.h"
#include "serve/query_engine.h"
#include "serve/serving_runtime.h"
#include "serve/snapshot_store.h"
#include "stream/text_stream.h"
#include "util/math_util.h"
#include "util/random.h"

namespace streamkc::perf {

namespace {

constexpr uint64_t kSnapshotEveryEdges = 16384;
// About 40% of the serving capacity of this configuration at the commit
// that introduced the benchmark (51.5k edges/s measured unpaced on a
// 4-thread x86-64 host), so the schedule stays sustainable with headroom
// when the host is busy, and a slower program shows as older answers before
// it shows as lag.
constexpr double kIngestEdgesPerS = 20000;
// An assumption, not a measured client load. Queries are uniform in time,
// so answer_age_* sample the age sawtooth between snapshots and the rate
// only sets their sample count: 1000/s gives several thousand answers per
// session (enough for a p99) while the reader, at a few microseconds a
// query, stays under 1% of a core and does not slow ingest.
constexpr double kQueriesPerS = 1000;
// The query mix of bench_serving's readers: an Estimate and a SetCoverage
// per round, and a Report every 16th round (16 : 16 : 1).
constexpr uint64_t kMixRounds = 16;
constexpr size_t kPaceChunk = 256;

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Sleeps until `due_ns`. The generator and reader threads run with a 1 µs
// timer slack (see TightTimerSlack) and sleep until kSpinNs before the due
// time, then spin: a wake-up costs tens of microseconds on a loaded host,
// which would otherwise read as query latency, and a short spin keeps the
// thread from competing with the ingest threads for the host's cores.
constexpr uint64_t kSpinNs = 80'000;
void SleepUntil(uint64_t due_ns) {
  uint64_t now = NowNs();
  if (now + kSpinNs < due_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

// Sets the calling thread's timer slack to 1 µs (the Linux default is
// 50 µs, which would read as query latency).
void TightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL); }

uint64_t EdgeDueNs(uint64_t start_ns, uint64_t index) {
  return start_ns +
         static_cast<uint64_t>(static_cast<double>(index) * 1e9 /
                               kIngestEdgesPerS);
}

// The open-loop edge generator, wrapped around the text stream. Runs on the
// pipeline's producer thread; in a traced run it records stream.parse and
// bench.pace spans under the current runtime.segment span.
class PacedStream : public EdgeStream {
 public:
  PacedStream(EdgeStream* inner, uint64_t start_ns, Tracer* tracer,
              const std::atomic<uint64_t>* segment_span,
              std::atomic<uint64_t>* parse_ns)
      : inner_(inner),
        start_ns_(start_ns),
        tracer_(tracer),
        segment_span_(segment_span),
        parse_ns_(parse_ns) {}

  bool Next(Edge* edge) override {
    std::vector<Edge> one;
    if (NextBatch(&one, 1) == 0) return false;
    *edge = one[0];
    return true;
  }
  size_t NextBatch(std::vector<Edge>* out, size_t max_edges) override {
    uint64_t parent = segment_span_->load(std::memory_order_relaxed);
    uint64_t t0 = NowNs();
    size_t got = inner_->NextBatch(out, std::min(max_edges, kPaceChunk));
    uint64_t t1 = NowNs();
    if (tracer_ != nullptr) {
      tracer_->Record(tracer_->NewId(), parent, "stream.parse", t0, t1);
    }
    parse_ns_->fetch_add(t1 - t0, std::memory_order_relaxed);
    if (got == 0) return 0;
    emitted_ += got;
    // Each segment runs a fresh pipeline, so the producer thread is new.
    thread_local bool slack_set = false;
    if (!slack_set) {
      TightTimerSlack();
      slack_set = true;
    }
    SpanScope span(tracer_, "bench.pace", parent);
    SleepUntil(EdgeDueNs(start_ns_, emitted_ - 1));
    return got;
  }
  void Reset() override { inner_->Reset(); }
  bool ok() const override { return inner_->ok(); }
  bool transient() const override { return inner_->transient(); }
  std::string StatusMessage() const override { return inner_->StatusMessage(); }

 private:
  EdgeStream* inner_;
  uint64_t start_ns_;
  Tracer* tracer_;
  const std::atomic<uint64_t>* segment_span_;
  std::atomic<uint64_t>* parse_ns_;
  uint64_t emitted_ = 0;
};

enum QueryKind : uint8_t { kEstimate, kSetCoverage, kReport };

struct Query {
  QueryKind kind = kEstimate;
  bool ok = false;
  uint64_t epoch = 0;
  double estimate = 0;
  std::vector<SetId> sets;
  double latency_us = 0;  // from due time
  double service_us = 0;  // from call
  double age_ms = 0;
};

struct Session {
  double program_s = 0;  // parse + worker busy + publish thread time
  // Per snapshot: published − due time of the last edge it contains.
  std::vector<double> lag_s;
  std::vector<double> publish_s;
  uint64_t edges = 0;
  std::vector<Query> queries;
  std::map<std::string, double> layers;
};

// The reader: the open-loop kMixRounds mix, starting at the first snapshot,
// until ingest is done.
void ReadLoop(const Workload& w, const QueryEngine& engine,
              const SnapshotStore& store, uint64_t edges_start_ns,
              const std::atomic<bool>& done, std::vector<Query>* out) {
  while (store.epoch() == 0 && !done.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  TightTimerSlack();
  Rng rng(SplitMix64(kEstimatorSeed ^ 0x9ead));
  const uint64_t q0 = NowNs();
  for (uint64_t i = 0;; ++i) {
    uint64_t due = q0 + static_cast<uint64_t>(static_cast<double>(i) * 1e9 /
                                              kQueriesPerS);
    SleepUntil(due);
    if (done.load()) return;
    Query q;
    QueryStaleness st;
    uint64_t t0 = NowNs();
    const uint64_t slot = i % (2 * kMixRounds + 1);
    switch (slot == 2 * kMixRounds ? 2 : slot % 2) {
      case 0: {
        EstimateAnswer a = engine.Estimate();
        q.kind = kEstimate;
        q.ok = a.ok;
        q.estimate = a.estimate;
        st = a.staleness;
        break;
      }
      case 2: {
        ReportAnswer a = engine.Report();
        q.kind = kReport;
        q.ok = a.ok;
        q.estimate = a.estimate;
        q.sets = std::move(a.sets);
        st = a.staleness;
        break;
      }
      default: {
        SetCoverageAnswer a = engine.SetCoverage(rng.UniformU64(w.m));
        q.kind = kSetCoverage;
        q.ok = a.ok;
        st = a.staleness;
        break;
      }
    }
    uint64_t t1 = NowNs();
    q.epoch = st.epoch;
    q.latency_us = static_cast<double>(t1 - due) * 1e-3;
    q.service_us = static_cast<double>(t1 - t0) * 1e-3;
    if (st.edges_ingested > 0) {
      uint64_t edge_due = EdgeDueNs(edges_start_ns, st.edges_ingested - 1);
      q.age_ms = t1 > edge_due ? static_cast<double>(t1 - edge_due) * 1e-6 : 0;
    }
    out->push_back(std::move(q));
  }
}

// Everything a serving session builds before its first edge: what
// setup_s times.
struct ServeStack {
  ServeStack(const Workload& w, const std::string& path,
             ServingRuntimeOptions options)
      : store("perf", &registry),
        runtime(StateConfig(w), WithRegistry(std::move(options), &registry),
                &store),
        engine(&store, &registry),
        text(path) {}

  static ServingState::Config StateConfig(const Workload& w) {
    ServingState::Config sc;
    sc.params = w.MakeParams();
    sc.seed = kEstimatorSeed;
    return sc;
  }
  static ServingRuntimeOptions WithRegistry(ServingRuntimeOptions o,
                                            MetricsRegistry* registry) {
    o.snapshot_every_edges = kSnapshotEveryEdges;
    o.batch_size = kBatchEdges;
    o.registry = registry;
    return o;
  }

  MetricsRegistry registry;
  SnapshotStore store;
  ServingRuntime runtime;
  QueryEngine engine;
  TextEdgeStream text;
};

Session ServeSession(const Workload& w, const std::string& path,
                     Tracer* tracer, RunReport* rep,
                     std::vector<MaxCoverSolution>* finals) {
  Session s;
  SpanScope session_span(tracer, "bench.pass", 0);
  // The histograms the hook reads live in the stack's registry; the hook
  // only runs once Ingest starts, after the stack is built.
  Histogram* publish_hist = nullptr;

  // Written by on_publish on the ingest thread only.
  std::map<uint64_t, MaxCoverSolution> published;
  std::vector<double> publish_s, segment_s;
  uint64_t publish_sum = 0, last_publish_end = 0, ready_ns = 0;
  std::shared_ptr<const CoverageSnapshot> last_snapshot;
  std::atomic<uint64_t> segment_span{tracer ? tracer->NewId() : 0};
  std::atomic<uint64_t> parse_ns{0};

  ServingRuntimeOptions o;
  o.threads = w.shards;
  o.on_publish = [&](const std::shared_ptr<const CoverageSnapshot>& snap) {
    uint64_t end = NowNs();
    // serve_publish_ns has just observed this publish: its sum grew by the
    // publish's duration (Finalize + serialize + restore + store).
    uint64_t dur = publish_hist->Sum() - publish_sum;
    publish_sum = publish_hist->Sum();
    publish_s.push_back(Seconds(dur));
    segment_s.push_back(Seconds(end - dur - last_publish_end));
    if (tracer != nullptr) {
      tracer->Record(segment_span.load(), session_span.id(), "runtime.segment",
                     last_publish_end, end - dur);
      tracer->Record(tracer->NewId(), session_span.id(), "serve.publish",
                     end - dur, end);
      segment_span.store(tracer->NewId());
    }
    last_publish_end = end;
    const uint64_t edges = snap->meta().edges_ingested;
    const uint64_t due = edges > 0 ? EdgeDueNs(ready_ns, edges - 1) : ready_ns;
    s.lag_s.push_back(end > due ? Seconds(end - due) : 0);
    published[snap->meta().epoch] = snap->solution();
    last_snapshot = snap;
  };
  ServeStack stack(w, path, o);
  publish_hist = stack.registry.GetHistogram("serve_publish_ns");
  Histogram* busy_hist = stack.registry.GetHistogram("runtime_batch_busy_ns");
  uint64_t t1 = NowNs();
  last_publish_end = t1;
  ready_ns = t1;

  PacedStream paced(&stack.text, t1, tracer, &segment_span, &parse_ns);
  std::atomic<bool> done{false};
  s.queries.reserve(static_cast<size_t>(kQueriesPerS * 60));
  std::thread reader(ReadLoop, std::cref(w), std::cref(stack.engine),
                     std::cref(stack.store), t1, std::cref(done), &s.queries);
  IngestSummary summary = stack.runtime.Ingest(paced);
  done.store(true);
  reader.join();

  s.edges = summary.edges;
  s.program_s = Seconds(parse_ns.load() + busy_hist->Sum() + publish_sum);
  s.publish_s = publish_s;

  rep->attempted += summary.edges;
  rep->Check(summary.stream_ok && stack.text.malformed_lines() == 0,
             "serving stream error: " + summary.stream_error);
  rep->Check(summary.quarantined_fraction == 0, "serving quarantined a shard");
  rep->Check(last_snapshot != nullptr &&
                 last_snapshot->meta().edges_ingested == summary.edges,
             "final snapshot does not cover the whole stream");
  if (last_snapshot != nullptr) finals->push_back(last_snapshot->solution());
  uint64_t rejected = 0;
  for (const Query& q : s.queries) {
    ++rep->attempted;
    if (!q.ok) {
      ++rejected;
      ++rep->failed;
      continue;
    }
    auto it = published.find(q.epoch);
    bool match = it != published.end() &&
                 (q.kind == kSetCoverage || q.estimate == it->second.estimate) &&
                 (q.kind != kReport || q.sets == it->second.sets);
    if (!match) {
      ++rep->failed;
      rep->failures.push_back("query answer differs from its epoch's snapshot");
    }
  }
  if (rejected > 0) rep->failures.push_back("queries refused after warm-up");

  SpaceAccountant space;
  space.Sample(stack.runtime.state());
  rep->state_bytes = std::max<uint64_t>(rep->state_bytes,
                                        space.peak_total_bytes());
  if (tracer == nullptr) return s;

  std::vector<double> est_us, rep_us, cov_us, due_us;
  for (const Query& q : s.queries) {
    (q.kind == kEstimate ? est_us : q.kind == kReport ? rep_us : cov_us)
        .push_back(q.service_us);
    due_us.push_back(q.latency_us);
  }
  std::sort(due_us.begin(), due_us.end());
  auto median0 = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : Median(v);
  };
  auto& L = s.layers;
  L["serve.publish_s_p50"] = median0(publish_s);
  L["serve.publish_s_max"] = *std::max_element(publish_s.begin(), publish_s.end());
  L["serve.snapshot_bytes"] = static_cast<double>(last_snapshot->blob().size());
  L["serve.snapshots_published"] =
      static_cast<double>(summary.snapshots_published);
  L["serve.segment_s_p50"] = median0(segment_s);
  L["serve.query_estimate_us_p50"] = median0(est_us);
  L["serve.query_report_us_p50"] = median0(rep_us);
  L["serve.query_set_coverage_us_p50"] = median0(cov_us);
  L["serve.queries_rejected"] = static_cast<double>(rejected);
  // Open-loop latency from the due time: a few microseconds of work whose
  // median and tail are set by the host (cache state, scheduling stalls) on
  // small shared hosts, so diagnostics rather than bounded end-to-end
  // metrics.
  L["serve.query_p50_us"] =
      due_us.empty() ? 0.0 : due_us[due_us.size() / 2];
  L["serve.query_p99_us"] =
      due_us.empty() ? 0.0 : due_us[due_us.size() * 99 / 100];
  L["runtime.segment_runs"] = static_cast<double>(summary.segments);
  double pipeline_s = 0;
  for (double x : segment_s) pipeline_s += x;
  L["runtime.pipeline_s"] = pipeline_s;
  // Worker busy time of all segment pipelines (ProcessBatch + prefold).
  L["core.ingest_s"] = Seconds(busy_hist->Sum());
  L["stream.parse_s"] = Seconds(parse_ns.load());
  {
    SpanScope span(tracer, "core.finalize", session_span.id());
    uint64_t f0 = NowNs();
    MaxCoverSolution sol = stack.runtime.state().FinalizeSolution();
    L["core.finalize_s"] = Seconds(NowNs() - f0);
  }
  SpaceLayers(space, &L);
  return s;
}

}  // namespace

void RunServeMixed(const Workload& w, const RunOptions& opt, RunReport* rep,
                   Tracer* tracer) {
  rep->config["ingest_shards"] = std::to_string(w.shards);
  rep->config["snapshot_every_edges"] = std::to_string(kSnapshotEveryEdges);
  rep->config["ingest_edges_per_s"] = std::to_string(kIngestEdgesPerS);
  rep->config["queries_per_s"] = std::to_string(kQueriesPerS);
  std::vector<MaxCoverSolution> finals;
  std::vector<Session> sessions, traced;
  auto budget_ns = static_cast<uint64_t>(opt.seconds * 1e9);
  uint64_t untraced_ns = tracer ? budget_ns / 2 : budget_ns;
  uint64_t start = NowNs();
  auto setup = [&] {
    ServingRuntimeOptions o;
    o.threads = w.shards;
    ServeStack stack(w, opt.edges_path, o);
  };
  do {
    TimeSetups(setup, rep);
    sessions.push_back(ServeSession(w, opt.edges_path, nullptr, rep, &finals));
  } while (NowNs() - start < untraced_ns);
  TimeSetups(setup, rep);
  if (tracer != nullptr) {
    start = NowNs();
    do {
      traced.push_back(ServeSession(w, opt.edges_path, tracer, rep, &finals));
    } while (NowNs() - start < budget_ns - untraced_ns);
  }

  std::vector<double> program_s;
  for (const Session& s : sessions) {
    rep->edges_per_s.push_back(static_cast<double>(s.edges) / s.program_s);
    for (double p : s.publish_s) rep->finalize_s.push_back(p);
    for (double l : s.lag_s) rep->generator_lag_s.push_back(l);
    for (const Query& q : s.queries) {
      if (!q.ok) continue;
      rep->answer_age_ms.push_back(q.age_ms);
    }
    program_s.push_back(s.program_s);
    rep->Check(s.edges == opt.expect_edges,
               "serving ingested " + std::to_string(s.edges) +
                   " edges, corpus has " + std::to_string(opt.expect_edges));
  }
  // Every session's final snapshot must be the one-shot answer.
  rep->answer = InlineReference(w, opt.edges_path);
  for (const MaxCoverSolution& f : finals) {
    rep->Check(SameAnswer(f, rep->answer),
               "final snapshot differs from one-shot ReportMaxCover");
  }
  if (tracer == nullptr) return;
  std::map<std::string, std::vector<double>> by_key;
  std::vector<double> traced_program_s;
  for (const Session& s : traced) {
    for (const auto& [k, v] : s.layers) by_key[k].push_back(v);
    traced_program_s.push_back(s.program_s);
  }
  for (const auto& [k, vs] : by_key) rep->layers[k] = Median(vs);
  rep->layers["stream.bytes_per_s"] =
      rep->layers["stream.parse_s"] > 0
          ? static_cast<double>(std::filesystem::file_size(opt.edges_path)) /
                rep->layers["stream.parse_s"]
          : 0;
  rep->layers["trace.overhead_ratio"] =
      Median(traced_program_s) / Median(program_s);
}

}  // namespace streamkc::perf
