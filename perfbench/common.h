// Shared declarations of streamkc_perf: the workload table, the report each
// workload fills, and helpers the workloads share.

#ifndef STREAMKC_PERFBENCH_COMMON_H_
#define STREAMKC_PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/report_max_cover.h"
#include "obs/space_accountant.h"
#include "trace.h"

namespace streamkc::perf {

// One benchmark workload: the instance family the corpus generator draws
// from, the estimator parameters, and the threads the workload starts.
struct Workload {
  const char* name;
  uint64_t m;
  uint64_t n;
  uint64_t k;
  double alpha;
  uint64_t set_size;  // Zipf draws per set (duplicates collapse)
  double zipf_s;
  uint32_t producers;  // pipeline producer threads (0 = the calling thread)
  uint32_t shards;     // pipeline shard workers (0 = inline ingest)
  uint32_t readers;    // query threads

  uint32_t Threads() const {
    return (producers == 0 ? 1 : producers) + shards + readers;
  }
  Params MakeParams() const { return Params::Practical(m, n, k, alpha); }
  bool trivial() const {
    return static_cast<double>(k) * alpha >= static_cast<double>(m);
  }
};

// The estimator seed is program configuration, not input: every run of a
// workload uses the same one, and only the corpus depends on --seed.
inline constexpr uint64_t kEstimatorSeed = 5;

// Edges per NextBatch / ProcessBatch call on the inline paths.
inline constexpr size_t kBatchEdges = 4096;

// Everything a workload run reports back; serialized by WriteRunJson.
struct RunReport {
  // One entry per measured pass (untraced).
  std::vector<double> setup_s;
  std::vector<double> edges_per_s;
  std::vector<double> finalize_s;
  std::vector<double> answer_age_ms;
  std::vector<double> generator_lag_s;
  uint64_t state_bytes = 0;
  double peak_rss_mb = 0;  // 0: the process peak at exit

  MaxCoverSolution answer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  // Per-layer metrics (traced runs): name -> value.
  std::map<std::string, double> layers;
  // Free-form configuration facts (hash kernel, thread counts, ...).
  std::map<std::string, std::string> config;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
};

struct RunOptions {
  std::string edges_path;
  uint64_t expect_edges = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

void RunOracleInline(const Workload& w, const RunOptions& opt, RunReport* rep,
                     Tracer* tracer);
void RunTrivialParallel(const Workload& w, const RunOptions& opt,
                        RunReport* rep, Tracer* tracer);
void RunServeMixed(const Workload& w, const RunOptions& opt, RunReport* rep,
                   Tracer* tracer);

// Answer equality: bit-exact estimate, winning source, and the same set of
// set ids (a k-cover is a set; the trivial branch's bottom-k sample lists
// it in heap order, which depends on how shard samples were merged).
inline bool SameAnswer(const MaxCoverSolution& a, const MaxCoverSolution& b) {
  std::vector<SetId> x = a.sets, y = b.sets;
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return a.estimate == b.estimate && a.source == b.source && x == y;
}

// One-shot ReportMaxCover over the edge file, inline; the reference the
// parallel and serving answers are checked against.
MaxCoverSolution InlineReference(const Workload& w, const std::string& path);

// Seconds of per-layer micro-measurements: standalone replicas of one
// oracle's subroutines, the sketches' folded entry points and the hash
// kernel, all fed the workload's own edges. Fills rep->layers.
void MeasureLayerProbes(const Workload& w, const std::string& path,
                        RunReport* rep);

// sketch.bytes.<component> (peak bytes per ReportSpace component),
// core.num_oracles and core.heavy_hitter_bytes from a sampled accountant.
void SpaceLayers(const SpaceAccountant& acct,
                 std::map<std::string, double>* layers);

// Times one burst of `setup` (build what a workload needs before its first
// edge, then tear it down): at least 10 calls and at least 50 ms, appending
// each time to rep->setup_s. Workloads run a burst before their first pass
// and then about once a second between passes. Set-up takes microseconds to
// a millisecond and is mostly allocation, whose cost swings with the host
// from one second to the next: the reported figure is the fastest set-up
// over bursts spread across the run, which is far steadier across runs than
// a median or a single burst.
void TimeSetups(const std::function<void()>& setup, RunReport* rep);

// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace streamkc::perf

#endif  // STREAMKC_PERFBENCH_COMMON_H_
