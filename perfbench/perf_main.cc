// streamkc_perf: the repository benchmark's measured program.
//
//   streamkc_perf gen   --workload W --seed S --out F.edges --meta F.json
//   streamkc_perf run   --workload W --edges F.edges --expect-edges N
//                       --seconds T --trace 0|1 --report R.json
//                       [--spans S.json]
//   streamkc_perf cover --edges F.edges --sets 3,17,42
//   streamkc_perf quality --workload W --seed S
//
// `gen` builds the workload's instance with the setsys generators, shuffles
// the arrival order, writes the edge text file and computes the greedy
// ground truth. `run` drives the paper's estimator through the library's
// public API on that file and writes a JSON report of raw samples, answer
// checks and (traced) per-layer metrics. `cover` prints the exact coverage
// of a set list. `quality` checks the reported cover of the workload's
// estimator configuration on a planted instance (see Quality below).
// perfbench/run.py sequences them and prints metrics.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "core/streaming_interface.h"
#include "hash/kernel_dispatch.h"
#include "obs/space_accountant.h"
#include "offline/baselines.h"
#include "offline/greedy.h"
#include "setsys/generators.h"
#include "setsys/set_system.h"
#include "stream/edge_stream.h"
#include "stream/text_stream.h"
#include "util/random.h"

namespace streamkc::perf {

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void TimeSetups(const std::function<void()>& setup, RunReport* rep) {
  const uint64_t start = NowNs();
  for (int i = 0; i < 10 || NowNs() - start < 50'000'000; ++i) {
    uint64_t t0 = NowNs();
    setup();
    rep->setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
}

MaxCoverSolution InlineReference(const Workload& w, const std::string& path) {
  ReportMaxCover::Config cfg{w.MakeParams(), kEstimatorSeed};
  ReportMaxCover reporter(cfg);
  TextEdgeStream stream(path);
  FeedStream(stream, reporter);
  return reporter.Finalize();
}

void SpaceLayers(const SpaceAccountant& acct,
                 std::map<std::string, double>* layers) {
  for (const auto& [name, cs] : acct.components()) {
    (*layers)["sketch.bytes." + name] = static_cast<double>(cs.peak_bytes);
  }
  auto it = acct.components().find("estimate_max_cover");
  if (it != acct.components().end()) {
    (*layers)["core.num_oracles"] = static_cast<double>(it->second.items);
  }
  it = acct.components().find("large_set");
  if (it != acct.components().end()) {
    (*layers)["core.heavy_hitter_bytes"] =
        static_cast<double>(it->second.peak_bytes);
  }
}

namespace {

// Instance sizes and thread counts. The "why" of each workload is in
// perfbench/README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    // The profiled estimator configuration, oracle mode, one thread.
    {"oracle-inline", 4096, 1u << 20, 16, 8.0, 48, 1.1, 0, 0, 0},
    // Trivial branch (kα ≥ m): parse/route/merge-bound, 2 producers x 2
    // shards.
    {"trivial-parallel", 128, 1u << 22, 16, 8.0, 72000, 0.8, 2, 2, 0},
    // oracle-inline's configuration behind ServingRuntime: 1 producer,
    // 2 shards, 1 query reader.
    {"serve-mixed", 4096, 1u << 20, 16, 8.0, 48, 1.1, 1, 2, 1},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// The CPUs this process may run on — what `nproc` prints.
uint32_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return 1;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + JsonNumber(v[i]);
  }
  return out + "]";
}

// Median coverage of kRandomTrials seeded random s-subsets of the sets.
constexpr uint64_t kRandomTrials = 101;
uint64_t RandomCoverageMedian(const SetSystem& sys, uint64_t s, uint64_t seed) {
  std::vector<uint64_t> cov;
  for (uint64_t r = 0; r < kRandomTrials; ++r) {
    cov.push_back(
        RandomKBaseline(sys, s, SplitMix64(seed ^ (s << 32) ^ r)).coverage);
  }
  std::nth_element(cov.begin(), cov.begin() + kRandomTrials / 2, cov.end());
  return cov[kRandomTrials / 2];
}

int Gen(const Workload& w, uint64_t seed, const std::string& out,
        const std::string& meta) {
  GeneratedInstance inst =
      ZipfFrequency(w.m, w.n, w.set_size, w.zipf_s, seed);
  std::vector<Edge> edges = inst.system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, SplitMix64(seed ^ 0x5eed));
  WriteEdgesToFile(out, edges);
  CoverSolution greedy = LazyGreedyMaxCover(inst.system, w.k);
  // The median coverage of random k-sets, recorded for comparison: on these
  // i.i.d. sets it is most of greedy's.
  const uint64_t random_k = RandomCoverageMedian(inst.system, w.k, seed);
  std::FILE* f = std::fopen(meta.c_str(), "w");
  if (f == nullptr) return 1;
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"m\": %" PRIu64
               ", \"n\": %" PRIu64 ", \"k\": %" PRIu64
               ", \"alpha\": %g, \"mode\": \"%s\", \"family\": \"zipf\", "
               "\"zipf_s\": %g, \"set_size\": %" PRIu64 ", \"edges\": %zu, "
               "\"greedy_coverage\": %" PRIu64
               ", \"random_k_coverage_median\": %" PRIu64 "}\n",
               w.name, seed, w.m, w.n, w.k, w.alpha,
               w.trivial() ? "trivial" : "oracle", w.zipf_s, w.set_size,
               edges.size(), greedy.coverage, random_k);
  return std::fclose(f) == 0 ? 0 : 1;
}

// The answer-quality check of the oracle-mode workloads. Their Zipf sets are
// i.i.d., so every cover of s sets covers about as much as any other, and
// a coverage check cannot tell a correct report from arbitrary set ids. So
// the workload's ReportMaxCover configuration also runs on a PlantedCover
// instance of the same m, n and k drawn from the seed: k planted sets hold
// the optimum and the noise sets share a narrow window, so an arbitrary
// report covers a small fraction of what a correct one covers. Prints
// `covered planted_coverage random_coverage_median num_sets`, the last but
// one for random covers with as many sets as were reported.
int Quality(const Workload& w, uint64_t seed) {
  constexpr double kPlantedFraction = 1.0 / 32;  // OPT = n/32
  constexpr uint64_t kNoiseSetSize = 8;
  GeneratedInstance inst =
      PlantedCover(w.m, w.n, w.k, kPlantedFraction, kNoiseSetSize, seed);
  // PlantedCover gives the planted sets ids 0..k-1; relabel the sets by a
  // seeded permutation so that fixed ids cannot pass.
  std::vector<std::vector<ElementId>> lists(w.m);
  std::vector<SetId> relabel(w.m);
  std::iota(relabel.begin(), relabel.end(), 0);
  Rng rng(SplitMix64(seed ^ 0x1abe1));
  rng.Shuffle(relabel);
  for (SetId i = 0; i < w.m; ++i) lists[relabel[i]] = inst.system.set(i);
  const SetSystem system(w.n, std::move(lists));
  std::vector<Edge> edges = system.MaterializeEdges();
  ApplyArrivalOrder(edges, ArrivalOrder::kRandom, SplitMix64(seed ^ 0x5eed));
  VectorEdgeStream stream(std::move(edges));
  ReportMaxCover reporter(
      ReportMaxCover::Config{w.MakeParams(), kEstimatorSeed});
  FeedStream(stream, reporter);
  MaxCoverSolution sol = reporter.Finalize();
  std::vector<SetId> sets = sol.sets;
  std::sort(sets.begin(), sets.end());
  sets.erase(std::unique(sets.begin(), sets.end()), sets.end());
  for (SetId id : sets) {
    if (id >= w.m) return 1;
  }
  const uint64_t num = sets.size();
  std::printf("%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
              system.CoverageOf(sets), inst.planted_coverage,
              num ? RandomCoverageMedian(system, num, seed) : 0, num);
  return 0;
}

int Cover(const std::string& path, const std::string& sets_csv) {
  std::unordered_set<SetId> chosen;
  std::stringstream ss(sets_csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) chosen.insert(std::strtoull(tok.c_str(), nullptr, 10));
  }
  std::unordered_set<ElementId> covered;
  TextEdgeStream stream(path);
  std::vector<Edge> batch;
  while (stream.NextBatch(&batch, kBatchEdges) > 0) {
    for (const Edge& e : batch) {
      if (chosen.count(e.set)) covered.insert(e.element);
    }
  }
  if (!stream.ok()) return 1;
  std::printf("%zu\n", covered.size());
  return 0;
}

int Run(const Workload& w, const RunOptions& opt, const std::string& report) {
  const uint32_t nproc = Nproc();
  if (w.Threads() > nproc) {
    std::fprintf(stderr,
                 "workload %s needs %u threads (producers + shards + "
                 "readers) but nproc is %u; refusing to oversubscribe\n",
                 w.name, w.Threads(), nproc);
    return 3;
  }
  RunReport rep;
  rep.config["nproc"] = std::to_string(nproc);
  rep.config["threads"] = std::to_string(w.Threads());
  rep.config["hash_kernel"] = HashKernelName(ActiveHashKernel());
  rep.config["hash_kernel_source"] = HashKernelSource();
  Tracer tracer;
  Tracer* t = opt.trace ? &tracer : nullptr;
  std::string name = w.name;
  if (name == "oracle-inline") {
    RunOracleInline(w, opt, &rep, t);
  } else if (name == "trivial-parallel") {
    RunTrivialParallel(w, opt, &rep, t);
  } else {
    RunServeMixed(w, opt, &rep, t);
  }
  if (opt.trace) {
    MeasureLayerProbes(w, opt.edges_path, &rep);
    if (!tracer.WriteJson(opt.spans_path)) {
      std::fprintf(stderr, "cannot write %s\n", opt.spans_path.c_str());
      return 1;
    }
  }

  std::string j = "{\n";
  j += "\"workload\": " + JsonString(w.name) + ",\n";
  j += "\"config\": {";
  bool first = true;
  for (const auto& [k, v] : rep.config) {
    j += (first ? "" : ", ") + JsonString(k) + ": " + JsonString(v);
    first = false;
  }
  j += "},\n";
  j += "\"setup_s\": " + JsonList(rep.setup_s) + ",\n";
  j += "\"edges_per_s\": " + JsonList(rep.edges_per_s) + ",\n";
  j += "\"finalize_s\": " + JsonList(rep.finalize_s) + ",\n";
  j += "\"answer_age_ms\": " + JsonList(rep.answer_age_ms) + ",\n";
  j += "\"generator_lag_s\": " + JsonList(rep.generator_lag_s) + ",\n";
  j += "\"state_bytes\": " + JsonNumber(static_cast<double>(rep.state_bytes)) +
       ",\n";
  j += "\"peak_rss_mb\": " +
       JsonNumber(rep.peak_rss_mb > 0 ? rep.peak_rss_mb : PeakRssMb()) + ",\n";
  j += "\"answer\": {\"estimate\": " + JsonNumber(rep.answer.estimate) +
       ", \"source\": " + JsonString(rep.answer.source) + ", \"sets\": [";
  for (size_t i = 0; i < rep.answer.sets.size(); ++i) {
    j += (i ? ", " : "") + std::to_string(rep.answer.sets[i]);
  }
  j += "]},\n";
  j += "\"attempted\": " + std::to_string(rep.attempted) + ",\n";
  j += "\"failed\": " + std::to_string(rep.failed) + ",\n";
  j += "\"failures\": [";
  for (size_t i = 0; i < rep.failures.size(); ++i) {
    j += (i ? ", " : "") + JsonString(rep.failures[i]);
  }
  j += "],\n\"layers\": {";
  first = true;
  for (const auto& [k, v] : rep.layers) {
    j += std::string(first ? "\n" : ",\n") + JsonString(k) + ": " +
         JsonNumber(v);
    first = false;
  }
  j += "}\n}\n";
  std::FILE* f = std::fopen(report.c_str(), "w");
  if (f == nullptr || std::fputs(j.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", report.c_str());
    return 1;
  }
  for (const std::string& msg : rep.failures) {
    std::fprintf(stderr, "check failed: %s\n", msg.c_str());
  }
  return rep.failed == 0 ? 0 : 4;
}

int Usage() {
  std::fprintf(stderr,
               "usage: streamkc_perf gen|run|cover|quality --flag value ... "
               "(see the header of perfbench/perf_main.cc)\n");
  return 2;
}

}  // namespace
}  // namespace streamkc::perf

int main(int argc, char** argv) {
  using namespace streamkc::perf;
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  auto flag = [&flags](const char* k) {
    auto it = flags.find(k);
    return it == flags.end() ? std::string() : it->second;
  };
  if (cmd == "cover") {
    if (flag("edges").empty()) return Usage();
    return Cover(flag("edges"), flag("sets"));
  }
  const Workload* w = FindWorkload(flag("workload"));
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", flag("workload").c_str());
    return 2;
  }
  if (cmd == "quality") {
    if (flag("seed").empty()) return Usage();
    return Quality(*w, std::strtoull(flag("seed").c_str(), nullptr, 10));
  }
  if (cmd == "gen") {
    if (flag("seed").empty() || flag("out").empty() || flag("meta").empty()) {
      return Usage();
    }
    return Gen(*w, std::strtoull(flag("seed").c_str(), nullptr, 10),
               flag("out"), flag("meta"));
  }
  if (cmd == "run") {
    RunOptions opt;
    opt.edges_path = flag("edges");
    opt.expect_edges = std::strtoull(flag("expect-edges").c_str(), nullptr, 10);
    opt.seconds = std::atof(flag("seconds").c_str());
    opt.trace = flag("trace") == "1";
    opt.spans_path = flag("spans");
    if (opt.edges_path.empty() || flag("report").empty() || opt.seconds <= 0 ||
        (opt.trace && opt.spans_path.empty())) {
      return Usage();
    }
    return Run(*w, opt, flag("report"));
  }
  return Usage();
}
