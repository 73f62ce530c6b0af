// Per-layer probes of a traced run. The estimator's subroutines, sketches
// and hash kernel run inside ReportMaxCover::ProcessBatch, where the
// benchmark cannot place spans without instrumenting src/. So the traced
// run also drives them directly through their public entry points, fed the
// workload's own edges:
//
//   core.large_common_s / large_set_s / small_set_s — standalone replicas
//     of every (guess, repetition) level's oracle subroutines, seeded and
//     configured exactly as EstimateMaxCover and Oracle configure them, fed
//     the same prefolded batches (through each level's universe reduction)
//     the estimator sees; the three sum to the oracle share of
//     core.ingest_s. The run fails if the replicas stop matching the
//     estimator's oracle count and footprint;
//   sketch.*_ns_per_item — the folded entry points of the four sketches,
//     configured as LargeSet's Case-1 contributing sketch configures them;
//   hash.map_folded_ns_per_key — KWiseHash::MapFoldedBatch at the
//     estimator's hash degree, through the dispatched kernel.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common.h"
#include "core/large_common.h"
#include "core/large_set.h"
#include "core/report_max_cover.h"
#include "core/small_set.h"
#include "core/universe_reduction.h"
#include "hash/kernel_dispatch.h"
#include "hash/kwise_hash.h"
#include "hash/mersenne.h"
#include "obs/space_accountant.h"
#include "runtime/edge_batch.h"
#include "sketch/count_sketch.h"
#include "sketch/f2_contributing.h"
#include "sketch/f2_heavy_hitters.h"
#include "sketch/l0_estimator.h"
#include "stream/text_stream.h"
#include "util/math_util.h"
#include "util/random.h"

namespace streamkc::perf {

namespace {

constexpr size_t kProbeItems = 1 << 17;
constexpr uint64_t kProbeMinNs = 40'000'000;

// Calls feed() over the probe items until kProbeMinNs has passed; returns
// nanoseconds per item.
template <typename Feed>
double NsPerItem(size_t items, Feed feed) {
  uint64_t t0 = NowNs();
  uint64_t done = 0;
  do {
    feed();
    done += items;
  } while (NowNs() - t0 < kProbeMinNs);
  return static_cast<double>(NowNs() - t0) / static_cast<double>(done);
}

// Oracle's choice of superset capacity (Figure 2).
double SupersetCapacity(const Params& p) {
  return p.s * p.alpha >= 2.0 * static_cast<double>(p.k)
             ? static_cast<double>(p.k)
             : p.alpha;
}

// Standalone twins of one (guess, repetition) level of EstimateMaxCover:
// its universe reduction and its oracle's three subroutines.
struct LevelReplica {
  UniverseReduction reduction;
  std::unique_ptr<LargeCommon> large_common;
  std::unique_ptr<LargeSet> large_set;
  std::unique_ptr<SmallSet> small_set;  // null when sα ≥ 2k, as in Oracle
};

// Builds the replicas with EstimateMaxCover's guess grid and seed forks and
// Oracle's per-subroutine configuration and seed forks.
std::vector<LevelReplica> BuildReplicas(const Params& p) {
  Rng rng(SplitMix64(kEstimatorSeed ^ 0xeeee));  // ReportMaxCover's fork
  std::vector<uint32_t> levels;
  const uint32_t max_level = CeilLog2(p.n);
  const auto step =
      static_cast<int32_t>(std::max<uint32_t>(1, p.universe_guess_log_step));
  for (auto i = static_cast<int32_t>(max_level); i >= 0; i -= step) {
    uint64_t z = 1ULL << i;
    if (z < p.min_universe_guess && z < p.n) break;
    levels.push_back(static_cast<uint32_t>(i));
  }
  const bool few_sets_dominate =
      p.s * p.alpha >= 2.0 * static_cast<double>(p.k);
  std::vector<LevelReplica> out;
  for (uint32_t i : levels) {
    const uint64_t z = 1ULL << i;
    for (uint32_t rep = 0; rep < p.universe_reduction_reps; ++rep) {
      const uint64_t oracle_seed = rng.Fork();
      LevelReplica r{UniverseReduction(z, rng.Fork()), nullptr, nullptr,
                     nullptr};
      Rng oracle_rng(oracle_seed);
      LargeCommon::Config lc;
      lc.params = p;
      lc.universe_size = z;
      lc.reporting = true;
      lc.seed = oracle_rng.Fork();
      r.large_common = std::make_unique<LargeCommon>(lc);
      LargeSet::Config ls;
      ls.params = p;
      ls.universe_size = z;
      ls.w = SupersetCapacity(p);
      ls.reporting = true;
      ls.seed = oracle_rng.Fork();
      r.large_set = std::make_unique<LargeSet>(ls);
      if (!few_sets_dominate) {
        SmallSet::Config ss;
        ss.params = p;
        ss.universe_size = z;
        ss.reporting = true;
        ss.seed = oracle_rng.Fork();
        r.small_set = std::make_unique<SmallSet>(ss);
      }
      out.push_back(std::move(r));
    }
  }
  return out;
}

// Feeds every level replica the file's prefolded batches, remapped through
// the level's universe reduction exactly as EstimateMaxCover::ProcessBatch
// does, and times each subroutine's ProcessBatch. A real ReportMaxCover is
// fed the same batches (untimed); the run fails unless the replicas match
// its oracle count and, byte for byte, its oracles' footprint, so the
// probes cannot silently time a configuration the estimator has left.
void OracleReplicas(const Workload& w, const std::string& path,
                    RunReport* rep) {
  std::vector<LevelReplica> replicas = BuildReplicas(w.MakeParams());
  ReportMaxCover reporter(
      ReportMaxCover::Config{w.MakeParams(), kEstimatorSeed});
  uint64_t lc_ns = 0, ls_ns = 0, ss_ns = 0;
  TextEdgeStream stream(path);
  EdgeBatch batch(kBatchEdges);
  constexpr size_t kTile = 128;
  Edge mapped[kTile];
  uint64_t mapped_folded[kTile];
  while (stream.NextBatch(&batch.edges, kBatchEdges) > 0) {
    batch.Prefold();
    reporter.ProcessBatch(batch.View());
    for (LevelReplica& r : replicas) {
      for (size_t i = 0; i < batch.size(); i += kTile) {
        size_t n = std::min(kTile, batch.size() - i);
        r.reduction.MapFoldedBatch(batch.element_folded.data() + i,
                                   mapped_folded, n);
        for (size_t j = 0; j < n; ++j) {
          mapped[j] = Edge{batch.edges[i + j].set, mapped_folded[j]};
          mapped_folded[j] = MersenneFold(mapped_folded[j]);
        }
        PrefoldedEdges view{mapped, batch.set_folded.data() + i,
                            mapped_folded, n};
        uint64_t t0 = NowNs();
        r.large_common->ProcessBatch(view);
        uint64_t t1 = NowNs();
        r.large_set->ProcessBatch(view);
        uint64_t t2 = NowNs();
        if (r.small_set) r.small_set->ProcessBatch(view);
        uint64_t t3 = NowNs();
        lc_ns += t1 - t0;
        ls_ns += t2 - t1;
        ss_ns += t3 - t2;
      }
    }
  }
  SpaceAccountant space;
  space.Sample(reporter);
  const auto& rows = space.components();
  uint64_t oracles = 0, oracle_bytes = 0, replica_bytes = 0;
  if (auto it = rows.find("estimate_max_cover"); it != rows.end()) {
    oracles = it->second.items;
  }
  if (auto it = rows.find("oracle"); it != rows.end()) {
    oracle_bytes = it->second.current_bytes;
  }
  for (const LevelReplica& r : replicas) {
    replica_bytes += r.large_common->MemoryBytes() +
                     r.large_set->MemoryBytes() +
                     (r.small_set ? r.small_set->MemoryBytes() : 0);
  }
  rep->Check(replicas.size() == oracles,
             "probe replicas: " + std::to_string(replicas.size()) +
                 " levels, the estimator has " + std::to_string(oracles));
  rep->Check(replica_bytes == oracle_bytes,
             "probe replicas hold " + std::to_string(replica_bytes) +
                 " bytes, the estimator's oracles " +
                 std::to_string(oracle_bytes));
  rep->layers["core.large_common_s"] = static_cast<double>(lc_ns) * 1e-9;
  rep->layers["core.large_set_s"] = static_cast<double>(ls_ns) * 1e-9;
  rep->layers["core.small_set_s"] = static_cast<double>(ss_ns) * 1e-9;
  rep->config["replica_levels"] = std::to_string(replicas.size());
}

}  // namespace

void MeasureLayerProbes(const Workload& w, const std::string& path,
                        RunReport* rep) {
  if (!w.trivial()) OracleReplicas(w, path, rep);

  std::vector<uint64_t> set_ids, set_folded, element_folded;
  {
    TextEdgeStream stream(path);
    std::vector<Edge> edges;
    while (set_ids.size() < kProbeItems &&
           stream.NextBatch(&edges, kBatchEdges) > 0) {
      for (const Edge& e : edges) {
        set_ids.push_back(e.set);
        set_folded.push_back(MersenneFold(e.set));
        element_folded.push_back(MersenneFold(e.element));
      }
    }
  }
  const size_t items = set_ids.size();
  if (items == 0) return;

  const Params p = w.MakeParams();
  // LargeSet's Case-1 contributing sketch: φ1 = α²/m over Q supersets.
  const double phi = std::min(
      1.0, p.phi1_factor * p.alpha * p.alpha / static_cast<double>(p.m));
  const auto supersets = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             p.c_hash * static_cast<double>(p.m) *
             Log2AtLeast1(static_cast<double>(p.m)) /
             std::max(SupersetCapacity(p), 1.0))));

  F2HeavyHitters::Config hh_cfg;
  hh_cfg.phi = phi;
  hh_cfg.seed = 11;
  CountSketch::Config cs_cfg;
  cs_cfg.depth = hh_cfg.depth;
  cs_cfg.width = static_cast<uint32_t>(
      std::min<double>(hh_cfg.max_width, std::ceil(hh_cfg.width_factor / phi)));
  cs_cfg.seed = 12;
  F2Contributing::Config fc_cfg;
  fc_cfg.gamma = phi;
  fc_cfg.phi_factor = 1.0;
  fc_cfg.max_class_size =
      static_cast<uint64_t>(std::ceil(3.0 * p.s * p.alpha)) + 1;
  fc_cfg.domain_size = std::max<uint64_t>(2, supersets);
  fc_cfg.sample_factor = p.contributing_sample_factor;
  fc_cfg.seed = 13;

  CountSketch count_sketch(cs_cfg);
  rep->layers["sketch.count_sketch_ns_per_item"] = NsPerItem(items, [&] {
    for (size_t i = 0; i < items; i += kBatchEdges) {
      count_sketch.AddFoldedBatch(set_folded.data() + i,
                                  std::min(kBatchEdges, items - i));
    }
  });
  F2HeavyHitters heavy_hitters(hh_cfg);
  rep->layers["sketch.f2hh_ns_per_item"] = NsPerItem(items, [&] {
    for (size_t i = 0; i < items; ++i) {
      heavy_hitters.AddFolded(set_ids[i], set_folded[i]);
    }
  });
  F2Contributing contributing(fc_cfg);
  rep->layers["sketch.f2_contributing_ns_per_item"] = NsPerItem(items, [&] {
    for (size_t i = 0; i < items; ++i) {
      contributing.AddFolded(set_ids[i], set_folded[i]);
    }
  });
  L0Estimator l0(L0Estimator::Config{.num_mins = p.l0_num_mins, .seed = 14});
  rep->layers["sketch.l0_ns_per_item"] = NsPerItem(items, [&] {
    for (size_t i = 0; i < items; i += kBatchEdges) {
      l0.AddFoldedBatch(element_folded.data() + i,
                        std::min(kBatchEdges, items - i));
    }
  });

  KWiseHash hash(p.log_wise_degree, 15);
  std::vector<uint64_t> out(kBatchEdges);
  rep->layers["hash.map_folded_ns_per_key"] = NsPerItem(items, [&] {
    for (size_t i = 0; i < items; i += kBatchEdges) {
      hash.MapFoldedBatch(element_folded.data() + i, out.data(),
                          std::min(kBatchEdges, items - i));
    }
  });
  rep->config["hash_probe_degree"] = std::to_string(p.log_wise_degree);
}

}  // namespace streamkc::perf
