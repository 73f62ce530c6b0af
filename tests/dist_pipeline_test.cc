// Differential battery for the multi-process reduction tree
// (src/dist/process_tree.h): the distributed run must be BIT-IDENTICAL —
// compared on the serialized final state, not an estimate tolerance — to
// the single-process inline pass, across worker counts, merge arities,
// injected worker deaths (with and without checkpoints), and transport
// corruption. Fault scenarios additionally pin the detection path: a
// corrupted frame dies on the CRC, a corrupted fingerprint loses the
// majority vote, and in both cases the offender is quarantined rather than
// folded into the estimate.

#include "dist/process_tree.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "runtime/reduction_tree.h"
#include "runtime/sketch_states.h"
#include "test_util.h"

namespace streamkc {
namespace {

constexpr size_t kEdges = 20000;
constexpr uint32_t kSegments = 16;

class DistDifferential : public ::testing::Test {
 protected:
  ScopedWorkerHarness MakeHarness(uint64_t seed) {
    return ScopedWorkerHarness(SyntheticEdges(kEdges, seed), kSegments);
  }
};

TEST_F(DistDifferential, MatchesInlineAcrossWorkersAndArity) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/1);
  ScopedWorkerHarness::Result inline_ref = harness.RunInline();
  for (uint32_t workers : {1u, 2u, 4u}) {
    for (uint32_t arity : {2u, 4u}) {
      DistOptions opt;
      opt.num_workers = workers;
      opt.merge_arity = arity;
      ScopedWorkerHarness::Result dist = harness.RunDist(opt);
      EXPECT_EQ(dist.state_blob, inline_ref.state_blob)
          << "workers=" << workers << " arity=" << arity;
      EXPECT_EQ(dist.fingerprint, inline_ref.fingerprint);
      EXPECT_EQ(dist.metrics.frames_received, workers);
      EXPECT_EQ(dist.metrics.Total(&WorkerCounters::edges_ingested), kEdges);
      EXPECT_EQ(dist.metrics.Total(&WorkerCounters::edges_processed), kEdges);
      EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::quarantined), 0u);
      EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::respawns), 0u);
      // The recorded tree depth matches the closed form the validator uses.
      EXPECT_EQ(dist.metrics.tree.depth, MergeTreeDepth(workers, arity));
      if (workers > 1) {
        EXPECT_GT(dist.metrics.tree.merges, 0u);
      }
    }
  }
}

TEST_F(DistDifferential, SegmentAssignmentPartitionsWithoutOverlap) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/2);
  DistOptions opt;
  opt.num_workers = 3;  // does not divide 16: uneven blocks
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  uint32_t assigned = 0;
  uint64_t done = 0;
  for (const DistWorkerRow& w : dist.metrics.workers) {
    assigned += w.segments_assigned;
    done += w.counters.segments_done;
  }
  EXPECT_EQ(assigned, kSegments);
  EXPECT_EQ(done, kSegments);
  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
}

TEST_F(DistDifferential, KilledWorkerRespawnsAndConvergesWithoutCheckpoint) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/3);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,kill-shard=1@2"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  // The respawn re-ingests worker 1's block from scratch and still lands on
  // the inline bytes.
  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
  EXPECT_EQ(dist.metrics.workers[1].respawns, 1u);
  EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::respawns), 1u);
  EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::quarantined), 0u);
  EXPECT_EQ(dist.metrics.Total(&WorkerCounters::edges_processed), kEdges);
}

TEST_F(DistDifferential, KilledWorkerResumesFromCheckpointAndConverges) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/4);
  // Worker 1 owns 4 segments (one ~1250-edge batch each); dying before its
  // third batch lands mid-block, past two per-segment checkpoints.
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,kill-shard=1@2"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.checkpoint_every = 1;
  opt.checkpoint_dir = harness.CheckpointDir();
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
  const DistWorkerRow& w1 = dist.metrics.workers[1];
  EXPECT_EQ(w1.respawns, 1u);
  EXPECT_FALSE(w1.quarantined);
  // The respawned incarnation actually loaded the checkpoint rather than
  // restarting from scratch.
  EXPECT_EQ(w1.counters.checkpoints_loaded, 1u);
  EXPECT_GE(w1.counters.checkpoints_written, 1u);
  // Committed-prefix semantics: every segment landed exactly once, so the
  // shipped counters still account for exactly the corpus.
  EXPECT_EQ(dist.metrics.Total(&WorkerCounters::edges_processed), kEdges);
}

TEST_F(DistDifferential, CheckpointedRunMatchesUncheckpointedByte) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/5);
  DistOptions plain;
  plain.num_workers = 2;
  ScopedWorkerHarness::Result without = harness.RunDist(plain);
  DistOptions ckpt = plain;
  ckpt.checkpoint_every = 2;
  ckpt.checkpoint_dir = harness.CheckpointDir();
  ScopedWorkerHarness::Result with = harness.RunDist(ckpt);
  EXPECT_EQ(with.state_blob, without.state_blob);
  EXPECT_GT(with.metrics.Total(&WorkerCounters::checkpoints_written), 0u);
  EXPECT_EQ(without.metrics.Total(&WorkerCounters::checkpoints_written), 0u);
}

TEST_F(DistDifferential, CorruptFrameIsRejectedByCrcAndQuarantined) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/6);
  MetricsRegistry registry;
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,corrupt-frame=2"),
                         &registry);
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  const DistWorkerRow& w2 = dist.metrics.workers[2];
  EXPECT_TRUE(w2.quarantined);
  EXPECT_EQ(w2.crc_rejections, 1u);
  EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::quarantined), 1u);
  EXPECT_EQ(dist.metrics.frames_received, 3u);
  EXPECT_EQ(registry
                .GetCounter(LabeledName("faults_injected_total", "kind",
                                        FaultInjector::kFaultFrameCorruption))
                ->Value(),
            1u);
  // Quarantined rows ship zero counters: what the totals claim is exactly
  // what the merged state contains (3 of 4 worker blocks).
  EXPECT_LT(dist.metrics.Total(&WorkerCounters::edges_processed), kEdges);
  EXPECT_EQ(w2.counters.edges_processed, 0u);
}

TEST_F(DistDifferential, CorruptMergeFingerprintLosesMajorityVote) {
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/7);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,corrupt-merge=0"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  const DistWorkerRow& w0 = dist.metrics.workers[0];
  EXPECT_TRUE(w0.quarantined);
  EXPECT_TRUE(w0.fingerprint_corrupted);
  EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::fingerprint_corrupted), 1u);
  EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::quarantined), 1u);
  // The surviving majority still merges to a valid state whose fingerprint
  // matches the inline configuration.
  EXPECT_EQ(dist.fingerprint, harness.RunInline().fingerprint);
}

TEST_F(DistDifferential, StrictModeExitsAfterTheReductionOnQuarantine) {
  // DegradationPolicy::strict is the one strict switch for every engine:
  // a quarantined worker turns the dist run into exit(1), decided only
  // after every worker has been reaped and the survivors reduced.
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/8);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=7,corrupt-frame=1"));
  DistOptions opt;
  opt.num_workers = 2;
  opt.fault_injector = &injector;
  opt.degradation.strict = true;
  EXPECT_EXIT(harness.RunDist(opt), ::testing::ExitedWithCode(1),
              "strict: 1/2 workers quarantined");
  // A clean strict run is not degraded and completes normally.
  opt.fault_injector = nullptr;
  EXPECT_EQ(harness.RunDist(opt).state_blob, harness.RunInline().state_blob);
}

TEST_F(DistDifferential, StreamFaultsInsideWorkersStayDeterministic) {
  // Duplicates injected inside the worker processes: two distributed runs
  // with the same plan must agree byte-for-byte (seed-replayability across
  // process boundaries), even though they cannot match the clean inline
  // pass.
  ScopedWorkerHarness harness = MakeHarness(/*seed=*/8);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=11,dup=0.05"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result first = harness.RunDist(opt);
  ScopedWorkerHarness::Result second = harness.RunDist(opt);
  EXPECT_EQ(first.state_blob, second.state_blob);
  EXPECT_GT(first.metrics.Total(&WorkerCounters::edges_processed),
            kEdges);  // dups landed
  EXPECT_EQ(first.metrics.Total(&WorkerCounters::edges_processed),
            second.metrics.Total(&WorkerCounters::edges_processed));
}

TEST_F(DistDifferential, RetriedReadErrorsLeaveTheMergedBytesUnchanged) {
  // Transient read errors inside the workers retry under the degradation
  // backoff: timing-only, so no segment is cut short and the merged bytes
  // equal the clean inline pass.
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/9),
                              /*num_segments=*/8);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=13,read-error=0.01"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  EXPECT_EQ(dist.state_blob, harness.RunInline().state_blob);
  EXPECT_GT(dist.metrics.Total(&WorkerCounters::stream_retries), 0u);
  uint64_t truncated = 0;
  for (const DistWorkerRow& w : dist.metrics.workers) {
    truncated += w.counters.truncated_segments;
  }
  EXPECT_EQ(truncated, 0u);
  EXPECT_EQ(dist.metrics.Total(&WorkerCounters::edges_processed), kEdges);
  EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::quarantined), 0u);
}

TEST_F(DistDifferential, ExhaustedReadRetriesTruncateSegmentsWithoutQuarantine) {
  // Every read fails: each segment spends its retry budget and is
  // truncated empty. Truncation is a degradation the worker reports in its
  // counters, not a failure, so every worker still ships a frame.
  ScopedWorkerHarness harness(SyntheticEdges(kEdges, /*seed=*/10),
                              /*num_segments=*/8);
  FaultInjector injector(FaultPlan::ParseOrDie("seed=13,read-error=1"));
  DistOptions opt;
  opt.num_workers = 4;
  opt.degradation.max_stream_retries = 2;
  opt.fault_injector = &injector;
  ScopedWorkerHarness::Result dist = harness.RunDist(opt);
  uint64_t truncated = 0;
  for (const DistWorkerRow& w : dist.metrics.workers) {
    truncated += w.counters.truncated_segments;
  }
  EXPECT_EQ(truncated, 8u);
  EXPECT_EQ(dist.metrics.Total(&WorkerCounters::stream_retries), 8u * 2u);
  EXPECT_EQ(dist.metrics.Total(&WorkerCounters::edges_processed), 0u);
  EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::quarantined), 0u);
  EXPECT_EQ(dist.metrics.frames_received, 4u);
}

// Seed-replayable sweep over kill points and corruption targets; the
// default 4 trials keep tier-1 fast, the stress entry turns the same code
// up to 40 (STREAMKC_DIST_TRIALS).
TEST_F(DistDifferential, SeededFaultSweep) {
  const uint64_t trials = EnvScaledU64("STREAMKC_DIST_TRIALS", 4);
  for (uint64_t t = 0; t < trials; ++t) {
    ScopedWorkerHarness harness = MakeHarness(/*seed=*/100 + t);
    ScopedWorkerHarness::Result inline_ref = harness.RunInline();
    FaultPlan plan;
    plan.seed = t + 1;
    plan.kill_shard = static_cast<uint32_t>(t % 4);
    plan.kill_after_batches = t % 3;
    FaultInjector injector(plan);
    DistOptions opt;
    opt.num_workers = 4;
    opt.merge_arity = t % 2 == 0 ? 2 : 4;
    opt.fault_injector = &injector;
    if (t % 2 == 0) {
      opt.checkpoint_every = 1;
      opt.checkpoint_dir = harness.CheckpointDir();
    }
    ScopedWorkerHarness::Result dist = harness.RunDist(opt);
    EXPECT_EQ(dist.state_blob, inline_ref.state_blob)
        << "trial=" << t << " plan=" << plan.ToSpec();
    EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::respawns), 1u)
        << "trial=" << t;
    EXPECT_EQ(dist.metrics.Total(&DistWorkerRow::quarantined), 0u)
        << "trial=" << t;
  }
}

TEST(DistReductionTree, TreeMergeMatchesFlatFoldAndReportsShape) {
  CoverageSketchState::Config config;
  auto make_states = [&] {
    std::vector<std::unique_ptr<CoverageSketchState>> states;
    for (uint32_t i = 0; i < 9; ++i) {
      auto s = std::make_unique<CoverageSketchState>(config);
      for (const Edge& e : SyntheticEdges(500, /*seed=*/i)) s->Process(e);
      states.push_back(std::move(s));
    }
    return states;
  };
  auto flat = make_states();
  for (size_t i = 1; i < flat.size(); ++i) flat[0]->Merge(*flat[i]);
  std::ostringstream flat_blob;
  flat[0]->Save(flat_blob);

  for (uint32_t arity : {2u, 3u, 4u, 9u}) {
    auto states = make_states();
    MergeTreeStats stats;
    size_t root = TreeMerge(&states, arity, &stats);
    ASSERT_EQ(root, 0u);
    std::ostringstream blob;
    states[root]->Save(blob);
    EXPECT_EQ(blob.str(), flat_blob.str()) << "arity=" << arity;
    EXPECT_EQ(stats.depth, MergeTreeDepth(9, arity)) << "arity=" << arity;
    EXPECT_EQ(stats.merges, 8u) << "arity=" << arity;  // always N-1 merges
  }
}

TEST(DistReductionTree, SkipsQuarantinedSlotsAndHandlesAllNull) {
  CoverageSketchState::Config config;
  std::vector<std::unique_ptr<CoverageSketchState>> states;
  for (uint32_t i = 0; i < 4; ++i) {
    states.push_back(i == 1 ? nullptr
                            : std::make_unique<CoverageSketchState>(config));
  }
  MergeTreeStats stats;
  EXPECT_EQ(TreeMerge(&states, 2, &stats), 0u);
  EXPECT_EQ(stats.merges, 2u);  // three survivors -> two merges

  std::vector<std::unique_ptr<CoverageSketchState>> empty(3);
  EXPECT_EQ(TreeMerge(&empty, 2, nullptr), SIZE_MAX);
}


// Pins the "dist" section and its gauges byte for byte: every counter of
// both worker rows holds a distinct value.
TEST(DistMetrics, GoldenJsonAndGauges) {
  DistMetrics d;
  d.num_workers = 2;
  d.merge_arity = 3;
  d.num_segments = 4;
  d.frames_received = 5;
  d.wall_ns = 6;
  d.transport = "tcp";
  d.poll_wakeups = 7;
  d.connections_accepted = 8;
  d.socket_drops = 9;
  d.tree.depth = 10;
  d.tree.merges = 11;
  d.tree.merge_ns = 12;
  d.workers.resize(2);
  for (uint32_t w = 0; w < 2; ++w) {
    DistWorkerRow& r = d.workers[w];
    r.worker = w;
    uint64_t v = 100 * (w + 1);
    WorkerCounters& c = r.counters;
    for (uint64_t* f :
         {&c.edges_ingested, &c.edges_processed, &c.edges_discarded,
          &c.batches, &c.stream_retries, &c.truncated_segments,
          &c.segments_done, &c.checkpoints_written, &c.checkpoints_loaded,
          &c.checkpoints_rejected, &c.connect_retries}) {
      *f = ++v;
    }
    r.segments_assigned = static_cast<uint32_t>(++v);
    r.bytes_shipped = ++v;
    r.respawns = static_cast<uint32_t>(++v);
    r.crc_rejections = static_cast<uint32_t>(++v);
    r.quarantined = w == 1;
    r.fingerprint_corrupted = w == 0;
  }
  EXPECT_EQ(d.ToJson(),
      "{\n"
      "    \"num_workers\": 2,\n"
      "    \"merge_arity\": 3,\n"
      "    \"num_segments\": 4,\n"
      "    \"transport\": \"tcp\",\n"
      "    \"poll_wakeups\": 7,\n"
      "    \"connections_accepted\": 8,\n"
      "    \"socket_drops\": 9,\n"
      "    \"edges_ingested\": 302,\n"
      "    \"edges_processed\": 304,\n"
      "    \"edges_discarded\": 306,\n"
      "    \"stream_retries\": 310,\n"
      "    \"bytes_shipped\": 326,\n"
      "    \"frames_received\": 5,\n"
      "    \"crc_rejections\": 330,\n"
      "    \"fingerprint_corruptions_detected\": 1,\n"
      "    \"workers_respawned\": 328,\n"
      "    \"workers_quarantined\": 1,\n"
      "    \"checkpoints_written\": 316,\n"
      "    \"checkpoints_loaded\": 318,\n"
      "    \"checkpoints_rejected\": 320,\n"
      "    \"connect_retries\": 322,\n"
      "    \"merge_depth\": 10,\n"
      "    \"merges\": 11,\n"
      "    \"merge_ns\": 12,\n"
      "    \"wall_ns\": 6,\n"
      "    \"edges_per_second\": 50666666667,\n"
      "    \"workers\": [\n"
      "      {\"worker\": 0, \"edges_ingested\": 101, "
      "\"edges_processed\": 102, \"edges_discarded\": 103, \"batches\": 104, "
      "\"stream_retries\": 105, \"truncated_segments\": 106, "
      "\"segments_assigned\": 112, \"segments_done\": 107, "
      "\"checkpoints_written\": 108, \"checkpoints_loaded\": 109, "
      "\"checkpoints_rejected\": 110, \"connect_retries\": 111, "
      "\"bytes_shipped\": 113, \"respawns\": 114, \"crc_rejections\": 115, "
      "\"quarantined\": 0, \"fingerprint_corrupted\": 1},\n"
      "      {\"worker\": 1, \"edges_ingested\": 201, "
      "\"edges_processed\": 202, \"edges_discarded\": 203, \"batches\": 204, "
      "\"stream_retries\": 205, \"truncated_segments\": 206, "
      "\"segments_assigned\": 212, \"segments_done\": 207, "
      "\"checkpoints_written\": 208, \"checkpoints_loaded\": 209, "
      "\"checkpoints_rejected\": 210, \"connect_retries\": 211, "
      "\"bytes_shipped\": 213, \"respawns\": 214, \"crc_rejections\": 215, "
      "\"quarantined\": 1, \"fingerprint_corrupted\": 0}\n"
      "    ]\n"
      "  }");

  MetricsRegistry reg;
  d.PublishTo(&reg);
  std::vector<std::pair<std::string, uint64_t>> gauges;
  for (const MetricSample& s : reg.Snapshot()) {
    EXPECT_EQ(s.kind, MetricKind::kGauge) << s.name;
    gauges.emplace_back(s.name, s.value);
  }
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"dist_bytes_shipped_total", 326},
      {"dist_checkpoints_loaded_total", 318},
      {"dist_checkpoints_rejected_total", 320},
      {"dist_checkpoints_written_total", 316},
      {"dist_connect_retries_total", 322},
      {"dist_connections_accepted_total", 8},
      {"dist_crc_rejections_total", 330},
      {"dist_edges_discarded_total", 306},
      {"dist_edges_ingested_total", 302},
      {"dist_edges_processed_total", 304},
      {"dist_fingerprint_corruptions_detected", 1},
      {"dist_frames_received_total", 5},
      {"dist_merge_arity", 3},
      {"dist_merge_depth", 10},
      {"dist_merge_ns", 12},
      {"dist_merges_total", 11},
      {"dist_num_segments", 4},
      {"dist_num_workers", 2},
      {"dist_poll_wakeups_total", 7},
      {"dist_socket_drops_total", 9},
      {"dist_stream_retries_total", 310},
      {"dist_wall_ns", 6},
      {"dist_worker_bytes_shipped_total{worker=\"0\"}", 113},
      {"dist_worker_bytes_shipped_total{worker=\"1\"}", 213},
      {"dist_worker_checkpoints_written_total{worker=\"0\"}", 108},
      {"dist_worker_checkpoints_written_total{worker=\"1\"}", 208},
      {"dist_worker_edges_total{worker=\"0\"}", 102},
      {"dist_worker_edges_total{worker=\"1\"}", 202},
      {"dist_worker_quarantined{worker=\"0\"}", 0},
      {"dist_worker_quarantined{worker=\"1\"}", 1},
      {"dist_worker_respawns_total{worker=\"0\"}", 114},
      {"dist_worker_respawns_total{worker=\"1\"}", 214},
      {"dist_workers_quarantined", 1},
      {"dist_workers_respawned_total", 328},

  };
  EXPECT_EQ(gauges, want);
}

}  // namespace
}  // namespace streamkc
