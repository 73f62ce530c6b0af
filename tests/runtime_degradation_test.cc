// runtime/degradation.h: the stream drain, the retry backoff and the
// fingerprint vote every ingest engine shares. Sleeps here are nanoseconds, observed exactly
// through the backoff histogram, which records each sleep before it
// happens.

#include "runtime/degradation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.h"
#include "stream/edge_stream.h"

namespace streamkc {
namespace {

DegradationPolicy Policy(uint32_t retries, uint64_t first_ns,
                         uint64_t max_ns) {
  DegradationPolicy policy;
  policy.max_stream_retries = retries;
  policy.initial_backoff_ns = first_ns;
  policy.max_backoff_ns = max_ns;
  return policy;
}

TEST(RetryBackoff, DoublesAndSaturatesAtTheCap) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("backoff_ns");
  RetryBackoff backoff(Policy(100, 1, 1024), h);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(backoff.Retry());
  EXPECT_EQ(h->Count(), 100u);
  // 1, 2, ..., 512 (sum 1023), then 90 sleeps pinned at the cap.
  EXPECT_EQ(h->Sum(), 1023u + 90u * 1024u);
}

TEST(RetryBackoff, FirstSleepLargerThanTheCapIsClamped) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("backoff_ns");
  RetryBackoff backoff(Policy(3, 5000, 100), h);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(backoff.Retry());
  EXPECT_EQ(h->Sum(), 3u * 100u);
  EXPECT_EQ(h->BucketCount(Histogram::BucketIndex(100)), 3u);
}

TEST(RetryBackoff, BudgetIsSpentThenResetByASuccessfulRead) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("backoff_ns");
  RetryBackoff backoff(Policy(3, 2, 1000), h);
  EXPECT_TRUE(backoff.Retry());
  EXPECT_TRUE(backoff.Retry());
  EXPECT_TRUE(backoff.Retry());
  EXPECT_EQ(backoff.retries(), 3u);
  // Exhausted: no sleep, nothing observed.
  EXPECT_FALSE(backoff.Retry());
  EXPECT_EQ(h->Count(), 3u);
  EXPECT_EQ(h->Sum(), 2u + 4u + 8u);

  backoff.Reset();
  EXPECT_EQ(backoff.retries(), 0u);
  // A fresh budget, and the sleep starts over from the first backoff.
  EXPECT_TRUE(backoff.Retry());
  EXPECT_EQ(h->Sum(), 2u + 4u + 8u + 2u);
}

TEST(RetryBackoff, ZeroBudgetNeverSleeps) {
  RetryBackoff backoff(Policy(0, 1, 1));
  EXPECT_FALSE(backoff.Retry());
  EXPECT_EQ(backoff.retries(), 0u);
}

TEST(VoteFingerprints, AllAgreeLeavesNoMinority) {
  const FingerprintVote vote = VoteFingerprints({7, 7, 7, 7}, {1, 1, 1, 1});
  EXPECT_EQ(vote.majority, 7u);
  EXPECT_TRUE(vote.minority.empty());
}

TEST(VoteFingerprints, MajorityBeatsACorruptLowIndex) {
  // Voting (not trusting index 0) is what survives a corrupt root.
  const FingerprintVote vote = VoteFingerprints({9, 7, 7, 7}, {1, 1, 1, 1});
  EXPECT_EQ(vote.majority, 7u);
  EXPECT_EQ(vote.minority, (std::vector<uint32_t>{0}));
}

TEST(VoteFingerprints, TieGoesToTheLowestVotingIndex) {
  FingerprintVote vote = VoteFingerprints({5, 6, 6, 5}, {1, 1, 1, 1});
  EXPECT_EQ(vote.majority, 5u);
  EXPECT_EQ(vote.minority, (std::vector<uint32_t>{1, 2}));
  // Index 0 does not vote, so the lowest VOTING index (1) wins the tie.
  vote = VoteFingerprints({5, 6, 5, 6}, {0, 1, 1, 1});
  EXPECT_EQ(vote.majority, 6u);
  EXPECT_EQ(vote.minority, (std::vector<uint32_t>{2}));
  // All distinct: every voter ties at one vote.
  vote = VoteFingerprints({1, 2, 3}, {1, 1, 1});
  EXPECT_EQ(vote.majority, 1u);
  EXPECT_EQ(vote.minority, (std::vector<uint32_t>{1, 2}));
}

TEST(VoteFingerprints, NonVotersAreNeverJudged) {
  const FingerprintVote vote =
      VoteFingerprints({1, 2, 2, 3}, {0, 1, 1, 0});
  EXPECT_EQ(vote.majority, 2u);
  EXPECT_TRUE(vote.minority.empty());
}

TEST(VoteFingerprints, NoVotersNoMinority) {
  EXPECT_TRUE(VoteFingerprints({1, 2}, {0, 0}).minority.empty());
  EXPECT_TRUE(VoteFingerprints({}, {}).minority.empty());
}

// Yields edges {i, i} for i < n, in order. Every Next() call is one read;
// read `call` fails when fail(call, edges_read) says so — transiently, or
// for good when `hard` (a hard error sticks, like a parse error).
class FlakyStream : public EdgeStream {
 public:
  FlakyStream(uint64_t n, std::function<bool(uint64_t, uint64_t)> fail,
              bool hard = false)
      : n_(n), fail_(std::move(fail)), hard_(hard) {}

  bool Next(Edge* edge) override {
    if (failed_ && hard_) return false;
    failed_ = fail_(calls_++, pos_);
    if (failed_ || pos_ >= n_) return false;
    *edge = Edge{pos_, pos_};
    ++pos_;
    return true;
  }
  void Reset() override {}
  bool ok() const override { return !failed_; }
  bool transient() const override { return failed_ && !hard_; }
  uint64_t calls() const { return calls_; }

 private:
  uint64_t n_;
  std::function<bool(uint64_t, uint64_t)> fail_;
  bool hard_;
  uint64_t pos_ = 0;
  uint64_t calls_ = 0;
  bool failed_ = false;
};

// Drains `stream` and returns the sizes of the delivered batches; every
// delivered edge must be the next one in stream order.
std::vector<size_t> DrainSizes(EdgeStream& stream, size_t batch_size,
                               RetryBackoff& backoff, DrainResult* result) {
  std::vector<size_t> sizes;
  uint64_t next = 0;
  EdgeBatch batch;
  *result = DrainStream(stream, batch_size, backoff, &batch,
                        [&](EdgeBatch& b) {
                          sizes.push_back(b.size());
                          for (const Edge& e : b.edges) {
                            EXPECT_EQ(e.set, next++);
                          }
                        });
  return sizes;
}

TEST(DrainStream, FillsEveryBatchToSizeAcrossRetries) {
  // Every third read fails: batch boundaries must not move to where the
  // errors fall.
  FlakyStream stream(23, [](uint64_t call, uint64_t) { return call % 3 == 1; });
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("backoff_ns");
  RetryBackoff backoff(Policy(1, 1, 1), h);
  DrainResult result;
  EXPECT_EQ(DrainSizes(stream, 5, backoff, &result),
            (std::vector<size_t>{5, 5, 5, 5, 3}));
  EXPECT_EQ(result.end, DrainEnd::kEnd);
  EXPECT_TRUE(stream.ok());
  // Each failure was retried once and followed by a good read.
  EXPECT_EQ(result.retries, (stream.calls() + 1) / 3);
  EXPECT_EQ(h->Count(), result.retries);
}

// A healthy source that hands out at most `chunk` edges per NextBatch call.
class ChunkedStream : public VectorEdgeStream {
 public:
  ChunkedStream(uint64_t n, size_t chunk)
      : VectorEdgeStream(Edges(n)), chunk_(chunk) {}
  size_t NextBatch(std::vector<Edge>* out, size_t max_edges) override {
    return VectorEdgeStream::NextBatch(out, std::min(max_edges, chunk_));
  }

 private:
  static std::vector<Edge> Edges(uint64_t n) {
    std::vector<Edge> edges;
    for (uint64_t i = 0; i < n; ++i) edges.push_back(Edge{i, i});
    return edges;
  }
  size_t chunk_;
};

TEST(DrainStream, HealthyShortReadsGoOutAtOnce) {
  // A paced or chunked source: edges reach the sink as soon as they are
  // read, not when a full batch has accumulated.
  ChunkedStream stream(10, 3);
  RetryBackoff backoff(Policy(1, 1, 1));
  DrainResult result;
  EXPECT_EQ(DrainSizes(stream, 8, backoff, &result),
            (std::vector<size_t>{3, 3, 3, 1}));
  EXPECT_EQ(result.end, DrainEnd::kEnd);
  EXPECT_EQ(result.retries, 0u);
}

TEST(DrainStream, ExhaustedBudgetDeliversThePartialBatchThenTruncates) {
  // Six good reads, then every read fails.
  FlakyStream stream(10, [](uint64_t, uint64_t read) { return read >= 6; });
  RetryBackoff backoff(Policy(3, 1, 1));
  DrainResult result;
  EXPECT_EQ(DrainSizes(stream, 4, backoff, &result),
            (std::vector<size_t>{4, 2}));
  EXPECT_EQ(result.end, DrainEnd::kTruncated);
  EXPECT_EQ(result.retries, 3u);
  EXPECT_EQ(stream.calls(), 6u + 1u + 3u);  // the first failure + 3 retries
  // The error stays raised for the caller to report.
  EXPECT_FALSE(stream.ok());
  EXPECT_TRUE(stream.transient());
}

TEST(DrainStream, HardErrorStopsWithoutARetry) {
  FlakyStream stream(10, [](uint64_t, uint64_t read) { return read >= 6; },
                     /*hard=*/true);
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("backoff_ns");
  RetryBackoff backoff(Policy(5, 1, 1), h);
  DrainResult result;
  EXPECT_EQ(DrainSizes(stream, 4, backoff, &result),
            (std::vector<size_t>{4, 2}));
  EXPECT_EQ(result.end, DrainEnd::kError);
  EXPECT_EQ(result.retries, 0u);
  EXPECT_EQ(h->Count(), 0u);
  EXPECT_EQ(stream.calls(), 7u);
  EXPECT_FALSE(stream.ok());
  EXPECT_FALSE(stream.transient());
}

TEST(DrainStream, AlternatingFailuresNeverTruncateABudgetOfOne) {
  // fail, succeed, fail, succeed, ...: the budget resets after every read
  // that yields an edge, so one retry is always enough.
  FlakyStream stream(20, [](uint64_t call, uint64_t) { return call % 2 == 0; });
  RetryBackoff backoff(Policy(1, 1, 1));
  DrainResult result;
  EXPECT_EQ(DrainSizes(stream, 8, backoff, &result),
            (std::vector<size_t>{8, 8, 4}));
  EXPECT_EQ(result.end, DrainEnd::kEnd);
  EXPECT_EQ(result.retries, stream.calls() / 2);
  EXPECT_GE(result.retries, 20u);
}

}  // namespace
}  // namespace streamkc
