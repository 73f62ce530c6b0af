// runtime/degradation.h: the retry backoff and the fingerprint vote every
// ingest engine shares. Sleeps here are nanoseconds, observed exactly
// through the backoff histogram, which records each sleep before it
// happens.

#include "runtime/degradation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "obs/metrics.h"

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

}  // namespace
}  // namespace streamkc
