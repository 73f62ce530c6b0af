#include "runtime/degradation.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "util/check.h"

namespace streamkc {

RetryBackoff::RetryBackoff(const DegradationPolicy& policy,
                           Histogram* histogram)
    : first_ns_(std::min(policy.initial_backoff_ns, policy.max_backoff_ns)),
      max_ns_(policy.max_backoff_ns),
      max_retries_(policy.max_stream_retries),
      histogram_(histogram),
      next_ns_(first_ns_) {}

bool RetryBackoff::Retry() {
  if (retries_ >= max_retries_) return false;
  ++retries_;
  if (histogram_ != nullptr) histogram_->Observe(next_ns_);
  std::this_thread::sleep_for(std::chrono::nanoseconds(next_ns_));
  next_ns_ = next_ns_ >= max_ns_ / 2 ? max_ns_ : next_ns_ * 2;
  return true;
}

DrainResult DrainStream(EdgeStream& stream, size_t batch_size,
                        RetryBackoff& backoff, EdgeBatch* batch,
                        const std::function<void(EdgeBatch&)>& sink) {
  DrainResult result;
  std::vector<Edge> rest;  // a read that resumes a partly filled batch
  batch->Clear();
  for (;;) {
    std::vector<Edge>* into = batch->empty() ? &batch->edges : &rest;
    const size_t got = stream.NextBatch(into, batch_size - batch->size());
    if (into == &rest) {
      batch->edges.insert(batch->edges.end(), rest.begin(), rest.end());
    }
    if (got > 0) backoff.Reset();
    if (!batch->empty() && (batch->size() == batch_size || stream.ok())) {
      sink(*batch);
      batch->Clear();
    }
    if (stream.ok()) {
      if (got == 0) break;
    } else if (stream.transient() && backoff.Retry()) {
      ++result.retries;
    } else {
      result.end = stream.transient() ? DrainEnd::kTruncated : DrainEnd::kError;
      break;
    }
  }
  if (!batch->empty()) sink(*batch);
  return result;
}

FingerprintVote VoteFingerprints(const std::vector<uint64_t>& fingerprints,
                                 const std::vector<uint8_t>& voting) {
  CHECK_EQ(fingerprints.size(), voting.size());
  const size_t n = fingerprints.size();
  FingerprintVote vote;
  size_t best = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!voting[i]) continue;
    size_t count = 0;
    for (size_t j = 0; j < n; ++j) {
      count += voting[j] && fingerprints[j] == fingerprints[i];
    }
    if (count > best) {
      best = count;
      vote.majority = fingerprints[i];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (voting[i] && fingerprints[i] != vote.majority) {
      vote.minority.push_back(static_cast<uint32_t>(i));
    }
  }
  return vote;
}

void ExitIfQuarantineFatal(const DegradationPolicy& policy,
                           uint32_t quarantined, uint32_t total,
                           const char* unit) {
  if (quarantined > 0 && policy.strict) {
    std::fprintf(stderr, "[streamkc] strict: %u/%u %s quarantined\n",
                 quarantined, total, unit);
    std::exit(1);
  }
  if (quarantined == total) {
    // No healthy replica survives; a fabricated answer would be worse than
    // none, strict mode or not.
    std::fprintf(stderr, "[streamkc] all %u %s quarantined\n", total, unit);
    std::exit(1);
  }
}

}  // namespace streamkc
