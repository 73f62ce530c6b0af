// The one reduction both engines run over their same-seed replicas once
// every worker is joined (ShardedPipeline) or reaped (ProcessReductionTree):
// a fingerprint vote, the quarantine verdict, then a tree merge of the
// survivors.
//
// The tree is bottom-up with configurable arity: each level groups the
// surviving states into runs of `arity` consecutive (by replica index)
// members and merges each run into its lowest index, shrinking the
// population by the arity per level until one root remains; depth is
// ceil(log_arity(W)). The thread pipeline reduces with arity = its shard
// count, i.e. one level that folds every survivor into the lowest one in
// index order; the process tree uses DistOptions::merge_arity, the shape a
// multi-node deployment would execute across hosts.
//
// Determinism: grouping is purely positional (ascending surviving indices),
// and every Merge in this codebase is commutative & associative over
// seed-coordinated states, so the root state is byte-identical for every
// arity and to the inline pass — the differential battery's anchor.

#ifndef STREAMKC_RUNTIME_REDUCTION_TREE_H_
#define STREAMKC_RUNTIME_REDUCTION_TREE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "runtime/degradation.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace streamkc {

struct MergeTreeStats {
  uint32_t depth = 0;     // levels executed (0 when <= 1 state survives)
  uint64_t merges = 0;    // pairwise Merge() calls across all levels
  uint64_t merge_ns = 0;  // wall time inside Merge() calls
};

// Expected depth of the reduction for `leaves` surviving states: the
// validator cross-checks the recorded depth against this closed form.
inline uint32_t MergeTreeDepth(size_t leaves, uint32_t arity) {
  CHECK_GE(arity, 2u);
  uint32_t depth = 0;
  while (leaves > 1) {
    leaves = (leaves + arity - 1) / arity;
    ++depth;
  }
  return depth;
}

// Merges the non-null entries of `states` into a single root, returning its
// index (the lowest surviving index), or SIZE_MAX when every entry is null.
// Consumed entries are reset to null; `stats` (optional) accumulates.
template <typename State>
size_t TreeMerge(std::vector<std::unique_ptr<State>>* states, uint32_t arity,
                 MergeTreeStats* stats) {
  CHECK_GE(arity, 2u);
  std::vector<size_t> alive;
  for (size_t i = 0; i < states->size(); ++i) {
    if ((*states)[i] != nullptr) alive.push_back(i);
  }
  if (alive.empty()) return SIZE_MAX;

  Stopwatch sw;
  while (alive.size() > 1) {
    std::vector<size_t> next;
    for (size_t g = 0; g < alive.size(); g += arity) {
      const size_t root = alive[g];
      for (size_t j = g + 1; j < alive.size() && j < g + arity; ++j) {
        sw.Restart();
        (*states)[root]->Merge(*(*states)[alive[j]]);
        if (stats != nullptr) {
          stats->merge_ns +=
              static_cast<uint64_t>(sw.ElapsedSeconds() * 1e9);
          ++stats->merges;
        }
        (*states)[alive[j]].reset();
      }
      next.push_back(root);
    }
    alive.swap(next);
    if (stats != nullptr) ++stats->depth;
  }
  return alive.front();
}

// Reduces W replicas to one state. `healthy[i]` marks the replicas that
// passed their engine's own checks (no worker death, a valid frame); they
// vote with `fingerprints`, and each minority voter is cleared from
// `healthy` and reported to `on_minority(i, majority)`. The quarantine
// verdict follows (ExitIfQuarantineFatal with `unit`), then `take(i)`
// hands over each survivor's state, in ascending i, for an `arity`-way
// TreeMerge whose shape lands in `stats`.
template <typename State, typename Take, typename OnMinority>
State ReduceReplicas(const std::vector<uint64_t>& fingerprints,
                     std::vector<uint8_t>* healthy,
                     const DegradationPolicy& policy, const char* unit,
                     uint32_t arity, MergeTreeStats* stats, Take take,
                     OnMinority on_minority) {
  const FingerprintVote vote = VoteFingerprints(fingerprints, *healthy);
  for (uint32_t i : vote.minority) {
    (*healthy)[i] = 0;
    on_minority(i, vote.majority);
  }
  const uint32_t total = static_cast<uint32_t>(healthy->size());
  ExitIfQuarantineFatal(
      policy, static_cast<uint32_t>(std::count(healthy->begin(), healthy->end(), 0)),
      total, unit);
  std::vector<std::unique_ptr<State>> states(total);
  for (uint32_t i = 0; i < total; ++i) {
    if ((*healthy)[i]) states[i] = take(i);
  }
  return std::move(*states[TreeMerge(&states, arity, stats)]);
}

}  // namespace streamkc

#endif  // STREAMKC_RUNTIME_REDUCTION_TREE_H_
