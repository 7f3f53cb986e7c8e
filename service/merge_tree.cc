#include "service/merge_tree.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace fasthist {

StatusOr<MergeTreeResult> ReduceSummaries(std::vector<ShardSummary> summaries,
                                          int64_t k,
                                          const MergeTreeOptions& options) {
  if (summaries.empty()) {
    return Status::Invalid("ReduceSummaries: need at least one summary");
  }
  if (options.fan_in < 2) {
    return Status::Invalid("ReduceSummaries: fan_in must be >= 2");
  }
  if (k < 1) {
    return Status::Invalid("ReduceSummaries: k must be >= 1");
  }
  const int64_t domain_size = summaries.front().histogram.domain_size();
  int max_input_levels = 1;
  for (const ShardSummary& summary : summaries) {
    if (summary.histogram.domain_size() != domain_size) {
      return Status::Invalid("ReduceSummaries: summaries must share a domain");
    }
    if (!(summary.weight > 0.0)) {
      return Status::Invalid("ReduceSummaries: weights must be positive");
    }
    max_input_levels = std::max(max_input_levels, summary.error_levels);
  }

  MergeTreeResult result;
  std::vector<ShardSummary> current = std::move(summaries);
  while (current.size() > 1) {
    const size_t fan_in = static_cast<size_t>(options.fan_in);
    const size_t num_groups = (current.size() + fan_in - 1) / fan_in;
    std::vector<ShardSummary> next(num_groups);
    // Each group folds left-to-right into its own slot; the first failing
    // merge fails the reduction.
    for (size_t g = 0; g < num_groups; ++g) {
      const size_t first = g * fan_in;
      const size_t last = std::min(first + fan_in, current.size());
      ShardSummary acc = std::move(current[first]);
      for (size_t i = first + 1; i < last; ++i) {
        auto merged = MergeHistograms(acc.histogram, acc.weight,
                                      current[i].histogram, current[i].weight,
                                      k, options.merging);
        if (!merged.ok()) return merged.status();
        acc.histogram = std::move(merged).value();
        acc.weight += current[i].weight;
      }
      next[g] = std::move(acc);
    }
    result.num_merges +=
        static_cast<int64_t>(current.size()) -
        static_cast<int64_t>(num_groups);
    current = std::move(next);
    ++result.depth;
  }

  result.aggregate = std::move(current.front().histogram);
  result.total_weight = current.front().weight;
  // Tree levels on top of the deepest upstream chain: each input already
  // accounts for its own condenses (floored at 1 for legacy one-condense
  // summaries), and every tree level adds one more lossy merge.
  result.error_levels = result.depth + max_input_levels;
  return result;
}

StatusOr<MergeTreeResult> ReduceSnapshots(std::vector<ShardSnapshot> snapshots,
                                          int64_t k,
                                          const MergeTreeOptions& options) {
  if (snapshots.empty()) {
    return Status::Invalid("ReduceSnapshots: need at least one snapshot");
  }
  // Validate the configuration up front so degenerate inputs (e.g. all
  // shards empty) still reject a bad fan_in instead of short-circuiting.
  if (options.fan_in < 2) {
    return Status::Invalid("ReduceSnapshots: fan_in must be >= 2");
  }
  if (k < 1) {
    return Status::Invalid("ReduceSnapshots: k must be >= 1");
  }
  // Canonical leaf order: the reduction must not depend on which shard's
  // snapshot happened to arrive first.  num_samples, error_levels, and the
  // raw bytes break ties so duplicate shard ids sort adjacently and
  // deterministically.
  std::sort(snapshots.begin(), snapshots.end(),
            [](const ShardSnapshot& a, const ShardSnapshot& b) {
              return std::tie(a.shard_id, a.keyed, a.key_id, a.num_samples,
                              a.error_levels, a.encoded_histogram) <
                     std::tie(b.shard_id, b.keyed, b.key_id, b.num_samples,
                              b.error_levels, b.encoded_histogram);
            });
  // Idempotent delivery: a retransmitted snapshot (same identity, same
  // bytes) must not double-count, and two *different* snapshots claiming
  // the same identity is an upstream bug — there is no correct way to merge
  // both.  Identity is (shard_id, keyed, key_id): two v3 snapshots for
  // different keys of one shard are distinct leaves (that is how a keyed
  // store's per-key exports roll up through the same tree), while a keyed
  // and an un-keyed snapshot never collide.  After the sort duplicates are
  // adjacent, so one linear pass settles it.
  const auto same_identity = [](const ShardSnapshot& a,
                                const ShardSnapshot& b) {
    return a.shard_id == b.shard_id && a.keyed == b.keyed &&
           a.key_id == b.key_id;
  };
  size_t kept = 0;
  for (size_t i = 0; i < snapshots.size(); ++i) {
    if (kept > 0 && same_identity(snapshots[kept - 1], snapshots[i])) {
      if (snapshots[kept - 1].num_samples == snapshots[i].num_samples &&
          snapshots[kept - 1].error_levels == snapshots[i].error_levels &&
          snapshots[kept - 1].encoded_histogram ==
              snapshots[i].encoded_histogram) {
        continue;  // byte-identical retransmit: drop the extra copy
      }
      return Status::Invalid(
          "ReduceSnapshots: conflicting snapshots for one identity");
    }
    if (kept != i) snapshots[kept] = std::move(snapshots[i]);
    ++kept;
  }
  snapshots.resize(kept);

  // Empty shards carry no mass, so their snapshots are skipped *before*
  // decoding — a fleet where most shards are idle pays only for the shards
  // that contributed samples, instead of decoding every envelope just to
  // drop it.  (Consequence: a corrupt payload inside a zero-sample snapshot
  // goes unnoticed unless the whole fleet is empty and it is first in
  // canonical order — the bytes are dead weight either way.)
  std::vector<ShardSummary> summaries;
  summaries.reserve(snapshots.size());
  const ShardSnapshot* first_empty = nullptr;
  for (const ShardSnapshot& snapshot : snapshots) {
    if (snapshot.num_samples < 0) {
      return Status::Invalid("ReduceSnapshots: negative sample count");
    }
    if (snapshot.num_samples == 0) {
      if (first_empty == nullptr) first_empty = &snapshot;
      continue;
    }
    auto histogram = DecodeHistogram(snapshot.encoded_histogram);
    if (!histogram.ok()) return histogram.status();
    // Floor at 1: a pre-ladder (or hand-built) snapshot that never set the
    // field still condensed its samples at least once.
    summaries.push_back(ShardSummary{std::move(histogram).value(),
                                     static_cast<double>(snapshot.num_samples),
                                     std::max(1, snapshot.error_levels)});
  }
  if (summaries.empty()) {
    // Every shard was empty: the aggregate is the shards' common empty-state
    // summary (the uniform distribution) with no weight behind it — the one
    // case an empty snapshot is decoded.
    auto histogram = DecodeHistogram(first_empty->encoded_histogram);
    if (!histogram.ok()) return histogram.status();
    MergeTreeResult result;
    result.aggregate = std::move(histogram).value();
    result.total_weight = 0.0;
    result.depth = 0;
    result.num_merges = 0;
    result.error_levels = 1;
    return result;
  }
  return ReduceSummaries(std::move(summaries), k, options);
}

}  // namespace fasthist
