#include "store/summary_store.h"

#include <algorithm>

namespace fasthist {

StatusOr<SummaryStore> SummaryStore::Create(
    const ArchetypeConfig& default_config) {
  auto pool = ArchetypePool::Create(default_config);
  if (!pool.ok()) return pool.status();
  return SummaryStore(std::move(pool).value());
}

SummaryStore::SummaryStore(ArchetypePool default_pool) {
  pools_.push_back(std::move(default_pool));
}

StatusOr<int> SummaryStore::RegisterArchetype(const ArchetypeConfig& config) {
  for (size_t i = 0; i < pools_.size(); ++i) {
    if (SameArchetype(pools_[i].config(), config)) return static_cast<int>(i);
  }
  // 15 bits of archetype in the packed index value; a store with 32k
  // distinct summary shapes has lost the plot anyway.
  if (pools_.size() >= (size_t{1} << 15)) {
    return Status::Invalid("SummaryStore: too many archetypes");
  }
  auto pool = ArchetypePool::Create(config);
  if (!pool.ok()) return pool.status();
  pools_.push_back(std::move(pool).value());
  return static_cast<int>(pools_.size() - 1);
}

StatusOr<uint64_t> SummaryStore::FindValue(uint64_t key) const {
  const uint64_t value = index_.Find(key);
  if (value == KeyIndex::kNotFound) {
    return Status::Invalid("SummaryStore: key not present");
  }
  return value;
}

StatusOr<uint64_t> SummaryStore::FindOrCreateValue(uint64_t key,
                                                   int archetype) {
  if (archetype < 0 || static_cast<size_t>(archetype) >= pools_.size()) {
    return Status::Invalid("SummaryStore: unknown archetype");
  }
  const uint64_t existing = index_.Find(key);
  if (existing != KeyIndex::kNotFound) {
    if (ArchetypeOf(existing) != archetype) {
      return Status::Invalid(
          "SummaryStore: key exists under a different archetype");
    }
    return existing;
  }
  auto ref = pools_[static_cast<size_t>(archetype)].AllocateSlot(key);
  if (!ref.ok()) return ref.status();
  const uint64_t value = PackValue(archetype, *ref);
  index_.Insert(key, value);
  return value;
}

Status SummaryStore::AddBatch(Span<const KeyedSample> samples, int archetype) {
  size_t run_begin = 0;
  while (run_begin < samples.size()) {
    const uint64_t key = samples[run_begin].key;
    size_t run_end = run_begin + 1;
    while (run_end < samples.size() && samples[run_end].key == key) ++run_end;
    auto value = FindOrCreateValue(key, archetype);
    if (!value.ok()) return value.status();
    if (Status s = pools_[static_cast<size_t>(ArchetypeOf(*value))].Append(
            PoolRefOf(*value),
            samples.subspan(run_begin, run_end - run_begin));
        !s.ok()) {
      return s;
    }
    run_begin = run_end;
  }
  return Status::Ok();
}

Status SummaryStore::Add(uint64_t key, int64_t value, int archetype) {
  const KeyedSample sample[] = {{key, value}};
  return AddBatch(sample, archetype);
}

Status SummaryStore::EnsureKeys(Span<const uint64_t> keys, int archetype) {
  for (size_t i = 0; i < keys.size(); ++i) {
    if (auto value = FindOrCreateValue(keys[i], archetype); !value.ok()) {
      return value.status();
    }
  }
  return Status::Ok();
}

Status SummaryStore::Erase(uint64_t key) {
  auto value = FindValue(key);
  if (!value.ok()) return value.status();
  if (Status s = pools_[static_cast<size_t>(ArchetypeOf(*value))].ReleaseSlot(
          PoolRefOf(*value));
      !s.ok()) {
    return s;
  }
  index_.Erase(key);
  return Status::Ok();
}

StatusOr<Histogram> SummaryStore::Query(uint64_t key) const {
  auto value = FindValue(key);
  if (!value.ok()) return value.status();
  return pools_[static_cast<size_t>(ArchetypeOf(*value))].Query(
      PoolRefOf(*value));
}

StatusOr<int64_t> SummaryStore::NumSamples(uint64_t key) const {
  auto value = FindValue(key);
  if (!value.ok()) return value.status();
  return pools_[static_cast<size_t>(ArchetypeOf(*value))].NumSamples(
      PoolRefOf(*value));
}

StatusOr<int> SummaryStore::ErrorLevels(uint64_t key) const {
  auto value = FindValue(key);
  if (!value.ok()) return value.status();
  return pools_[static_cast<size_t>(ArchetypeOf(*value))].ErrorLevels(
      PoolRefOf(*value));
}

StatusOr<Aggregator> SummaryStore::QueryAggregator(
    uint64_t key, double per_level_error) const {
  auto value = FindValue(key);
  if (!value.ok()) return value.status();
  const ArchetypePool& pool = pools_[static_cast<size_t>(ArchetypeOf(*value))];
  const uint64_t ref = PoolRefOf(*value);
  if (pool.NumSamples(ref) <= 0) {
    return Status::Invalid(
        "SummaryStore: key has no samples — nothing to serve");
  }
  if (!(per_level_error >= 0.0)) {
    return Status::Invalid("SummaryStore: per_level_error must be >= 0");
  }
  auto histogram = pool.Query(ref);
  if (!histogram.ok()) return histogram.status();
  return Aggregator::Create(
      std::move(histogram).value(),
      per_level_error * static_cast<double>(std::max(1, pool.ErrorLevels(ref))));
}

StatusOr<ShardSnapshot> SummaryStore::ExportKeyedSnapshot(
    uint64_t key, uint64_t shard_id) const {
  auto value = FindValue(key);
  if (!value.ok()) return value.status();
  const ArchetypePool& pool = pools_[static_cast<size_t>(ArchetypeOf(*value))];
  const uint64_t ref = PoolRefOf(*value);
  auto histogram = pool.Query(ref);
  if (!histogram.ok()) return histogram.status();
  ShardSnapshot snapshot;
  snapshot.shard_id = shard_id;
  snapshot.keyed = true;
  snapshot.key_id = key;
  snapshot.num_samples = pool.NumSamples(ref);
  snapshot.error_levels = pool.ErrorLevels(ref);
  snapshot.encoded_histogram = EncodeHistogram(*histogram);
  return snapshot;
}

Status SummaryStore::CollectSummaries(
    const std::function<bool(uint64_t)>& pred,
    std::vector<std::pair<uint64_t, ShardSummary>>* out) const {
  Status status = Status::Ok();
  for (const ArchetypePool& pool : pools_) {
    pool.ForEachLiveSlot([&](uint64_t ref, uint64_t key) {
      if (!status.ok() || !pred(key)) return;
      const int64_t num_samples = pool.NumSamples(ref);
      if (num_samples == 0) return;  // empty summaries carry no mass
      auto histogram = pool.Query(ref);
      if (!histogram.ok()) {
        status = histogram.status();
        return;
      }
      out->emplace_back(
          key, ShardSummary{std::move(histogram).value(),
                            static_cast<double>(num_samples),
                            std::max(1, pool.ErrorLevels(ref))});
    });
    if (!status.ok()) return status;
  }
  // Canonical leaf order: the reduction must not depend on slab placement
  // (allocation history), only on the key set.
  std::sort(out->begin(), out->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return status;
}

StatusOr<MergeTreeResult> SummaryStore::MergeAllMatching(
    const std::function<bool(uint64_t)>& pred, int64_t k,
    const MergeTreeOptions& options) const {
  std::vector<std::pair<uint64_t, ShardSummary>> matched;
  if (Status s = CollectSummaries(pred, &matched); !s.ok()) return s;
  if (matched.empty()) {
    return Status::Invalid("SummaryStore: no matching key has samples");
  }
  std::vector<ShardSummary> summaries;
  summaries.reserve(matched.size());
  for (auto& entry : matched) summaries.push_back(std::move(entry.second));
  return ReduceSummaries(std::move(summaries), k, options);
}

StatusOr<std::vector<std::pair<uint64_t, MergeTreeResult>>>
SummaryStore::GroupByRollup(const std::function<uint64_t(uint64_t)>& group_of,
                            int64_t k, const MergeTreeOptions& options) const {
  std::vector<std::pair<uint64_t, ShardSummary>> all;
  if (Status s = CollectSummaries([](uint64_t) { return true; }, &all);
      !s.ok()) {
    return s;
  }
  // Stable re-sort by (group, key): groups become contiguous runs and the
  // leaf order within each run stays canonical.
  std::vector<std::pair<uint64_t, size_t>> grouped(all.size());
  for (size_t i = 0; i < all.size(); ++i) {
    grouped[i] = {group_of(all[i].first), i};
  }
  std::stable_sort(grouped.begin(), grouped.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::pair<uint64_t, MergeTreeResult>> results;
  size_t run_begin = 0;
  while (run_begin < grouped.size()) {
    const uint64_t group = grouped[run_begin].first;
    size_t run_end = run_begin + 1;
    while (run_end < grouped.size() && grouped[run_end].first == group) {
      ++run_end;
    }
    std::vector<ShardSummary> summaries;
    summaries.reserve(run_end - run_begin);
    for (size_t i = run_begin; i < run_end; ++i) {
      summaries.push_back(std::move(all[grouped[i].second].second));
    }
    auto reduced = ReduceSummaries(std::move(summaries), k, options);
    if (!reduced.ok()) return reduced.status();
    results.emplace_back(group, std::move(reduced).value());
    run_begin = run_end;
  }
  return results;
}

std::vector<std::pair<uint64_t, int64_t>> SummaryStore::TopKHeaviest(
    size_t n) const {
  std::vector<std::pair<uint64_t, int64_t>> weights;
  for (const ArchetypePool& pool : pools_) {
    pool.ForEachLiveSlot([&](uint64_t ref, uint64_t key) {
      const int64_t num_samples = pool.NumSamples(ref);
      if (num_samples > 0) weights.emplace_back(key, num_samples);
    });
  }
  const auto heavier = [](const std::pair<uint64_t, int64_t>& a,
                          const std::pair<uint64_t, int64_t>& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (weights.size() > n) {
    std::nth_element(weights.begin(),
                     weights.begin() + static_cast<ptrdiff_t>(n),
                     weights.end(), heavier);
    weights.resize(n);
  }
  std::sort(weights.begin(), weights.end(), heavier);
  return weights;
}

Status SummaryStore::ReserveKeys(size_t n) {
  index_.Reserve(n);
  return pools_[0].ReserveSlots(n);
}

StoreMemoryStats SummaryStore::memory() const {
  StoreMemoryStats stats;
  stats.num_keys = index_.size();
  stats.index_bytes = index_.memory_bytes();
  size_t pool_total = 0;
  for (const ArchetypePool& pool : pools_) {
    const ArchetypePool::MemoryStats pool_stats = pool.memory();
    pool_total += pool_stats.total_bytes;
    stats.payload_bytes += pool_stats.payload_bytes;
    stats.ladder_slack_bytes += pool_stats.slack_bytes;
  }
  stats.total_bytes = stats.index_bytes + pool_total +
                      pools_.capacity() * sizeof(ArchetypePool);
  stats.metadata_bytes = stats.total_bytes - stats.index_bytes -
                         stats.payload_bytes - stats.ladder_slack_bytes;
  return stats;
}

}  // namespace fasthist
