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

Status SummaryStore::CheckArchetype(int archetype) const {
  if (archetype < 0 || static_cast<size_t>(archetype) >= pools_.size()) {
    return Status::Invalid("SummaryStore: unknown archetype");
  }
  return Status::Ok();
}

StatusOr<uint64_t> SummaryStore::FindOrCreateValue(uint64_t key,
                                                   int archetype) {
  if (Status s = CheckArchetype(archetype); !s.ok()) return s;
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

namespace {

// AddBatch's look-ahead, in samples (a power of two, >= 4).  While sample i
// is appended, sample i + kAhead is hashed and its first index line
// requested, sample i + kAhead / 2 is probed, its slot resolved and its
// window length's line requested, and sample i + kAhead / 4's window line is
// requested for write.
constexpr size_t kAhead = 16;

}  // namespace

Status SummaryStore::AddBatch(Span<const KeyedSample> samples, int archetype) {
  const size_t n = samples.size();
  if (n == 0) return Status::Ok();
  if (Status s = CheckArchetype(archetype); !s.ok()) return s;
  ArchetypePool& pool = pools_[static_cast<size_t>(archetype)];

  // A rolling software pipeline over the span: each sample's dependent
  // misses (index line -> window length -> window line) are requested stage
  // by stage ahead of its append, so they overlap its neighbours'.  The
  // stages only read and prefetch; the append stage below does exactly what
  // a per-sample Add loop would, in span order.  ring[j % kAhead] describes
  // sample j from its hash stage to its append.
  struct InFlight {
    uint64_t hash = 0;
    // Index value seen at the probe stage (kNotFound: absent then).  A
    // present key's value cannot change before its append, because AddBatch
    // never erases.
    uint64_t value = KeyIndex::kNotFound;
    // The slot of `value`, resolved at the probe stage; set only when the
    // entry is hinted, so it is read only then.
    ArchetypePool::SlotHandle slot;
    // Same key as the sample before: it rides that sample's run, so it is
    // neither hashed nor probed.
    bool repeat = false;
  };
  InFlight ring[kAhead];
  const auto hash_stage = [&](size_t j) {
    InFlight& entry = ring[j % kAhead];
    entry.repeat = j > 0 && samples[j].key == samples[j - 1].key;
    if (entry.repeat) return;
    entry.hash = KeyIndex::Hash(samples[j].key);
    index_.Prefetch(entry.hash);
  };
  // Hints go only to keys present (under the batch's archetype) when
  // probed; everything else is resolved at its append, as before.
  const auto hinted = [&](const InFlight& entry) {
    return !entry.repeat && entry.value != KeyIndex::kNotFound &&
           ArchetypeOf(entry.value) == archetype;
  };
  const auto probe_stage = [&](size_t j) {
    InFlight& entry = ring[j % kAhead];
    if (entry.repeat) return;
    entry.value = index_.FindHashed(samples[j].key, entry.hash);
    if (!hinted(entry)) return;
    entry.slot = pool.Resolve(PoolRefOf(entry.value));
    pool.PrefetchSlot(entry.slot);
  };
  const auto window_stage = [&](size_t j) {
    const InFlight& entry = ring[j % kAhead];
    if (hinted(entry)) pool.PrefetchWindow(entry.slot);
  };

  for (size_t j = 0; j < std::min(n, kAhead); ++j) hash_stage(j);
  for (size_t j = 0; j < std::min(n, kAhead / 2); ++j) probe_stage(j);
  for (size_t j = 0; j < std::min(n, kAhead / 4); ++j) window_stage(j);
  size_t run_end = 0;
  for (size_t i = 0; i < n; ++i) {
    // Read before the hash stage below reuses this sample's ring entry.
    const InFlight current = ring[i % kAhead];
    if (i + kAhead < n) hash_stage(i + kAhead);
    if (i + kAhead / 2 < n) probe_stage(i + kAhead / 2);
    if (i + kAhead / 4 < n) window_stage(i + kAhead / 4);
    if (i < run_end) continue;  // appended with its run's first sample

    const uint64_t key = samples[i].key;
    run_end = i + 1;
    while (run_end < n && samples[run_end].key == key) ++run_end;
    ArchetypePool::SlotHandle slot = current.slot;
    if (!hinted(current)) {
      // Absent when probed (maybe created by an earlier sample since), or
      // under another archetype: the per-sample path creates or fails.
      auto resolved = FindOrCreateValue(key, archetype);
      if (!resolved.ok()) return resolved.status();
      slot = pool.Resolve(PoolRefOf(*resolved));
    }
    if (Status s = pool.Append(slot, samples.subspan(i, run_end - i));
        !s.ok()) {
      return s;
    }
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
