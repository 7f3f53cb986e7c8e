#include "store/summary_store.h"

#include <algorithm>

namespace fasthist {

StatusOr<SummaryStore> SummaryStore::Create(const ArchetypeConfig& config) {
  auto pool = ArchetypePool::Create(config);
  if (!pool.ok()) return pool.status();
  return SummaryStore(std::move(pool).value());
}

StatusOr<uint64_t> SummaryStore::FindRef(uint64_t key) const {
  const uint64_t ref = index_.Find(key);
  if (ref == KeyIndex::kNotFound) {
    return Status::Invalid("SummaryStore: key not present");
  }
  return ref;
}

StatusOr<uint64_t> SummaryStore::FindOrCreateRef(uint64_t key) {
  const uint64_t existing = index_.Find(key);
  if (existing != KeyIndex::kNotFound) return existing;
  auto ref = pool_.AllocateSlot();
  if (!ref.ok()) return ref.status();
  index_.Insert(key, *ref);
  return *ref;
}

namespace {

// AddBatch's look-ahead, in samples (a power of two, >= 4).  While sample i
// is appended, sample i + kAhead is hashed and its first index line
// requested, sample i + kAhead / 2 is probed, its slot resolved and its
// window length's line requested, and sample i + kAhead / 4's window line is
// requested for write.
constexpr size_t kAhead = 16;

}  // namespace

Status SummaryStore::AddBatch(Span<const KeyedSample> samples) {
  const size_t n = samples.size();
  if (n == 0) return Status::Ok();

  // A rolling software pipeline over the span: each sample's dependent
  // misses (index line -> window length -> window line) are requested stage
  // by stage ahead of its append, so they overlap its neighbours'.  The
  // stages only read and prefetch; the append stage below does exactly what
  // a per-sample Add loop would, in span order.  ring[j % kAhead] describes
  // sample j from its hash stage to its append.
  struct InFlight {
    uint64_t hash = 0;
    // Pool ref seen at the probe stage (kNotFound: absent then).  A present
    // key's ref cannot change before its append: keys are never erased.
    uint64_t ref = KeyIndex::kNotFound;
    // The slot of `ref`, resolved at the probe stage; set only when the
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
  // Hints go only to keys present when probed; the others are created (or
  // found, if an earlier sample created them since) at their append.
  const auto hinted = [](const InFlight& entry) {
    return !entry.repeat && entry.ref != KeyIndex::kNotFound;
  };
  const auto probe_stage = [&](size_t j) {
    InFlight& entry = ring[j % kAhead];
    if (entry.repeat) return;
    entry.ref = index_.FindHashed(samples[j].key, entry.hash);
    if (!hinted(entry)) return;
    entry.slot = pool_.Resolve(entry.ref);
    pool_.PrefetchSlot(entry.slot);
  };
  const auto window_stage = [&](size_t j) {
    const InFlight& entry = ring[j % kAhead];
    if (hinted(entry)) pool_.PrefetchWindow(entry.slot);
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
      auto ref = FindOrCreateRef(key);
      if (!ref.ok()) return ref.status();
      slot = pool_.Resolve(*ref);
    }
    if (Status s = pool_.Append(slot, samples.subspan(i, run_end - i));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status SummaryStore::Add(uint64_t key, int64_t value) {
  const KeyedSample sample[] = {{key, value}};
  return AddBatch(sample);
}

StatusOr<Histogram> SummaryStore::Query(uint64_t key) const {
  auto ref = FindRef(key);
  if (!ref.ok()) return ref.status();
  return pool_.Query(*ref);
}

StatusOr<int64_t> SummaryStore::NumSamples(uint64_t key) const {
  auto ref = FindRef(key);
  if (!ref.ok()) return ref.status();
  return pool_.NumSamples(*ref);
}

StatusOr<int> SummaryStore::ErrorLevels(uint64_t key) const {
  auto ref = FindRef(key);
  if (!ref.ok()) return ref.status();
  return pool_.ErrorLevels(*ref);
}

StatusOr<SummaryStore::KeyQuantile> SummaryStore::Quantile(uint64_t key,
                                                          double q) const {
  auto ref = FindRef(key);
  if (!ref.ok()) return ref.status();
  auto value = pool_.Quantile(*ref, q);
  if (!value.ok()) return value.status();
  return KeyQuantile{*value, pool_.NumSamples(*ref)};
}

StatusOr<ShardSnapshot> SummaryStore::ExportKeyedSnapshot(
    uint64_t key, uint64_t shard_id) const {
  auto found = FindRef(key);
  if (!found.ok()) return found.status();
  const uint64_t ref = *found;
  auto histogram = pool_.Query(ref);
  if (!histogram.ok()) return histogram.status();
  ShardSnapshot snapshot;
  snapshot.shard_id = shard_id;
  snapshot.keyed = true;
  snapshot.key_id = key;
  snapshot.num_samples = pool_.NumSamples(ref);
  snapshot.error_levels = pool_.ErrorLevels(ref);
  snapshot.encoded_histogram = EncodeHistogram(*histogram);
  return snapshot;
}

Status SummaryStore::ReserveKeys(size_t n) {
  index_.Reserve(n);
  return pool_.ReserveSlots(n);
}

StoreMemoryStats SummaryStore::memory() const {
  StoreMemoryStats stats;
  stats.num_keys = index_.size();
  stats.index_bytes = index_.memory_bytes();
  const ArchetypePool::MemoryStats pool_stats = pool_.memory();
  stats.payload_bytes = pool_stats.payload_bytes;
  stats.ladder_slack_bytes = pool_stats.slack_bytes;
  stats.total_bytes = stats.index_bytes + pool_stats.total_bytes;
  stats.metadata_bytes = stats.total_bytes - stats.index_bytes -
                         stats.payload_bytes - stats.ladder_slack_bytes;
  return stats;
}

}  // namespace fasthist
