#include "store/partitioned_store.h"

#include <utility>

namespace fasthist {

StatusOr<PartitionedSummaryStore> PartitionedSummaryStore::Create(
    const ArchetypeConfig& config, uint32_t num_partitions) {
  if (num_partitions == 0 ||
      (num_partitions & (num_partitions - 1)) != 0) {
    return Status::Invalid(
        "PartitionedSummaryStore: num_partitions must be a power of two");
  }
  std::vector<SummaryStore> partitions;
  partitions.reserve(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    StatusOr<SummaryStore> store = SummaryStore::Create(config);
    if (!store.ok()) return store.status();
    partitions.push_back(std::move(store).value());
  }
  return PartitionedSummaryStore(std::move(partitions));
}

Status PartitionedSummaryStore::AddBatch(Span<const KeyedSample> samples) {
  // Stable partition of the span: each partition's subsequence keeps span
  // order, so a key's samples arrive at its store in original order — the
  // invariant the per-key bit-identity contract rides on.
  std::vector<std::vector<KeyedSample>> buckets(partitions_.size());
  for (const KeyedSample& sample : samples) {
    buckets[partition_of(sample.key)].push_back(sample);
  }
  for (uint32_t p = 0; p < num_partitions(); ++p) {
    if (buckets[p].empty()) continue;
    if (Status s = partitions_[p].AddBatch(
            Span<const KeyedSample>(buckets[p].data(), buckets[p].size()));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

size_t PartitionedSummaryStore::num_keys() const {
  size_t total = 0;
  for (const SummaryStore& store : partitions_) total += store.num_keys();
  return total;
}

}  // namespace fasthist
