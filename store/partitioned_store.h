#ifndef FASTHIST_STORE_PARTITIONED_STORE_H_
#define FASTHIST_STORE_PARTITIONED_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/summary_store.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// The key -> partition map shared by the sharded ingest server, its
// clients, and the offline replay checker: a splitmix64 finalizer over the
// key, masked down to the (power-of-two) partition count.  The finalizer
// avalanche means adjacent tenant ids spread across partitions instead of
// clustering, and the function is a pure deterministic map — which is what
// lets a client reconstruct per-partition accepted subsequences from an ACK
// without the server telling it which partition each sample went to.
inline uint32_t PartitionOfKey(uint64_t key, uint32_t num_partitions) {
  uint64_t x = key + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x & (num_partitions - 1));
}

// N independent SummaryStores behind a keyed facade: every key lives in
// exactly one partition (PartitionOfKey), so N single-threaded writers —
// one per partition — ingest with zero hot-path synchronization while the
// per-key bit-identity contract of SummaryStore carries over unchanged
// (partitioning changes which store holds a key, never the computation on
// its samples).  This is the storage side of the sharded ingest server:
// each worker loop owns partition(i) exclusively, and every read is a
// per-key read served by the key's one partition.  Summaries of different
// keys combine only outside the store, through the keyed snapshots they
// export (ReduceSnapshots, service/merge_tree.h).
//
// The facade itself adds no locking, and a SummaryStore is not thread-safe:
// the caller owns the one-thread-per-partition discipline (the sharded
// server enforces it by construction: partition i is only touched from
// worker loop i, for reads and writes alike).
class PartitionedSummaryStore {
 public:
  // `num_partitions` must be a power of two >= 1; every partition's store
  // takes `config` (SummaryStore::Create).
  static StatusOr<PartitionedSummaryStore> Create(
      const ArchetypeConfig& config, uint32_t num_partitions);

  uint32_t num_partitions() const {
    return static_cast<uint32_t>(partitions_.size());
  }
  uint32_t partition_of(uint64_t key) const {
    return PartitionOfKey(key, num_partitions());
  }

  // Direct partition access — the sharded server's worker loops go through
  // these so each partition store is touched from exactly one thread.
  SummaryStore& partition(uint32_t p) { return partitions_[p]; }
  const SummaryStore& partition(uint32_t p) const { return partitions_[p]; }

  // Serial convenience ingest: routes each sample to its partition,
  // preserving per-key arrival order (stable within each partition because
  // the split is a stable partition of the span).  The sharded server does
  // this routing itself across threads; this entry point exists for tests
  // and offline replay, where one thread plays both roles.
  Status AddBatch(Span<const KeyedSample> samples);

  bool Contains(uint64_t key) const {
    return partitions_[partition_of(key)].Contains(key);
  }
  StatusOr<Histogram> Query(uint64_t key) const {
    return partitions_[partition_of(key)].Query(key);
  }
  StatusOr<int64_t> NumSamples(uint64_t key) const {
    return partitions_[partition_of(key)].NumSamples(key);
  }
  StatusOr<SummaryStore::KeyQuantile> Quantile(uint64_t key, double q) const {
    return partitions_[partition_of(key)].Quantile(key, q);
  }
  StatusOr<ShardSnapshot> ExportKeyedSnapshot(uint64_t key,
                                              uint64_t shard_id) const {
    return partitions_[partition_of(key)].ExportKeyedSnapshot(key, shard_id);
  }

  size_t num_keys() const;

 private:
  explicit PartitionedSummaryStore(std::vector<SummaryStore> partitions)
      : partitions_(std::move(partitions)) {}

  std::vector<SummaryStore> partitions_;
};

}  // namespace fasthist

#endif  // FASTHIST_STORE_PARTITIONED_STORE_H_
