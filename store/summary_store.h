#ifndef FASTHIST_STORE_SUMMARY_STORE_H_
#define FASTHIST_STORE_SUMMARY_STORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "dist/histogram.h"
#include "service/aggregator.h"
#include "service/merge_tree.h"
#include "service/wire_format.h"
#include "store/archetype_pool.h"
#include "store/key_index.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// What the store's memory goes to, measured from its own bookkeeping (heap
// bytes of every plane, table, and vector it owns — resident pages are the
// bench's job to compare against).
struct StoreMemoryStats {
  size_t total_bytes = 0;
  size_t payload_bytes = 0;  // windows + occupied ladder slices (live keys)
  // Vacant carry slices of live keys' allocated ladder planes — the dyadic
  // ladder's between-carries emptiness (ArchetypePool::MemoryStats).  Scales
  // with ladder depth, not key count, so it is reported apart from the
  // per-key overhead the multi-tenancy budget gates.
  size_t ladder_slack_bytes = 0;
  size_t index_bytes = 0;     // key -> slot table
  size_t metadata_bytes = 0;  // everything else: per-slot planes, freelists
  size_t num_keys = 0;

  // The multi-tenancy budget (<= 150 at a million keys, bench-gated):
  // bytes per live key beyond the summary payload and its ladder slack —
  // i.e. what the *store* charges a key (index entry, slot bookkeeping,
  // amortized chunk headers, freelist capacity).
  double overhead_bytes_per_key() const {
    if (num_keys == 0) return 0.0;
    return static_cast<double>(total_bytes - payload_bytes -
                               ladder_slack_bytes) /
           static_cast<double>(num_keys);
  }
};

// Millions of keyed streaming summaries behind one map: tenant/metric keys
// index into archetype pools (store/archetype_pool.h) whose SoA slabs hold
// every per-key ladder with no per-key heap objects at all.  Each key's
// summary is bit-identical to a standalone StreamingHistogramBuilder fed
// that key's subsequence — the store changes the *layout* of the
// computation, never the computation (property-tested, serial and
// threaded).
//
// Ingest is batched: AddBatch walks a span of (key, value) pairs once, one
// slab append per run of consecutive equal keys, as a rolling software
// pipeline.  A sample's work is a chain of dependent cache misses — its
// index line, then its slot's bookkeeping, then its window line — which at
// many keys outsizes everything else.  So while sample i is appended,
// sample i + 16 is hashed and its first index line requested, sample i + 8
// is probed and its slot's lines requested, and sample i + 4's window line
// is requested for write; a present key is not probed again at its append.
// The stages only read and prefetch: creation, validation and the append
// itself happen at the append stage in span order, so the effect is the
// per-sample Add loop's, failures included, and a batch reads ahead only
// its own keys' slots.  The distance (16) was picked from a
// BM_StoreAddBatch sweep over 8, 16 and 32 in bench_micro.  Bulk
// read-side ops — merge all keys matching a predicate, group-by rollups,
// top-k — sweep the slabs chunk-major and reduce through the deterministic
// merge tree, so their outputs are bit-identical regardless of insertion
// history (canonical key order) and thread count.
//
// Concurrency: mutating entry points are serial by default, with one
// carve-out for ingest — concurrent AddBatch calls are safe iff their key
// sets are disjoint and every key already exists (created beforehand via
// EnsureKeys, Add, or an earlier batch).  In that regime no index or slot
// mutation happens; writers touch disjoint plane slices only (the pool's
// carve-out), which TSan-backed tests exercise.  Reads (Query and friends)
// require no concurrent writer of the same key.
class SummaryStore {
 public:
  // `default_config` becomes archetype 0, the one Add/AddBatch use unless
  // told otherwise.
  static StatusOr<SummaryStore> Create(const ArchetypeConfig& default_config);

  // Registers (or finds, see SameArchetype) a summary shape; returns its
  // archetype id.  Keys of different archetypes coexist in one store and
  // one index — only their slabs are segregated.
  StatusOr<int> RegisterArchetype(const ArchetypeConfig& config);
  const ArchetypeConfig& archetype_config(int archetype) const {
    return pools_[static_cast<size_t>(archetype)].config();
  }

  // Batched keyed ingest, with exactly the effect of calling Add on each
  // sample in span order: keys not yet present are created in
  // `archetype`'s pool in first-seen order, and a failing sample (its key
  // exists under a different archetype, or its value is out of domain)
  // stops the batch with every sample before it ingested and none after.
  // The span is walked once, pipelined (see the class comment); each run of
  // consecutive equal keys costs one index probe and one slab append, so
  // batches that arrive grouped by key pay per key, not per sample.
  Status AddBatch(Span<const KeyedSample> samples, int archetype = 0);

  // Single-sample convenience (same semantics as a one-element batch).
  Status Add(uint64_t key, int64_t value, int archetype = 0);

  // Creates any missing keys (empty summaries) in `archetype`'s pool — the
  // serial set-up step that makes subsequent disjoint-key AddBatch calls
  // safe to run concurrently.
  Status EnsureKeys(Span<const uint64_t> keys, int archetype = 0);

  // Drops the key and recycles its slab slot (LIFO, so churn reuses warm
  // slots instead of growing the slabs — stress-tested).
  Status Erase(uint64_t key);

  bool Contains(uint64_t key) const {
    return index_.Find(key) != KeyIndex::kNotFound;
  }
  size_t num_keys() const { return index_.size(); }

  // Per-key reads: the key's current summary (the StreamingHistogramBuilder
  // Peek fold — uniform when the key exists but has no samples), its sample
  // count, and the Lemma-4.2 error levels of that summary.
  StatusOr<Histogram> Query(uint64_t key) const;
  StatusOr<int64_t> NumSamples(uint64_t key) const;
  StatusOr<int> ErrorLevels(uint64_t key) const;

  // Per-key serving: an Aggregator over the key's summary with error budget
  // per_level_error * error_levels (rejects keys with no samples, like
  // Aggregator::CreateForSnapshot).
  StatusOr<Aggregator> QueryAggregator(uint64_t key,
                                       double per_level_error = 0.0) const;

  // Per-key export: a keyed (wire v3) snapshot envelope, `key` as key_id.
  // Feeds the same merge trees and aggregators as whole-shard snapshots.
  StatusOr<ShardSnapshot> ExportKeyedSnapshot(uint64_t key,
                                              uint64_t shard_id) const;

  // --- Bulk cross-key operations ------------------------------------------
  //
  // All three sweep the slabs chunk-major, order keys canonically, skip
  // keys with zero samples, and (for the reductions) require every
  // participating key to share one domain.  `k` is the output summary's
  // pieces knob; `options` shapes the reduction tree.

  // Reduces every key with pred(key) true into one aggregate.
  StatusOr<MergeTreeResult> MergeAllMatching(
      const std::function<bool(uint64_t)>& pred, int64_t k,
      const MergeTreeOptions& options = MergeTreeOptions()) const;

  // Reduces keys sharing group_of(key) into one aggregate per group;
  // results are ordered by group id.
  StatusOr<std::vector<std::pair<uint64_t, MergeTreeResult>>> GroupByRollup(
      const std::function<uint64_t(uint64_t)>& group_of, int64_t k,
      const MergeTreeOptions& options = MergeTreeOptions()) const;

  // The n keys with the most samples, heaviest first (ties: smaller key
  // first, so the answer is insertion-order invariant).
  std::vector<std::pair<uint64_t, int64_t>> TopKHeaviest(size_t n) const;

  // Pre-sizes the index and archetype-0 slabs so a bulk load of `n` keys
  // never rehashes or chunk-allocates mid-ingest.
  Status ReserveKeys(size_t n);

  StoreMemoryStats memory() const;

 private:
  explicit SummaryStore(ArchetypePool default_pool);

  // Index values pack (archetype, pool ref): archetype in bits [48, 63),
  // the pool's (chunk, slot) ref below.
  static uint64_t PackValue(int archetype, uint64_t pool_ref) {
    return (static_cast<uint64_t>(archetype) << 48) | pool_ref;
  }
  static int ArchetypeOf(uint64_t value) {
    return static_cast<int>(value >> 48);
  }
  static uint64_t PoolRefOf(uint64_t value) {
    return value & ((uint64_t{1} << 48) - 1);
  }

  // Invalid unless `archetype` is registered.
  Status CheckArchetype(int archetype) const;
  // (archetype, ref) of an existing key, or Invalid.
  StatusOr<uint64_t> FindValue(uint64_t key) const;
  // Finds or creates the key in `archetype`'s pool.
  StatusOr<uint64_t> FindOrCreateValue(uint64_t key, int archetype);

  // Canonically-ordered (key, summary) sweep of keys passing `pred`.
  Status CollectSummaries(
      const std::function<bool(uint64_t)>& pred,
      std::vector<std::pair<uint64_t, ShardSummary>>* out) const;

  KeyIndex index_;
  std::vector<ArchetypePool> pools_;  // index = archetype id
};

}  // namespace fasthist

#endif  // FASTHIST_STORE_SUMMARY_STORE_H_
