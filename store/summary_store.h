#ifndef FASTHIST_STORE_SUMMARY_STORE_H_
#define FASTHIST_STORE_SUMMARY_STORE_H_

#include <cstddef>
#include <cstdint>
#include <utility>

#include "dist/histogram.h"
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
  size_t payload_bytes = 0;  // keys' windows + occupied ladder slices
  // Vacant carry slices of the keys' allocated ladder planes — the dyadic
  // ladder's between-carries emptiness (ArchetypePool::MemoryStats).  Scales
  // with ladder depth, not key count, so it is reported apart from the
  // per-key overhead the multi-tenancy budget gates.
  size_t ladder_slack_bytes = 0;
  size_t index_bytes = 0;     // key -> slot table
  size_t metadata_bytes = 0;  // everything else: per-slot planes, chunks
  size_t num_keys = 0;

  // The multi-tenancy budget (<= 150 at a million keys, bench-gated):
  // bytes per key beyond the summary payload and its ladder slack — i.e.
  // what the *store* charges a key (index entry, slot bookkeeping,
  // amortized chunk headers).
  double overhead_bytes_per_key() const {
    if (num_keys == 0) return 0.0;
    return static_cast<double>(total_bytes - payload_bytes -
                               ladder_slack_bytes) /
           static_cast<double>(num_keys);
  }
};

// Millions of keyed streaming summaries of one shape behind one map:
// tenant/metric keys index into one archetype pool (store/archetype_pool.h)
// whose SoA slabs hold every per-key ladder with no per-key heap objects at
// all.  Each key's summary is bit-identical to a standalone
// StreamingHistogramBuilder fed that key's subsequence — the store changes
// the *layout* of the computation, never the computation (property-tested
// across shapes and thread counts).  A key lives as long as the store:
// there is no erase.
//
// Ingest is batched: AddBatch walks a span of (key, value) pairs once, one
// slab append per run of consecutive equal keys, as a rolling software
// pipeline.  A sample's work is a chain of dependent cache misses — its
// index line, then its window length, then its window line — which at
// many keys outsizes everything else.  So while sample i is appended,
// sample i + 16 is hashed and its first index line requested; sample i + 8
// is probed, a present key's slot resolved once to an
// ArchetypePool::SlotHandle kept in the pipeline's ring, and its window
// length's line requested; and sample i + 4's window line is requested for
// write, located through that handle.  A present key's append goes through
// the same handle, with no second probe and no chunk lookup.  The stages
// only read and prefetch: creation, validation and the append itself
// happen at the append stage in span order, so the effect is the
// per-sample Add loop's, failures included, and a batch reads ahead only
// its own keys' slots.  The hints are opaque to the optimizer
// (store/prefetch.h), so it cannot prove a stage free of effects and
// delete it.  The distance (16) was picked with every stage live, from a
// bench/ab_store.sh sweep over 8, 16 and 32: 16 was fastest at 131072
// keys; 8 was 2-5 % faster at 64 keys but 6-12 % slower at 131072.
//
// Not thread-safe: one thread at a time.  The server gives each key-hash
// partition's store exactly one writer, its owner loop, which also serves
// the partition's reads (PartitionedSummaryStore).
class SummaryStore {
 public:
  // Invalid unless ArchetypePool::Create accepts `config`.
  static StatusOr<SummaryStore> Create(const ArchetypeConfig& config);

  // Batched keyed ingest, with exactly the effect of calling Add on each
  // sample in span order: keys not yet present are created in first-seen
  // order, and a sample whose value is out of domain stops the batch with
  // every sample before it ingested and none after (its key is created
  // all the same).  The span is walked once, pipelined (see the class
  // comment); each run of consecutive equal keys costs one index probe and
  // one slab append, so batches that arrive grouped by key pay per key, not
  // per sample.
  Status AddBatch(Span<const KeyedSample> samples);

  // Single-sample convenience (same semantics as a one-element batch).
  Status Add(uint64_t key, int64_t value);

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

  // Per-key serving: the q-quantile of the key's samples and their count,
  // from one index probe.  The quantile is read from the exact mixture of
  // the key's ladder slots and window (ArchetypePool::Quantile), not from
  // Query's fold, and allocates nothing.  Invalid for an absent key, a key
  // with no samples, and a ladder slot that is not a distribution.
  struct KeyQuantile {
    int64_t value = 0;
    int64_t num_samples = 0;
  };
  StatusOr<KeyQuantile> Quantile(uint64_t key, double q) const;

  // Per-key export: a keyed (wire v3) snapshot envelope, `key` as key_id.
  // Feeds the same merge trees and aggregators as whole-shard snapshots.
  StatusOr<ShardSnapshot> ExportKeyedSnapshot(uint64_t key,
                                              uint64_t shard_id) const;

  // Pre-sizes the index and the slabs so a bulk load of `n` keys never
  // rehashes or chunk-allocates mid-ingest.
  Status ReserveKeys(size_t n);

  StoreMemoryStats memory() const;

 private:
  explicit SummaryStore(ArchetypePool pool) : pool_(std::move(pool)) {}

  // The pool ref of an existing key (the index stores it), or Invalid.
  StatusOr<uint64_t> FindRef(uint64_t key) const;
  // The pool ref of the key, creating the key if absent.
  StatusOr<uint64_t> FindOrCreateRef(uint64_t key);

  KeyIndex index_;
  ArchetypePool pool_;
};

}  // namespace fasthist

#endif  // FASTHIST_STORE_SUMMARY_STORE_H_
