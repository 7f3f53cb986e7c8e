#ifndef FASTHIST_STORE_KEY_INDEX_H_
#define FASTHIST_STORE_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "store/prefetch.h"

namespace fasthist {

// Two-level open-addressing map from a 64-bit key to a 63-bit slot
// reference, tuned for the summary store's "millions of keys, 16 bytes of
// index overhead each" budget.  Level one is a fixed fan-out of 64 stripes
// selected by the top hash bits; level two is linear probing inside the
// stripe's own power-of-two table.  Striping keeps every rehash local —
// growing one stripe moves 1/64th of the keys, so insert latency stays flat
// while the store fills — and gives concurrent *readers* of disjoint keys
// unrelated cache lines to walk.
//
// Concurrency contract (the store's, restated): Find is const and safe to
// call from many threads only while no thread mutates; Insert/Erase/Reserve
// require external serialization.  Entries are plain 16-byte structs — no
// per-entry atomics, because the store's concurrent phase never mutates the
// index (keys are created serially up front, see SummaryStore::AddBatch).
class KeyIndex {
 public:
  // Returned by Find when the key is absent.  Valid stored values are
  // < 2^63 (the top bit is the internal presence tag), which the packed
  // (archetype, chunk, slot) refs satisfy by construction.
  static constexpr uint64_t kNotFound = ~0ull;

  KeyIndex();

  // The splitmix64 finalizer every lookup starts from: full-avalanche, so
  // sequential tenant ids (the common key shape) spread over stripes and
  // probe positions alike.
  static uint64_t Hash(uint64_t key) {
    uint64_t x = key + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  // The stored value for `key`, or kNotFound.
  uint64_t Find(uint64_t key) const { return FindHashed(key, Hash(key)); }
  // Find with the hash already computed; `hash` must be Hash(key).
  uint64_t FindHashed(uint64_t key, uint64_t hash) const;

  // Requests the first index line a lookup of `hash` probes, so a later
  // FindHashed finds it in cache.  A hint only; an empty stripe has no table
  // to point into, so it requests nothing.
  void Prefetch(uint64_t hash) const {
    const Stripe& stripe = StripeOf(hash);
    if (stripe.entries.empty()) return;
    PrefetchForRead(&stripe.entries[static_cast<size_t>(hash) &
                                    (stripe.entries.size() - 1)]);
  }

  // Inserts key -> value.  Returns false (and stores nothing) if the key is
  // already present; `value` must be < 2^63.
  bool Insert(uint64_t key, uint64_t value);

  // Replaces the value of an existing key; returns false if absent.
  bool Assign(uint64_t key, uint64_t value);

  // Tombstones the key.  Returns false if absent.
  bool Erase(uint64_t key);

  size_t size() const { return num_live_; }

  // Pre-sizes every stripe for `num_keys` total keys so the fill phase
  // never rehashes.
  void Reserve(size_t num_keys);

  // Heap bytes held by the stripe tables (the index's whole footprint).
  size_t memory_bytes() const;

  // Enumerates live (key, value) pairs in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Stripe& stripe : stripes_) {
      for (const Entry& entry : stripe.entries) {
        if (entry.tagged >= kPresentBit) fn(entry.key, entry.tagged - kPresentBit);
      }
    }
  }

 private:
  // 16 bytes flat: the key plus the value with the entry state folded into
  // `tagged` — 0 empty, 1 tombstone, bit 63 set means present and the low
  // 63 bits are the stored value (hence the < 2^63 value contract).
  static constexpr uint64_t kEmptyTag = 0;
  static constexpr uint64_t kTombstoneTag = 1;
  static constexpr uint64_t kPresentBit = uint64_t{1} << 63;

  struct Entry {
    uint64_t key = 0;
    uint64_t tagged = kEmptyTag;
  };

  struct Stripe {
    std::vector<Entry> entries;  // power-of-two size (or empty)
    size_t live = 0;             // kPresent entries
    size_t used = 0;             // kPresent + kTombstone entries
  };

  static constexpr int kStripeBits = 6;
  static constexpr size_t kNumStripes = size_t{1} << kStripeBits;
  static constexpr size_t kMinStripeCapacity = 16;

  Stripe& StripeOf(uint64_t hash) {
    return stripes_[hash >> (64 - kStripeBits)];
  }
  const Stripe& StripeOf(uint64_t hash) const {
    return stripes_[hash >> (64 - kStripeBits)];
  }
  // Index of the key's entry, or of the slot an insert should take
  // (first tombstone on the probe path, else the empty that ended it).
  static size_t Probe(const Stripe& stripe, uint64_t key, uint64_t hash,
                      bool* found);
  static void Grow(Stripe* stripe, size_t min_live_capacity);

  std::vector<Stripe> stripes_;
  size_t num_live_ = 0;
};

}  // namespace fasthist

#endif  // FASTHIST_STORE_KEY_INDEX_H_
