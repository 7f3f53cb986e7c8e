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
// while the store fills.
//
// Insert-only: a key, once in, stays for the index's lifetime (the store
// never erases), so a probe ends at the first empty entry.  Not
// thread-safe: one thread at a time, like the store.
class KeyIndex {
 public:
  // Returned by Find when the key is absent.  Valid stored values are
  // < 2^63 (the top bit is the internal presence tag), which the pool's
  // (chunk, slot) refs satisfy by construction.
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

  size_t size() const { return size_; }

  // Pre-sizes every stripe for `num_keys` total keys so the fill phase
  // never rehashes.
  void Reserve(size_t num_keys);

  // Heap bytes held by the stripe tables (the index's whole footprint).
  size_t memory_bytes() const;

 private:
  // 16 bytes flat: the key plus the value with the entry state folded into
  // `tagged` — 0 empty, bit 63 set means present and the low 63 bits are
  // the stored value (hence the < 2^63 value contract).
  static constexpr uint64_t kEmptyTag = 0;
  static constexpr uint64_t kPresentBit = uint64_t{1} << 63;

  struct Entry {
    uint64_t key = 0;
    uint64_t tagged = kEmptyTag;
  };

  struct Stripe {
    std::vector<Entry> entries;  // power-of-two size (or empty)
    size_t size = 0;             // present entries
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
  // Index of the key's entry, or of the empty entry that ended the probe
  // (where an insert goes).
  static size_t Probe(const Stripe& stripe, uint64_t key, uint64_t hash,
                      bool* found);
  static void Grow(Stripe* stripe, size_t min_size);

  std::vector<Stripe> stripes_;
  size_t size_ = 0;
};

}  // namespace fasthist

#endif  // FASTHIST_STORE_KEY_INDEX_H_
