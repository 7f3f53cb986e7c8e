#include "store/key_index.h"

#include <utility>

namespace fasthist {

KeyIndex::KeyIndex() : stripes_(kNumStripes) {}

size_t KeyIndex::Probe(const Stripe& stripe, uint64_t key, uint64_t hash,
                       bool* found) {
  const size_t mask = stripe.entries.size() - 1;
  size_t index = static_cast<size_t>(hash) & mask;
  size_t first_tombstone = stripe.entries.size();  // "none seen"
  for (;;) {
    const Entry& entry = stripe.entries[index];
    if (entry.tagged == kEmptyTag) {
      *found = false;
      return first_tombstone < stripe.entries.size() ? first_tombstone : index;
    }
    if (entry.tagged == kTombstoneTag) {
      if (first_tombstone == stripe.entries.size()) first_tombstone = index;
    } else if (entry.key == key) {
      *found = true;
      return index;
    }
    index = (index + 1) & mask;
  }
}

void KeyIndex::Grow(Stripe* stripe, size_t min_live_capacity) {
  // Size for <= 2/3 live occupancy after the rehash (the probe-length /
  // bytes-per-key sweet spot for the store's 16-byte entries); tombstones
  // are dropped, so deletes never ratchet the table size upward.
  size_t capacity = kMinStripeCapacity;
  while (2 * capacity < 3 * min_live_capacity) capacity *= 2;
  std::vector<Entry> old = std::move(stripe->entries);
  stripe->entries.assign(capacity, Entry{});
  stripe->used = stripe->live;
  const size_t mask = capacity - 1;
  for (const Entry& entry : old) {
    if (entry.tagged < kPresentBit) continue;
    size_t index = static_cast<size_t>(Hash(entry.key)) & mask;
    while (stripe->entries[index].tagged != kEmptyTag) {
      index = (index + 1) & mask;
    }
    stripe->entries[index] = entry;
  }
}

uint64_t KeyIndex::FindHashed(uint64_t key, uint64_t hash) const {
  const Stripe& stripe = StripeOf(hash);
  if (stripe.entries.empty()) return kNotFound;
  bool found = false;
  const size_t index = Probe(stripe, key, hash, &found);
  if (!found) return kNotFound;
  return stripe.entries[index].tagged - kPresentBit;
}

bool KeyIndex::Insert(uint64_t key, uint64_t value) {
  const uint64_t hash = Hash(key);
  Stripe& stripe = StripeOf(hash);
  // Grow at 3/4 *used* (live + tombstones): the probe loop's termination
  // and speed both depend on empty slots existing.
  if (stripe.entries.empty() ||
      4 * (stripe.used + 1) > 3 * stripe.entries.size()) {
    Grow(&stripe, stripe.live + 1);
  }
  bool found = false;
  const size_t index = Probe(stripe, key, hash, &found);
  if (found) return false;
  if (stripe.entries[index].tagged == kEmptyTag) ++stripe.used;
  stripe.entries[index] = Entry{key, value | kPresentBit};
  ++stripe.live;
  ++num_live_;
  return true;
}

bool KeyIndex::Assign(uint64_t key, uint64_t value) {
  const uint64_t hash = Hash(key);
  Stripe& stripe = StripeOf(hash);
  if (stripe.entries.empty()) return false;
  bool found = false;
  const size_t index = Probe(stripe, key, hash, &found);
  if (!found) return false;
  stripe.entries[index].tagged = value | kPresentBit;
  return true;
}

bool KeyIndex::Erase(uint64_t key) {
  const uint64_t hash = Hash(key);
  Stripe& stripe = StripeOf(hash);
  if (stripe.entries.empty()) return false;
  bool found = false;
  const size_t index = Probe(stripe, key, hash, &found);
  if (!found) return false;
  stripe.entries[index].tagged = kTombstoneTag;
  --stripe.live;
  --num_live_;
  return true;
}

void KeyIndex::Reserve(size_t num_keys) {
  // Even split plus slack: the splitmix64 spread over 64 stripes is close
  // enough to uniform that +1/8 headroom keeps every stripe under its grow
  // threshold at the target size.
  const size_t per_stripe =
      num_keys / kNumStripes + num_keys / (8 * kNumStripes) + 1;
  for (Stripe& stripe : stripes_) {
    if (2 * stripe.entries.size() < 3 * per_stripe) Grow(&stripe, per_stripe);
  }
}

size_t KeyIndex::memory_bytes() const {
  size_t bytes = stripes_.capacity() * sizeof(Stripe);
  for (const Stripe& stripe : stripes_) {
    bytes += stripe.entries.capacity() * sizeof(Entry);
  }
  return bytes;
}

}  // namespace fasthist
