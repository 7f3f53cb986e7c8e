#ifndef FASTHIST_STORE_ARCHETYPE_POOL_H_
#define FASTHIST_STORE_ARCHETYPE_POOL_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/merging.h"
#include "dist/histogram.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// One keyed observation: `value` joins the streaming summary of `key`.
struct KeyedSample {
  uint64_t key = 0;
  int64_t value = 0;
};

// The shape shared by every summary in one pool: all per-slot plane sizes
// are functions of these fields, which is what lets thousands of keyed
// ladders share slabs with zero per-key headers.
struct ArchetypeConfig {
  int64_t domain_size = 1024;
  // Pieces knob of every condense and merge (summaries have ~2k+1 pieces).
  int64_t k = 8;
  // Piecewise-polynomial degree, reserved for the poly/ layer: only 0
  // (flat histogram summaries) is implemented; the field exists so configs
  // written today stay forward-compatible with a poly-backed pool.
  int degree = 0;
  // Per-key buffer: samples accumulate here and are condensed into the
  // slot's dyadic ladder one full window at a time (the
  // StreamingHistogramBuilder buffer_capacity, per key).
  size_t window_capacity = 64;
  // delta/gamma/num_threads applied to every condense and merge.
  MergingOptions options;
};

// Archetype identity: two configs that produce bit-identical summaries from
// the same samples are the same archetype.  num_threads is deliberately
// ignored — the engine is thread-invariant, so it is a run knob, not an
// identity bit.
bool SameArchetype(const ArchetypeConfig& a, const ArchetypeConfig& b);

// A pool of fixed-shape summary slots for one archetype, laid out as
// structure-of-arrays slabs (ECS style): a chunk owns kSlotsPerChunk slots,
// and each logical field of "a streaming builder" lives in its own
// contiguous plane — sample windows, window lengths, summarized counts,
// liveness, and one (ends, values, piece_count, count) plane set per ladder
// level, allocated lazily the first time any slot in the chunk carries that
// deep.  Per-key state is therefore pure array slices: no Histogram, no
// std::vector, no heap object per key — the entire per-key overhead beyond
// the payload planes is one index entry plus this pool's amortized chunk
// bookkeeping.
//
// Every slot runs the *same* ladder computation as a standalone
// StreamingHistogramBuilder — Append mirrors AddMany (valid-prefix
// semantics included), the commit/fold steps are the shared
// streaming_ladder hooks — so a slot's Query is bit-identical to a builder
// fed the same per-key subsequence (property-tested).
//
// Concurrency: structurally serial, with one carve-out the summary store's
// batched ingest contract relies on — concurrent Append/Query on *distinct
// slots* is safe provided no slot is concurrently allocated or released.
// Distinct slots touch disjoint plane slices, and the only shared mutation,
// growing a chunk's lazy ladder by one level plane, is published by
// compare-and-swap so concurrent deepeners agree on one plane.
class ArchetypePool {
 public:
  static constexpr size_t kSlotsPerChunk = 256;
  // A level ladder this deep summarizes 2^40 windows; the fixed array is an
  // address-stability requirement (concurrent readers hold plane pointers),
  // not a memory cost — vacant levels are null.
  static constexpr int kMaxLadderLevels = 40;

  static StatusOr<ArchetypePool> Create(const ArchetypeConfig& config);

  ArchetypePool(ArchetypePool&&) = default;
  ArchetypePool& operator=(ArchetypePool&&) = default;

  const ArchetypeConfig& config() const { return config_; }
  // Pieces capacity of one ladder-slot slice: every engine output fits
  // (internal::MaxSurvivingPieces, clamped by the domain).
  int64_t piece_capacity() const { return piece_capacity_; }

  // Slot lifecycle (serial contexts only).  AllocateSlot reuses the
  // youngest released slot first (LIFO keeps the hot end of the freelist
  // cache-resident), else bump-allocates, growing by one chunk when full.
  // The returned ref packs (chunk, slot); `key` is stamped into the slot's
  // key plane for reverse lookup during sweeps.
  StatusOr<uint64_t> AllocateSlot(uint64_t key);
  // Vacates the slot (window, ladder occupancy, counters) and recycles it.
  // The planes stay allocated — a workload that churns keys reuses slabs
  // instead of growing them (stress-tested).
  Status ReleaseSlot(uint64_t ref);

  // Appends the values of `run` (samples of this slot's key) to the slot's
  // window, condensing into its ladder one full window at a time.  Same
  // semantics as StreamingHistogramBuilder::AddMany, per slot.
  Status Append(uint64_t ref, Span<const KeyedSample> run);

  // The slot's current summary — the same read-side fold as
  // StreamingHistogramBuilder::Peek (uniform when empty).
  StatusOr<Histogram> Query(uint64_t ref) const;

  int64_t NumSamples(uint64_t ref) const;
  // Lemma-4.2 error levels of the summary Query returns now (the
  // streaming_ladder::ErrorLevels convention).
  int ErrorLevels(uint64_t ref) const;
  uint64_t KeyOf(uint64_t ref) const;

  size_t num_live_slots() const { return num_live_; }

  // Pre-allocates chunks for `num_slots` total slots.
  Status ReserveSlots(size_t num_slots);

  struct MemoryStats {
    size_t total_bytes = 0;    // all plane + bookkeeping heap bytes
    size_t payload_bytes = 0;  // live slots' window + occupied ladder slices
    // Vacant carry slices of live slots: levels a slot's ladder has grown
    // past but holds no pieces in right now (16 windows = binary 10000
    // occupies level 4 only, levels 0-3 sit empty between carries).  A
    // structural cost of the dyadic ladder itself — it scales with depth,
    // not with key count — so it is accounted apart from both the payload
    // and the per-key store tax.
    size_t slack_bytes = 0;
  };
  MemoryStats memory() const;

  // Enumerates live slots as (ref, key), chunk-major (= allocation order).
  template <typename Fn>
  void ForEachLiveSlot(Fn&& fn) const {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      const Chunk& chunk = *chunks_[c];
      for (size_t s = 0; s < kSlotsPerChunk; ++s) {
        if (chunk.live[s]) fn(PackRef(c, s), chunk.key[s]);
      }
    }
  }

 private:
  // One ladder level's planes for a whole chunk: slot s owns
  // [s * piece_capacity, (s+1) * piece_capacity) of ends/values and entry s
  // of piece_count/count.  count == 0 means vacant (matching the
  // streaming_ladder Storage concept).
  struct LevelPlane {
    std::vector<int64_t> ends;
    std::vector<double> values;
    std::vector<int32_t> piece_count;
    std::vector<int64_t> count;
  };

  struct Chunk {
    std::vector<int64_t> window;      // kSlotsPerChunk * window_capacity
    std::vector<int32_t> window_len;  // per slot
    std::vector<int64_t> summarized;  // per slot
    std::vector<uint64_t> key;        // per slot
    std::vector<uint8_t> live;        // per slot
    // Lazily-deepened ladder: levels[L] is null until some slot commits at
    // depth L.  Publication is CAS on the pointer, then a release bump of
    // num_levels; readers acquire num_levels and only then dereference.
    std::array<std::atomic<LevelPlane*>, kMaxLadderLevels> levels{};
    std::atomic<int> num_levels{0};

    ~Chunk() {
      for (auto& level : levels) delete level.load(std::memory_order_relaxed);
    }
  };

  struct SlotLadder;  // streaming_ladder Storage adapter, in the .cc

  explicit ArchetypePool(const ArchetypeConfig& config);

  static uint64_t PackRef(size_t chunk, size_t slot) {
    return (static_cast<uint64_t>(chunk) << 16) | static_cast<uint64_t>(slot);
  }
  static size_t ChunkOf(uint64_t ref) { return static_cast<size_t>(ref >> 16); }
  static size_t SlotOf(uint64_t ref) {
    return static_cast<size_t>(ref & 0xffff);
  }

  Status AddChunk();
  Status FlushWindow(Chunk& chunk, size_t slot);

  ArchetypeConfig config_;
  int64_t piece_capacity_ = 0;
  // unique_ptr per chunk: plane addresses must survive chunks_ growing
  // (concurrent Appends to older chunks hold slices into them).
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<uint64_t> free_slots_;  // packed refs, LIFO
  size_t next_unused_ = 0;            // bump cursor: slots never yet handed out
  size_t num_live_ = 0;
};

}  // namespace fasthist

#endif  // FASTHIST_STORE_ARCHETYPE_POOL_H_
