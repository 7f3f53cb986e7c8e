#include "store/archetype_pool.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>

#include "core/internal/merge_engine.h"
#include "core/streaming.h"
#include "core/streaming_ladder.h"

namespace fasthist {

namespace {

// Frees a window plane allocated as `new T[n]` (ArchetypePool::WindowPlane).
template <typename T>
void DeleteWindowPlane(void* plane) {
  delete[] static_cast<T*>(plane);
}

// Where WindowValues widens narrow windows: one per thread, grown to the
// largest window it has held and never shrunk, so a warm thread's condense
// allocates nothing for it.
std::vector<int64_t>& WidenScratch() {
  thread_local std::vector<int64_t> scratch;
  return scratch;
}

}  // namespace

// The streaming_ladder Storage adapter over one slot's plane slices.  All
// slot state lives at fixed offsets inside the chunk's planes; the adapter
// is just the arithmetic.  Mutating calls are only reached via non-const
// pool entry points.
struct ArchetypePool::SlotLadder {
  Chunk* chunk;
  size_t slot;
  int64_t domain_size;
  int64_t piece_capacity;

  LevelPlane* plane(int level) const {
    return chunk->levels[static_cast<size_t>(level)].get();
  }

  // Chunk-wide, not per-slot: a slot sees every level its chunk ever grew.
  // Vacant slots (count == 0) make Commit and Fold skip them, so the extra
  // levels are invisible to the computation — only to the loop bounds.
  int levels() const { return chunk->num_levels; }

  int64_t count(int level) const { return plane(level)->count[slot]; }

  StatusOr<Histogram> Load(int level) const {
    const LevelPlane& p = *plane(level);
    const size_t base = slot * static_cast<size_t>(piece_capacity);
    const auto num_pieces = static_cast<size_t>(p.piece_count[slot]);
    std::vector<HistogramPiece> pieces(num_pieces);
    int64_t begin = 0;
    for (size_t i = 0; i < num_pieces; ++i) {
      pieces[i].interval = {begin, p.ends[base + i]};
      pieces[i].value = p.values[base + i];
      begin = p.ends[base + i];
    }
    return Histogram::Create(domain_size, std::move(pieces));
  }

  Status Store(int level, Histogram histogram, int64_t sample_count) {
    const auto num_pieces = static_cast<size_t>(histogram.num_pieces());
    if (num_pieces > static_cast<size_t>(piece_capacity)) {
      // Unreachable by construction (piece_capacity bounds every engine
      // output); checked so a future knob change fails loudly, not by
      // writing into a neighbor slot's slice.
      return Status::Invalid("ArchetypePool: summary exceeds piece capacity");
    }
    LevelPlane& p = *plane(level);
    const size_t base = slot * static_cast<size_t>(piece_capacity);
    for (size_t i = 0; i < num_pieces; ++i) {
      p.ends[base + i] = histogram.pieces()[i].interval.end;
      p.values[base + i] = histogram.pieces()[i].value;
    }
    p.piece_count[slot] = static_cast<int32_t>(num_pieces);
    p.count[slot] = sample_count;
    return Status::Ok();
  }

  void Clear(int level) { plane(level)->count[slot] = 0; }

  Status PushLevel() {
    if (chunk->num_levels >= kMaxLadderLevels) {
      return Status::Invalid("ArchetypePool: ladder depth limit reached");
    }
    auto plane = std::make_unique<LevelPlane>();
    const size_t plane_pieces =
        kSlotsPerChunk * static_cast<size_t>(piece_capacity);
    plane->ends.assign(plane_pieces, 0);
    plane->values.assign(plane_pieces, 0.0);
    plane->piece_count.assign(kSlotsPerChunk, 0);
    plane->count.assign(kSlotsPerChunk, 0);
    chunk->levels[static_cast<size_t>(chunk->num_levels++)] = std::move(plane);
    return Status::Ok();
  }
};

StatusOr<ArchetypePool> ArchetypePool::Create(const ArchetypeConfig& config) {
  if (config.domain_size <= 0) {
    return Status::Invalid("ArchetypePool: domain must be positive");
  }
  if (config.k < 1) {
    return Status::Invalid("ArchetypePool: k must be >= 1");
  }
  if (config.window_capacity == 0) {
    return Status::Invalid("ArchetypePool: window must be >= 1");
  }
  // Window lengths are int32_t, and a chunk's window plane is one
  // allocation of kSlotsPerChunk * window_capacity values.
  if (config.window_capacity >
          static_cast<size_t>(std::numeric_limits<int32_t>::max()) ||
      config.window_capacity > std::numeric_limits<size_t>::max() /
                                   kSlotsPerChunk /
                                   WindowValueBytes(config.domain_size)) {
    return Status::Invalid("ArchetypePool: window capacity too large");
  }
  if (Status s = ValidateMergingOptions(config.options); !s.ok()) return s;
  return ArchetypePool(config);
}

size_t ArchetypePool::WindowValueBytes(int64_t domain_size) {
  // Unsigned, so a non-positive domain (rejected by Create) maps to 8.
  const uint64_t largest = static_cast<uint64_t>(domain_size) - 1;
  if (largest <= std::numeric_limits<uint16_t>::max()) return sizeof(uint16_t);
  return sizeof(int64_t);
}

ArchetypePool::ArchetypePool(const ArchetypeConfig& config)
    : config_(config),
      piece_capacity_(std::min(
          internal::MaxSurvivingPieces(config.k, config.options),
          config.domain_size)),
      window_bytes_(WindowValueBytes(config.domain_size)) {}

Status ArchetypePool::AddChunk() {
  auto chunk = std::make_unique<Chunk>();
  const size_t window_values = kSlotsPerChunk * config_.window_capacity;
  // Create bounds the plane's size, not the heap: a plane the heap cannot
  // supply comes back as a status, not as std::bad_alloc.  A plain new[],
  // not the nothrow form, so a program that replaces operator new (an
  // allocation counter) also gets the delete[] that matches it.
  try {
    chunk->window = WithWindowType([&](auto zero) {
      using T = decltype(zero);
      return WindowPlane(new T[window_values](), &DeleteWindowPlane<T>);
    });
  } catch (const std::bad_alloc&) {
    return Status::Invalid("ArchetypePool: window plane allocation failed");
  }
  chunk->window_len.assign(kSlotsPerChunk, 0);
  chunk->summarized.assign(kSlotsPerChunk, 0);
  chunks_.push_back(std::move(chunk));
  return Status::Ok();
}

StatusOr<uint64_t> ArchetypePool::AllocateSlot() {
  if (next_unused_ == chunks_.size() * kSlotsPerChunk) {
    if (Status s = AddChunk(); !s.ok()) return s;
  }
  // A fresh slot's planes are still as AddChunk zeroed them: empty window,
  // no samples, every ladder level vacant.
  const uint64_t ref =
      PackRef(next_unused_ / kSlotsPerChunk, next_unused_ % kSlotsPerChunk);
  ++next_unused_;
  return ref;
}

Span<const int64_t> ArchetypePool::WindowValues(const Chunk& chunk,
                                                size_t slot,
                                                size_t len) const {
  return WithWindowType([&](auto zero) {
    using T = decltype(zero);
    const T* window = WindowOf<T>(chunk, slot);
    if constexpr (std::is_same_v<T, int64_t>) {
      return Span<const int64_t>(window, len);
    } else {
      std::vector<int64_t>& widened = WidenScratch();
      if (widened.size() < len) widened.resize(len);
      std::copy(window, window + len, widened.begin());
      return Span<const int64_t>(widened.data(), len);
    }
  });
}

Status ArchetypePool::FlushWindow(Chunk& chunk, size_t slot) {
  const auto len = static_cast<size_t>(chunk.window_len[slot]);
  if (len == 0) return Status::Ok();
  // Condense the window to a level-0 summary, then dyadic-carry it — the
  // exact Flush path of StreamingHistogramBuilder, over plane storage.
  auto condensed = StreamingHistogramBuilder::FoldBufferIntoSummary(
      nullptr, 0, WindowValues(chunk, slot, len), config_.domain_size,
      config_.k, config_.options);
  if (!condensed.ok()) return condensed.status();
  SlotLadder ladder{&chunk, slot, config_.domain_size, piece_capacity_};
  if (Status s = streaming_ladder::Commit(ladder, std::move(condensed).value(),
                                          static_cast<int64_t>(len), config_.k,
                                          config_.options);
      !s.ok()) {
    return s;
  }
  chunk.summarized[slot] += static_cast<int64_t>(len);
  chunk.window_len[slot] = 0;
  return Status::Ok();
}

Status ArchetypePool::Append(uint64_t ref, Span<const KeyedSample> run) {
  if (!Allocated(ref)) {
    return Status::Invalid("ArchetypePool: append to a slot not allocated");
  }
  return Append(Resolve(ref), run);
}

Status ArchetypePool::Append(SlotHandle handle, Span<const KeyedSample> run) {
  Chunk& chunk = *handle.chunk_;
  const size_t slot = handle.slot_;
  // The loop lives in the dispatch lambda, not in a member template, so it
  // inlines into Append: called out of line, it made AddBatch ~15 % slower
  // per sample on a 131072-key partition.
  return WithWindowType([&](auto zero) {
    using T = decltype(zero);
    T* window = WindowOf<T>(chunk, slot);
    size_t i = 0;
    while (i < run.size()) {
      auto len = static_cast<size_t>(chunk.window_len[slot]);
      const size_t space = config_.window_capacity - len;
      const size_t take = std::min(space, run.size() - i);
      // AddMany's valid-prefix contract: on an out-of-domain sample the
      // valid prefix is still appended, so slot state matches a per-sample
      // loop.
      size_t valid = 0;
      while (valid < take) {
        const int64_t sample = run[i + valid].value;
        // Checked at full width, before the narrowing store: a value that
        // would wrap into the domain (65536 + 5 in 16 bits) is rejected.
        if (sample < 0 || sample >= config_.domain_size) break;
        window[len + valid] = static_cast<T>(sample);
        ++valid;
      }
      chunk.window_len[slot] = static_cast<int32_t>(len + valid);
      if (valid < take) {
        return Status::Invalid("ArchetypePool: sample out of domain");
      }
      i += take;
      if (static_cast<size_t>(chunk.window_len[slot]) >=
          config_.window_capacity) {
        if (Status s = FlushWindow(chunk, slot); !s.ok()) return s;
      }
    }
    return Status::Ok();
  });
}

StatusOr<Histogram> ArchetypePool::Query(uint64_t ref) const {
  if (!Allocated(ref)) {
    return Status::Invalid("ArchetypePool: query of a slot not allocated");
  }
  // Sound for the same reason as StreamingHistogramBuilder's const views:
  // the read-side fold only calls the adapter's const operations.
  auto& chunk = const_cast<Chunk&>(*chunks_[ChunkOf(ref)]);
  const size_t slot = SlotOf(ref);
  const auto len = static_cast<size_t>(chunk.window_len[slot]);
  const int64_t summarized = chunk.summarized[slot];
  if (summarized == 0 && len == 0) {
    return Histogram::Create(config_.domain_size,
                             {{{0, config_.domain_size},
                               1.0 / static_cast<double>(config_.domain_size)}});
  }
  if (summarized == 0) {
    return StreamingHistogramBuilder::FoldBufferIntoSummary(
        nullptr, 0, WindowValues(chunk, slot, len), config_.domain_size,
        config_.k, config_.options);
  }
  SlotLadder ladder{&chunk, slot, config_.domain_size, piece_capacity_};
  auto committed = streaming_ladder::Fold(ladder, config_.k, config_.options);
  if (!committed.ok()) return committed.status();
  if (len == 0) return committed;
  return StreamingHistogramBuilder::FoldBufferIntoSummary(
      &*committed, summarized, WindowValues(chunk, slot, len),
      config_.domain_size, config_.k, config_.options);
}

StatusOr<int64_t> ArchetypePool::Quantile(uint64_t ref, double q) const {
  if (!Allocated(ref)) {
    return Status::Invalid("ArchetypePool: quantile of a slot not allocated");
  }
  const Chunk& chunk = *chunks_[ChunkOf(ref)];
  const size_t slot = SlotOf(ref);
  const auto len = static_cast<size_t>(chunk.window_len[slot]);
  const int64_t num_samples =
      chunk.summarized[slot] + static_cast<int64_t>(len);
  if (num_samples == 0) {
    return Status::Invalid("ArchetypePool: quantile of a slot with no samples");
  }
  // NaN lands at 0 here, not in the comparisons below.
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(num_samples);

  // The occupied ladder slots, highest level first: a slice of pieces, its
  // sample count and its mass.
  struct Term {
    const int64_t* ends;
    const double* values;
    size_t num_pieces;
    double count;
    double mass;
  };
  std::array<Term, kMaxLadderLevels> terms{};
  size_t num_terms = 0;
  // Mass of a slice's pieces below y.  One statement sums every piece, the
  // last one cut at y, so each term is monotone in y even where the
  // compiler fuses the multiply-add, and M_l is this at domain_size.
  const auto mass_below = [](const Term& term, int64_t y) {
    double mass = 0.0;
    int64_t begin = 0;
    for (size_t i = 0; i < term.num_pieces && begin < y; ++i) {
      mass += term.values[i] *
              static_cast<double>(std::min(term.ends[i], y) - begin);
      begin = term.ends[i];
    }
    return mass;
  };
  const size_t base = slot * static_cast<size_t>(piece_capacity_);
  for (int level = chunk.num_levels; level-- > 0;) {
    const LevelPlane& plane = *chunk.levels[static_cast<size_t>(level)];
    if (plane.count[slot] == 0) continue;
    Term& term = terms[num_terms++];
    term.ends = plane.ends.data() + base;
    term.values = plane.values.data() + base;
    term.num_pieces = static_cast<size_t>(plane.piece_count[slot]);
    term.count = static_cast<double>(plane.count[slot]);
    // Aggregator::Create's checks.
    for (size_t i = 0; i < term.num_pieces; ++i) {
      if (!(std::isfinite(term.values[i]) && term.values[i] >= 0.0)) {
        return Status::Invalid(
            "ArchetypePool: ladder slot values must be finite and "
            "non-negative");
      }
    }
    term.mass = mass_below(term, config_.domain_size);
    if (!(term.mass > 0.0 && std::isfinite(term.mass))) {
      return Status::Invalid(
          "ArchetypePool: ladder slot mass must be finite and positive");
    }
  }

  return WithWindowType([&](auto zero) -> int64_t {
    using T = decltype(zero);
    const T* window = WindowOf<T>(chunk, slot);
    const auto mixture_at_most = [&](int64_t x) {
      double below = 0.0;
      for (size_t t = 0; t < num_terms; ++t) {
        below += terms[t].count *
                 (mass_below(terms[t], x + 1) / terms[t].mass);
      }
      // Compared at the stored width: x < domain_size fits T.  len fits
      // int32_t, so the count fits uint32_t.
      const auto top = static_cast<T>(x);
      uint32_t in_window = 0;
      for (size_t i = 0; i < len; ++i) in_window += window[i] <= top;
      return below + static_cast<double>(in_window);
    };
    // x = domain_size - 1, where F is N, is never evaluated: it is the
    // answer when no smaller x reaches the target.
    int64_t lo = 0;
    int64_t hi = config_.domain_size - 1;
    while (lo < hi) {
      const int64_t mid = lo + (hi - lo) / 2;
      if (mixture_at_most(mid) >= target) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  });
}

int64_t ArchetypePool::NumSamples(uint64_t ref) const {
  if (!Allocated(ref)) return 0;
  const Chunk& chunk = *chunks_[ChunkOf(ref)];
  const size_t slot = SlotOf(ref);
  return chunk.summarized[slot] + chunk.window_len[slot];
}

int ArchetypePool::ErrorLevels(uint64_t ref) const {
  if (!Allocated(ref)) return 0;
  auto& chunk = const_cast<Chunk&>(*chunks_[ChunkOf(ref)]);
  const size_t slot = SlotOf(ref);
  SlotLadder ladder{&chunk, slot, config_.domain_size, piece_capacity_};
  return streaming_ladder::ErrorLevels(streaming_ladder::Depth(ladder),
                                       streaming_ladder::Slots(ladder),
                                       chunk.window_len[slot] > 0);
}

Status ArchetypePool::ReserveSlots(size_t num_slots) {
  while (chunks_.size() * kSlotsPerChunk < num_slots) {
    if (Status s = AddChunk(); !s.ok()) return s;
  }
  return Status::Ok();
}

ArchetypePool::MemoryStats ArchetypePool::memory() const {
  MemoryStats stats;
  stats.total_bytes += chunks_.capacity() * sizeof(chunks_[0]);
  const size_t bytes_per_slice =
      static_cast<size_t>(piece_capacity_) * (sizeof(int64_t) + sizeof(double));
  const size_t bytes_per_window = config_.window_capacity * window_bytes_;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    const Chunk& chunk = *chunks_[c];
    stats.total_bytes += sizeof(Chunk) + kSlotsPerChunk * bytes_per_window +
                         chunk.window_len.capacity() * sizeof(int32_t) +
                         chunk.summarized.capacity() * sizeof(int64_t);
    for (int level = 0; level < chunk.num_levels; ++level) {
      const LevelPlane& plane = *chunk.levels[static_cast<size_t>(level)];
      stats.total_bytes += sizeof(LevelPlane) +
                           plane.ends.capacity() * sizeof(int64_t) +
                           plane.values.capacity() * sizeof(double) +
                           plane.piece_count.capacity() * sizeof(int32_t) +
                           plane.count.capacity() * sizeof(int64_t);
    }
    // Payload: what a key's summary inherently costs — its sample window
    // plus its occupied ladder slices at capacity.  An allocated slot's
    // vacant slices of allocated planes are slack (carry-vacancy of the
    // dyadic ladder, see MemoryStats).  Everything else — index, per-slot
    // bookkeeping, the plane capacity of slots not yet handed out — is the
    // overhead the <= 150 bytes/key budget measures.
    const size_t first = c * kSlotsPerChunk;  // reserved chunks hold none
    const size_t allocated =
        next_unused_ > first ? std::min(kSlotsPerChunk, next_unused_ - first)
                             : 0;
    for (size_t slot = 0; slot < allocated; ++slot) {
      stats.payload_bytes += bytes_per_window;
      for (int level = 0; level < chunk.num_levels; ++level) {
        if (chunk.levels[static_cast<size_t>(level)]->count[slot] > 0) {
          stats.payload_bytes += bytes_per_slice;
        } else {
          stats.slack_bytes += bytes_per_slice;
        }
      }
    }
  }
  return stats;
}

}  // namespace fasthist
