// The keyed summary store's contracts: per-key summaries bit-identical to
// standalone streaming builders (the store changes layout, never the
// computation), the pool's refusal of refs it never handed out, the
// two-level key index against a reference map under collision-heavy fuzz,
// served quantiles against a dense scan of the ladder mixture, and
// cross-key reductions of keyed exports against hand-built merge trees.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/streaming.h"
#include "core/streaming_ladder.h"
#include "data/generators.h"
#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#include "service/aggregator.h"
#include "service/merge_tree.h"
#include "service/wire_format.h"
#include "store/key_index.h"
#include "store/summary_store.h"
#include "tests/fasthist_test.h"
#include "tests/histogram_testutil.h"
#include "util/random.h"

namespace fasthist {
namespace {

using testing::BitIdentical;

// Interleaved keyed stream: round-robin-ish assignment with random batch
// sizes, so keys hit different window/ladder phases.
std::vector<KeyedSample> MakeKeyedStream(size_t num_keys, size_t num_samples,
                                         int64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<KeyedSample> samples(num_samples);
  for (KeyedSample& sample : samples) {
    // Skewed key popularity: low keys are hot, so some keys run many
    // windows deep while others never fill their first.
    const auto key = static_cast<uint64_t>(
        rng.UniformInt(static_cast<int64_t>(num_keys)) *
        rng.UniformInt(static_cast<int64_t>(num_keys)) /
        static_cast<int64_t>(num_keys));
    sample.key = key * 2654435761u + 7;  // spread ids over the key space
    sample.value = rng.UniformInt(domain);
    }
  return samples;
}

// Every key's summary, sample count, and error levels must be bit-for-bit
// what a standalone StreamingHistogramBuilder produces from that key's
// subsequence — across shapes (k, delta, window), one store per shape, on
// three streams.
TEST(StorePerKeyBitIdenticalToStandaloneBuilders) {
  const int64_t domain = 512;
  struct Shape {
    int64_t k;
    double delta;
    size_t window;
  };
  const Shape shapes[] = {{4, 1000.0, 32}, {8, 50.0, 64}, {12, 1000.0, 48}};
  constexpr size_t kNumShapes = sizeof(shapes) / sizeof(shapes[0]);
  for (const uint64_t seed : {0xfeed + 1, 0xfeed + 2, 0xfeed + 8}) {
    std::vector<ArchetypeConfig> configs;
    std::vector<SummaryStore> stores;
    for (const Shape& shape : shapes) {
      ArchetypeConfig config;
      config.domain_size = domain;
      config.k = shape.k;
      config.window_capacity = shape.window;
      config.options.delta = shape.delta;
      auto store = SummaryStore::Create(config);
      CHECK_OK(store);
      configs.push_back(config);
      stores.push_back(std::move(store).value());
    }

    const std::vector<KeyedSample> stream =
        MakeKeyedStream(24, 20000, domain, seed);
    // Keys are spread over the three shapes' stores by residue; ingest in
    // a few batches so mid-stream window states are exercised too.
    const auto shape_of = [](uint64_t key) { return key % kNumShapes; };
    const size_t batch = stream.size() / 3 + 1;
    for (size_t begin = 0; begin < stream.size(); begin += batch) {
      const size_t len = std::min(batch, stream.size() - begin);
      std::vector<KeyedSample> slice(stream.begin() + begin,
                                     stream.begin() + begin + len);
      // Split the slice per shape (each store holds one shape).
      for (size_t shape = 0; shape < kNumShapes; ++shape) {
        std::vector<KeyedSample> part;
        for (const KeyedSample& sample : slice) {
          if (shape_of(sample.key) == shape) part.push_back(sample);
        }
        if (!part.empty()) CHECK(stores[shape].AddBatch(part).ok());
      }
    }

    // Reference: one standalone builder per key, fed the key's subsequence.
    std::unordered_map<uint64_t, StreamingHistogramBuilder> builders;
    for (const KeyedSample& sample : stream) {
      auto it = builders.find(sample.key);
      if (it == builders.end()) {
        const ArchetypeConfig& config = configs[shape_of(sample.key)];
        auto builder = StreamingHistogramBuilder::Create(
            config.domain_size, config.k, config.window_capacity,
            config.options);
        CHECK_OK(builder);
        it = builders.emplace(sample.key, std::move(builder).value()).first;
      }
      CHECK(it->second.Add(sample.value).ok());
    }

    size_t num_keys = 0;
    for (const SummaryStore& store : stores) num_keys += store.num_keys();
    CHECK(num_keys == builders.size());
    for (auto& [key, builder] : builders) {
      const SummaryStore* store = &stores[shape_of(key)];
      auto stored = store->Query(key);
      CHECK_OK(stored);
      auto reference = builder.Peek();
      CHECK_OK(reference);
      CHECK(BitIdentical(*stored, *reference));
      auto num_samples = store->NumSamples(key);
      CHECK_OK(num_samples);
      CHECK(*num_samples == builder.num_samples());
      auto error_levels = store->ErrorLevels(key);
      CHECK_OK(error_levels);
      CHECK(*error_levels == builder.error_levels());
    }
  }
}

// A window stores values in 16 bits when domain - 1 fits them, else in
// 64 (ArchetypePool::WindowValueBytes): 2^16 is the last 16-bit domain and
// 2^16 + 1 the first 64-bit one.  At each, every key's stream holds 0 and
// domain - 1 (the value a window one domain too eager to narrow would wrap
// to 0) among values near both ends, and every key's summary, sample count
// and error levels must be a standalone builder's.  They are compared after each quarter of the
// interleaved stream, so keys are caught with partial windows, with
// windows just flushed and with ladders several levels deep.
TEST(StoreBitIdenticalAtWindowWidthBoundary) {
  const int64_t two16 = int64_t{1} << 16;
  for (const int64_t domain : {two16, two16 + 1}) {
    ArchetypeConfig config;
    config.domain_size = domain;
    config.k = 6;
    config.window_capacity = 16;
    auto store = SummaryStore::Create(config);
    CHECK_OK(store);

    // Per-key sample counts around and across the 16-sample window.
    const size_t counts[] = {2, 3, 15, 16, 17, 32, 33, 48, 64, 100, 129, 250};
    const size_t num_keys = sizeof(counts) / sizeof(counts[0]);
    Rng rng(static_cast<uint64_t>(domain));
    const auto value_at = [&](size_t position, size_t count) -> int64_t {
      if (position == 0 || position + 2 == count) return 0;
      if (position == 1 || position + 1 == count) return domain - 1;
      switch (rng.UniformInt(3)) {
        case 0:
          return rng.UniformInt(domain);
        case 1:
          return domain - 1 - rng.UniformInt(8);
        default:
          return rng.UniformInt(8);
      }
    };
    // Round-robin over the keys until each has its count.
    std::vector<KeyedSample> stream;
    for (size_t position = 0; position < counts[num_keys - 1]; ++position) {
      for (size_t i = 0; i < num_keys; ++i) {
        if (position >= counts[i]) continue;
        stream.push_back({i * 2654435761u + 7, value_at(position, counts[i])});
      }
    }

    std::unordered_map<uint64_t, StreamingHistogramBuilder> builders;
    const size_t quarter = stream.size() / 4 + 1;
    for (size_t begin = 0; begin < stream.size(); begin += quarter) {
      const size_t len = std::min(quarter, stream.size() - begin);
      const Span<const KeyedSample> part(stream.data() + begin, len);
      CHECK(store->AddBatch(part).ok());
      for (const KeyedSample& sample : part) {
        auto it = builders.find(sample.key);
        if (it == builders.end()) {
          auto builder = StreamingHistogramBuilder::Create(
              config.domain_size, config.k, config.window_capacity,
              config.options);
          CHECK_OK(builder);
          it = builders.emplace(sample.key, std::move(builder).value()).first;
        }
        CHECK(it->second.Add(sample.value).ok());
      }
      CHECK(store->num_keys() == builders.size());
      for (auto& [key, builder] : builders) {
        auto stored = store->Query(key);
        CHECK_OK(stored);
        auto reference = builder.Peek();
        CHECK_OK(reference);
        CHECK(BitIdentical(*stored, *reference));
        CHECK(store->NumSamples(key).value() == builder.num_samples());
        CHECK(store->ErrorLevels(key).value() == builder.error_levels());
      }
    }
    CHECK(builders.size() == num_keys);
  }
}

// Feeds `rounds` batches from `make_batch` to one store through AddBatch
// and to another through a per-sample Add loop (stopping at the first
// failure), and checks they agree after every batch: the same success, the
// same key count, and for every id in `keys` the same presence, sample
// count, error levels and summary bits.  Summaries are compared for every
// key every `full_check_every` rounds and after the last, and for the keys
// the batch touched in between (counts are compared for all keys every
// round).  Both stores are over `domain`.  Returns the number of failed
// batches.
int CheckAddBatchMatchesAddLoop(
    int64_t domain, int rounds, const std::vector<uint64_t>& keys,
    int full_check_every,
    const std::function<void(int, std::vector<KeyedSample>*)>& make_batch) {
  ArchetypeConfig config;
  config.domain_size = domain;
  config.k = 4;
  config.window_capacity = 8;
  auto batched = SummaryStore::Create(config);
  auto looped = SummaryStore::Create(config);
  CHECK_OK(batched);
  CHECK_OK(looped);

  const auto check_key = [&](uint64_t key, bool summaries) {
    CHECK(batched->Contains(key) == looped->Contains(key));
    if (!looped->Contains(key)) return;
    CHECK(batched->NumSamples(key).value() == looped->NumSamples(key).value());
    if (!summaries) return;
    CHECK(batched->ErrorLevels(key).value() ==
          looped->ErrorLevels(key).value());
    CHECK(BitIdentical(batched->Query(key).value(),
                       looped->Query(key).value()));
  };
  std::vector<KeyedSample> batch;
  int failures = 0;
  for (int round = 0; round < rounds; ++round) {
    batch.clear();
    make_batch(round, &batch);
    const bool batch_ok = batched->AddBatch(batch).ok();
    bool loop_ok = true;
    for (const KeyedSample& sample : batch) {
      if (!looped->Add(sample.key, sample.value).ok()) {
        loop_ok = false;
        break;
      }
    }
    CHECK(batch_ok == loop_ok);
    failures += batch_ok ? 0 : 1;

    CHECK(batched->num_keys() == looped->num_keys());
    const bool full =
        (round + 1) % full_check_every == 0 || round + 1 == rounds;
    for (const uint64_t key : keys) check_key(key, full);
    if (!full) {
      for (const KeyedSample& sample : batch) check_key(sample.key, true);
    }
  }
  return failures;
}

// A batch stream shaped on AddBatch's pipeline, which works up to 16
// samples ahead of the append (see summary_store.cc), run through
// CheckAddBatchMatchesAddLoop over `domain`: batch sizes from 1 to 700,
// around and far beyond the look-ahead; 5000 keys over about 20 slab
// chunks; keys first seen mid-batch and seen again a few samples later,
// before the first sighting is appended; and one failing sample in every
// other batch, at each offset 0..39 from the batch's start or end in turn.
// The failing sample's value cycles through `bad_values`.  Returns the
// number of failed batches.
int CheckPipelineShapedBatches(int64_t domain,
                               const std::vector<int64_t>& bad_values) {
  constexpr uint64_t kBase = uint64_t{1} << 20;
  constexpr uint64_t kNumKeys = 5000;
  constexpr size_t kReach = 40;  // failure offsets and repeat distances
  constexpr int kRounds = 200;
  const size_t edge_sizes[] = {1,  2,  3,  4,  5,  7,  8,  9,  15,
                               16, 17, 31, 32, 33, 63, 64, 65};
  const size_t num_edge_sizes = sizeof(edge_sizes) / sizeof(edge_sizes[0]);
  std::vector<uint64_t> keys;
  for (uint64_t id = 0; id < kNumKeys; ++id) keys.push_back(kBase + id);
  Rng rng(0x919e);
  uint64_t next_fresh = 0;  // ids below it have been put in some batch
  size_t next_edge = 0;
  return CheckAddBatchMatchesAddLoop(
      domain, kRounds, keys, 25,
      [&](int round, std::vector<KeyedSample>* batch) {
        // Rounds alternate in pairs between the edge sizes and random
        // sizes, so failing (odd) rounds get both.
        const size_t size =
            round % 4 < 2 ? edge_sizes[next_edge++ % num_edge_sizes]
                          : static_cast<size_t>(rng.UniformInt(700)) + 1;
        std::vector<std::pair<size_t, uint64_t>> repeats;
        while (batch->size() < size) {
          uint64_t id;
          if (next_fresh < kNumKeys &&
              (next_fresh == 0 || rng.UniformInt(8) == 0)) {
            id = next_fresh++;
            // Seen again 1..kReach samples later, inside the look-ahead.
            if (rng.UniformInt(2) == 0) {
              repeats.push_back(
                  {batch->size() + 1 +
                       static_cast<size_t>(rng.UniformInt(kReach)),
                   kBase + id});
            }
          } else {
            id = static_cast<uint64_t>(
                rng.UniformInt(static_cast<int64_t>(next_fresh)));
          }
          const size_t run = static_cast<size_t>(rng.UniformInt(3)) + 1;
          for (size_t r = 0; r < run && batch->size() < size; ++r) {
            batch->push_back({kBase + id, rng.UniformInt(domain)});
          }
        }
        for (const auto& [position, key] : repeats) {
          if (position < size) (*batch)[position].key = key;
        }
        // Every odd round fails once, at offset 0, 1, ... from the start,
        // then from the end, cycling through the bad values.
        if (round % 2 == 1) {
          const auto cycle = static_cast<size_t>(round / 2);
          const size_t offset = std::min(cycle % kReach, size - 1);
          const size_t position =
              (cycle / kReach) % 2 == 0 ? offset : size - 1 - offset;
          (*batch)[position].value = bad_values[cycle % bad_values.size()];
        }
      });
}

// AddBatch's contract is the per-sample Add loop, failures included: a
// batch that hits an out-of-domain value stops there, with every earlier
// sample ingested (keys created on first sight, the failing sample's too)
// and nothing after.
//
// The first set mixes runs of one key with interleaved keys over 40 keys,
// so both the run walk and its boundaries are exercised.  The second is
// CheckPipelineShapedBatches over domain 64, failing on -1 and the domain
// itself.  The third runs the same shape over domain 1024, whose windows
// store 16-bit values, failing on values a narrowing store would wrap into
// the domain: 65536 + 5 and 2^32 + 5 (both 5 in 16 bits) and -65536 (0).
// The fourth runs it over domain 2^16 + 1, whose windows store int64_t
// values, failing on -1 and the domain, so AddBatch's window hint and its
// append through the probe stage's slot handle run at both window widths.
// Each is rejected, so exactly every other batch fails.
TEST(StoreAddBatchMatchesPerSampleAddLoop) {
  {
    Rng rng(0xadd);
    std::vector<uint64_t> keys;
    for (uint64_t key = 0; key < 40; ++key) keys.push_back(key);
    const int failures = CheckAddBatchMatchesAddLoop(
        64, 300, keys, 1, [&rng](int, std::vector<KeyedSample>* batch) {
          const int64_t domain = 64;
          const size_t size = static_cast<size_t>(rng.UniformInt(60)) + 1;
          while (batch->size() < size) {
            const auto key = static_cast<uint64_t>(rng.UniformInt(40));
            const size_t run = static_cast<size_t>(rng.UniformInt(6)) + 1;
            for (size_t r = 0; r < run && batch->size() < size; ++r) {
              batch->push_back({key, rng.UniformInt(domain)});
            }
          }
          // One batch in five carries a failing sample somewhere.
          if (rng.UniformInt(5) == 0) {
            KeyedSample& bad = (*batch)[static_cast<size_t>(
                rng.UniformInt(static_cast<int64_t>(batch->size())))];
            bad.value = rng.UniformInt(2) == 0 ? -1 : domain;
          }
        });
    CHECK(failures > 20);  // the failure paths really ran
  }
  CHECK(CheckPipelineShapedBatches(64, {-1, 64}) == 100);
  CHECK(CheckPipelineShapedBatches(
            1024, {65536 + 5, (int64_t{1} << 32) + 5, -65536}) == 100);
  const int64_t wide_domain = (int64_t{1} << 16) + 1;
  CHECK(ArchetypePool::WindowValueBytes(wide_domain) == sizeof(int64_t));
  CHECK(CheckPipelineShapedBatches(wide_domain, {-1, wide_domain}) == 100);
}

// Window lengths are int32_t, so a window capacity past INT32_MAX is one
// the pool cannot hold: Create rejects it, before any chunk is allocated.
// Create allocates nothing, so INT32_MAX itself is accepted here; a plane
// that size the heap cannot supply fails AllocateSlot with a status.
TEST(StoreRejectsWindowCapacityBeyondInt32) {
  ArchetypeConfig config;
  config.window_capacity = size_t{1} << 31;
  CHECK(!ArchetypePool::Create(config).ok());
  CHECK(!SummaryStore::Create(config).ok());
  config.window_capacity = std::numeric_limits<size_t>::max();
  CHECK(!ArchetypePool::Create(config).ok());
  config.window_capacity = std::numeric_limits<int32_t>::max();
  CHECK(ArchetypePool::Create(config).ok());
}

// memory() counts a window at the domain's width: a key holding a partial
// window and no ladder costs exactly window_capacity * width payload bytes
// (2 and 8 per value at domains 1024 and 2^20), and pools that differ only
// in width differ in total bytes by exactly their chunk's window plane.
TEST(StoreMemoryCountsWindowsAtDomainWidth) {
  CHECK(ArchetypePool::WindowValueBytes(1) == 2);
  CHECK(ArchetypePool::WindowValueBytes(int64_t{1} << 16) == 2);
  CHECK(ArchetypePool::WindowValueBytes((int64_t{1} << 16) + 1) == 8);
  CHECK(ArchetypePool::WindowValueBytes(
            std::numeric_limits<int64_t>::max()) == 8);

  struct Width {
    int64_t domain;
    size_t bytes;
  };
  const Width widths[] = {{1024, 2}, {int64_t{1} << 20, 8}};
  constexpr size_t kWindow = 48;
  size_t previous_total = 0;
  size_t previous_bytes = 0;
  for (const Width& width : widths) {
    ArchetypeConfig config;
    config.domain_size = width.domain;
    config.window_capacity = kWindow;
    auto pool = ArchetypePool::Create(config);
    CHECK_OK(pool);
    auto ref = pool->AllocateSlot();
    CHECK_OK(ref);
    const KeyedSample run[] = {{7, 0}, {7, width.domain - 1}, {7, 5}};
    CHECK(pool->Append(*ref, run).ok());
    CHECK(pool->NumSamples(*ref) == 3);
    const ArchetypePool::MemoryStats stats = pool->memory();
    CHECK(stats.payload_bytes == kWindow * width.bytes);
    CHECK(stats.slack_bytes == 0);
    if (previous_bytes > 0) {
      CHECK(stats.total_bytes - previous_total ==
            ArchetypePool::kSlotsPerChunk * kWindow *
                (width.bytes - previous_bytes));
    }
    previous_total = stats.total_bytes;
    previous_bytes = width.bytes;
  }
}

// A pool ref names a slot only if AllocateSlot handed it out: refs are
// (chunk << 16) | slot, handed out in order from 0.  With two slots
// allocated, a ref past the bump cursor, one in a chunk never allocated and
// one whose slot bits (300) exceed a chunk's 256 slots must each be refused:
// Append and Query are Invalid, NumSamples and ErrorLevels are 0.  None of
// them may read a plane entry out of bounds (the assertions and ASan builds
// check that).
TEST(StorePoolRejectsRefsNotAllocated) {
  auto pool = ArchetypePool::Create(ArchetypeConfig());
  CHECK_OK(pool);
  const auto first = pool->AllocateSlot();
  const auto second = pool->AllocateSlot();
  CHECK_OK(first);
  CHECK_OK(second);
  CHECK(*first == 0 && *second == 1);
  const KeyedSample run[] = {{12, 3}, {12, 4}};
  CHECK(pool->Append(*second, run).ok());
  CHECK(pool->NumSamples(*second) == 2);
  CHECK_OK(pool->Query(*second));

  const uint64_t past_cursor = 2;
  const uint64_t unallocated_chunk = uint64_t{1} << 16;
  const uint64_t slot_bits_300 = 300;
  for (const uint64_t ref : {past_cursor, unallocated_chunk, slot_bits_300}) {
    CHECK(!pool->Append(ref, run).ok());
    CHECK(!pool->Query(ref).ok());
    CHECK(pool->NumSamples(ref) == 0);
    CHECK(pool->ErrorLevels(ref) == 0);
  }
  // The refused appends wrote nothing.
  CHECK(pool->NumSamples(*first) == 0);
  CHECK(pool->NumSamples(*second) == 2);
}

// The two-level index against a reference map under a fuzz mix biased
// toward collisions: a small dense id range (heavy probe chains in a few
// stripes) plus keys differing only in high bits.  Half the operations
// insert, half only look up (absent keys included); every insert's return
// value and every lookup must match, and at the end every reference key
// is found with its value.
TEST(StoreKeyIndexFuzzCollisionHeavyKeys) {
  Rng rng(0xc011);
  KeyIndex index;
  std::unordered_map<uint64_t, uint64_t> reference;
  const uint64_t value_mask = (uint64_t{1} << 63) - 1;

  for (int op = 0; op < 200000; ++op) {
    uint64_t key;
    switch (rng.UniformInt(3)) {
      case 0:  // dense range: same few stripes, long runs
        key = static_cast<uint64_t>(rng.UniformInt(512));
        break;
      case 1:  // high-bit variants of the dense range
        key = static_cast<uint64_t>(rng.UniformInt(512)) |
              (static_cast<uint64_t>(rng.UniformInt(8)) << 60);
        break;
      default:
        key = rng.NextUint64();
    }
    if (rng.UniformInt(2) == 0) {  // insert
      const uint64_t value = rng.NextUint64() & value_mask;
      const bool fresh = reference.emplace(key, value).second;
      CHECK(index.Insert(key, value) == fresh);
    }
    const uint64_t found = index.Find(key);
    const auto it = reference.find(key);
    if (it == reference.end()) {
      CHECK(found == KeyIndex::kNotFound);
    } else {
      CHECK(found == it->second);
    }
    CHECK(index.size() == reference.size());
  }

  for (const auto& [key, value] : reference) CHECK(index.Find(key) == value);
}

// A ladder fed the way the store feeds a key's slot: each full window is
// condensed alone (FoldBufferIntoSummary with no summary) and committed
// with streaming_ladder::Commit.  What is left is the partial window.
struct TestLadder {
  std::vector<Histogram> summaries;
  std::vector<int64_t> counts;
  std::vector<int64_t> window;

  int levels() const { return static_cast<int>(counts.size()); }
  int64_t count(int level) const { return counts[static_cast<size_t>(level)]; }
  StatusOr<Histogram> Load(int level) const {
    return summaries[static_cast<size_t>(level)];
  }
  Status Store(int level, Histogram histogram, int64_t count) {
    summaries[static_cast<size_t>(level)] = std::move(histogram);
    counts[static_cast<size_t>(level)] = count;
    return Status::Ok();
  }
  void Clear(int level) { counts[static_cast<size_t>(level)] = 0; }
  Status PushLevel() {
    summaries.emplace_back();
    counts.push_back(0);
    return Status::Ok();
  }
};

TestLadder BuildTestLadder(const std::vector<int64_t>& values,
                           const ArchetypeConfig& config) {
  TestLadder ladder;
  for (const int64_t value : values) {
    ladder.window.push_back(value);
    if (ladder.window.size() < config.window_capacity) continue;
    auto condensed = StreamingHistogramBuilder::FoldBufferIntoSummary(
        nullptr, 0, ladder.window, config.domain_size, config.k,
        config.options);
    CHECK_OK(condensed);
    CHECK(streaming_ladder::Commit(ladder, std::move(condensed).value(),
                                   static_cast<int64_t>(ladder.window.size()),
                                   config.k, config.options)
              .ok());
    ladder.window.clear();
  }
  return ladder;
}

// Mass of h's pieces below y, summed as the store sums a slot's: one
// statement per piece, the last piece cut at y.
double MassBelow(const Histogram& h, int64_t y) {
  double mass = 0.0;
  for (const HistogramPiece& piece : h.pieces()) {
    if (piece.interval.begin >= y) break;
    mass += piece.value * static_cast<double>(std::min(piece.interval.end, y) -
                                              piece.interval.begin);
  }
  return mass;
}

// F(x) at every x of the domain: for each occupied slot, highest level
// first, count * (MassBelow(x + 1) / MassBelow(domain)), then the window
// values <= x.
std::vector<double> DenseMixture(const TestLadder& ladder, int64_t domain) {
  std::vector<double> mass(ladder.summaries.size(), 0.0);
  for (int level = 0; level < ladder.levels(); ++level) {
    if (ladder.count(level) == 0) continue;
    mass[static_cast<size_t>(level)] =
        MassBelow(ladder.summaries[static_cast<size_t>(level)], domain);
  }
  std::vector<double> mixture(static_cast<size_t>(domain), 0.0);
  std::vector<int64_t> at(static_cast<size_t>(domain), 0);
  for (const int64_t value : ladder.window) ++at[static_cast<size_t>(value)];
  int64_t in_window = 0;
  for (int64_t x = 0; x < domain; ++x) {
    double below = 0.0;
    for (int level = ladder.levels(); level-- > 0;) {
      if (ladder.count(level) == 0) continue;
      const auto l = static_cast<size_t>(level);
      below += static_cast<double>(ladder.count(level)) *
               (MassBelow(ladder.summaries[l], x + 1) / mass[l]);
    }
    in_window += at[static_cast<size_t>(x)];
    mixture[static_cast<size_t>(x)] = below + static_cast<double>(in_window);
  }
  return mixture;
}

// A key's served quantile is read from the exact mixture of its ladder
// slots and its window (ArchetypePool::Quantile), at both window widths
// (domain 1024 stores 2-byte values, 2^16 + 1 8-byte ones).  A key whose
// samples all sit in its window answers the exact sample quantile: the
// smallest x with #{v <= x} >= q * N, compared as integers.  A key with
// occupied slots answers the smallest x with F(x) >= q * N, F computed
// densely above from a test-side ladder; F is non-decreasing.  Streams:
// iid hist-panel samples,
// the same samples sorted and in reverse order, a mix drifting toward the
// top quarter, and four atoms with heavy duplicates, each at 40 samples
// (window only), 257 (one slot, a 1-sample window), 384 (two slots, empty
// window) and 741 (three slots, a partial window).  q runs over the probe
// quantiles plus 0, 1, NaN, -0.5 and 2; NaN and -0.5 answer as 0 and 2 as
// 1, as Aggregator::Quantile clamps them.
TEST(StoreQuantileReadsTheLadderMixture) {
  const double qs[] = {0.01, 0.05, 0.1, 0.25, 0.5,  0.75, 0.9,
                       0.95, 0.99, 0.0,  1.0, std::nan(""), -0.5, 2.0};
  const size_t sizes[] = {40, 257, 384, 741};
  for (const int64_t domain : {int64_t{1024}, (int64_t{1} << 16) + 1}) {
    ArchetypeConfig config;
    config.domain_size = domain;
    auto store = SummaryStore::Create(config);
    CHECK_OK(store);
    HistDatasetOptions hist;
    hist.domain_size = domain;
    auto panel = NormalizeToDistribution(MakeHistDataset(hist));
    CHECK_OK(panel);
    auto sampler = AliasSampler::Create(*panel);
    CHECK_OK(sampler);
    Rng rng(static_cast<uint64_t>(domain) + 5);
    const int64_t atoms[] = {0, 1, domain / 3, domain - 1};

    std::vector<std::pair<uint64_t, std::vector<int64_t>>> keys;
    for (const size_t n : sizes) {
      std::vector<int64_t> iid = sampler->SampleMany(n, &rng);
      std::vector<int64_t> sorted = iid;
      std::sort(sorted.begin(), sorted.end());
      std::vector<int64_t> reversed(sorted.rbegin(), sorted.rend());
      std::vector<int64_t> drifting(n);
      for (size_t i = 0; i < n; ++i) {
        const bool top = rng.UniformDouble() * static_cast<double>(n) <
                         static_cast<double>(i);
        drifting[i] = top ? domain - 1 - rng.UniformInt(domain / 4)
                          : sampler->Sample(&rng);
      }
      std::vector<int64_t> duplicates(n);
      for (int64_t& value : duplicates) {
        const int64_t draw = rng.UniformInt(10);
        value = atoms[draw < 5 ? 0 : draw < 8 ? 2 : draw < 9 ? 1 : 3];
      }
      for (std::vector<int64_t>* values :
           {&iid, &sorted, &reversed, &drifting, &duplicates}) {
        keys.emplace_back(keys.size() * 2654435761u + 11, std::move(*values));
      }
    }
    for (const auto& [key, values] : keys) {
      std::vector<KeyedSample> batch;
      for (const int64_t value : values) batch.push_back({key, value});
      CHECK(store->AddBatch(batch).ok());
    }

    for (const auto& [key, values] : keys) {
      const auto n = static_cast<int64_t>(values.size());
      const TestLadder ladder = BuildTestLadder(values, config);
      const std::vector<double> mixture = DenseMixture(ladder, domain);
      CHECK(std::is_sorted(mixture.begin(), mixture.end()));
      std::vector<int64_t> sorted = values;
      std::sort(sorted.begin(), sorted.end());
      for (const double q : qs) {
        auto served = store->Quantile(key, q);
        CHECK_OK(served);
        CHECK(served->num_samples == n);
        const double clamped = q >= 0.0 ? std::min(q, 1.0) : 0.0;
        const double target = clamped * static_cast<double>(n);
        if (ladder.levels() == 0) {
          // The c-th smallest sample, c the least count >= target.
          const auto c = static_cast<int64_t>(std::ceil(target));
          const int64_t expected =
              c <= 0 ? 0 : sorted[static_cast<size_t>(c - 1)];
          CHECK(served->value == expected);
          continue;
        }
        // The store never evaluates the top of the domain: it answers
        // there when nothing below reaches the target.
        const auto first = std::lower_bound(mixture.begin(),
                                            mixture.end() - 1, target);
        CHECK(served->value == first - mixture.begin());
      }
    }
  }
}

// Cross-key reductions run outside the store, over its keyed exports:
// exports survive the v3 wire round trip and reduce through
// ReduceSnapshots bit-identically to ReduceSummaries over the per-key
// summaries in canonical key order, with matching accounting.  A
// sample-less key's export joins every reduction and drops out as zero
// weight; alone it reduces to no weight, which no aggregator serves.
TEST(StoreBulkOpsMatchReferenceReduction) {
  ArchetypeConfig config;
  config.domain_size = 400;
  config.k = 7;
  config.window_capacity = 24;
  auto store = SummaryStore::Create(config);
  CHECK_OK(store);

  const std::vector<KeyedSample> stream =
      MakeKeyedStream(40, 30000, config.domain_size, 0xb01d);
  CHECK(store->AddBatch(stream).ok());
  // A keyed but sample-less key: its export must drop out of a reduction,
  // not merge a fabricated uniform into the aggregate.  Add creates the
  // key, then rejects the out-of-domain value (the per-sample Add
  // contract).
  const uint64_t empty_key = 0xeeeeeeeeull;
  CHECK(!store->Add(empty_key, -1).ok());
  CHECK(store->Contains(empty_key));
  CHECK(store->NumSamples(empty_key).value() == 0);

  // Reference per-key summaries in canonical (sorted key) order.
  std::vector<uint64_t> keys;
  for (const KeyedSample& sample : stream) keys.push_back(sample.key);
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  const int64_t k = 9;
  MergeTreeOptions tree_options;
  tree_options.fan_in = 3;
  const auto reference_reduce =
      [&](const std::function<bool(uint64_t)>& pred) {
        std::vector<ShardSummary> summaries;
        for (uint64_t key : keys) {
          if (!pred(key)) continue;
          summaries.push_back(ShardSummary{
              store->Query(key).value(),
              static_cast<double>(store->NumSamples(key).value()),
              std::max(1, store->ErrorLevels(key).value())});
        }
        return ReduceSummaries(std::move(summaries), k, tree_options);
      };
  // The keyed exports of the keys passing `pred` plus the sample-less
  // key's, each through a v3 encode/decode round trip.
  const auto exports_of = [&](const std::function<bool(uint64_t)>& pred) {
    std::vector<ShardSnapshot> snapshots;
    std::vector<uint64_t> exported;
    for (uint64_t key : keys) {
      if (pred(key)) exported.push_back(key);
    }
    exported.push_back(empty_key);
    for (uint64_t key : exported) {
      auto snapshot = store->ExportKeyedSnapshot(key, /*shard_id=*/5);
      CHECK_OK(snapshot);
      CHECK(snapshot->keyed);
      CHECK(snapshot->key_id == key);
      auto decoded = DecodeShardSnapshot(EncodeShardSnapshot(*snapshot));
      CHECK_OK(decoded);
      CHECK(decoded->keyed && decoded->key_id == key);
      snapshots.push_back(std::move(decoded).value());
    }
    return snapshots;
  };

  const std::function<bool(uint64_t)> preds[] = {
      [](uint64_t) { return true; },
      [](uint64_t key) { return key % 3 == 0; },
      [](uint64_t key) { return key % 4 == 0; }};
  for (const auto& pred : preds) {
    auto reduced = ReduceSnapshots(exports_of(pred), k, tree_options);
    CHECK_OK(reduced);
    auto reference = reference_reduce(pred);
    CHECK_OK(reference);
    CHECK(BitIdentical(reduced->aggregate, reference->aggregate));
    CHECK(reduced->total_weight == reference->total_weight);
    CHECK(reduced->error_levels == reference->error_levels);
    CHECK(reduced->depth == reference->depth);
  }
  {  // Only the sample-less key: no weight, so nothing to serve.
    auto reduced =
        ReduceSnapshots(exports_of([](uint64_t) { return false; }), k,
                        tree_options);
    CHECK_OK(reduced);
    CHECK(reduced->total_weight == 0.0);
    CHECK(!Aggregator::Create(*reduced).ok());
  }
  {  // Per-key serving: a key with samples answers, empty keys are refused.
    auto served = store->Quantile(keys.front(), 0.5);
    CHECK_OK(served);
    CHECK(served->value >= 0 && served->value < config.domain_size);
    CHECK(served->num_samples == store->NumSamples(keys.front()).value());
    CHECK(!store->Quantile(empty_key, 0.5).ok());
  }
}

}  // namespace
}  // namespace fasthist
