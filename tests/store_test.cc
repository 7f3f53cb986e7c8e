// The keyed summary store's contracts: per-key summaries bit-identical to
// standalone streaming builders (the store changes layout, never the
// computation), slab reuse under key churn, the two-level key index against
// a reference map under collision-heavy fuzz, and bulk cross-key reductions
// against hand-built merge trees.

#include <algorithm>
#include <functional>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/streaming.h"
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
// subsequence — across archetypes (k, delta, window) and thread counts
// (the engine is thread-invariant, so num_threads must not change bytes).
TEST(StorePerKeyBitIdenticalToStandaloneBuilders) {
  const int64_t domain = 512;
  struct Shape {
    int64_t k;
    double delta;
    size_t window;
  };
  const Shape shapes[] = {{4, 1000.0, 32}, {8, 50.0, 64}, {12, 1000.0, 48}};
  for (int num_threads : {1, 2, 8}) {
    ArchetypeConfig base;
    base.domain_size = domain;
    base.k = shapes[0].k;
    base.window_capacity = shapes[0].window;
    base.options.delta = shapes[0].delta;
    base.options.num_threads = num_threads;
    auto store = SummaryStore::Create(base);
    CHECK_OK(store);

    std::vector<int> archetypes = {0};
    for (size_t i = 1; i < 3; ++i) {
      ArchetypeConfig config = base;
      config.k = shapes[i].k;
      config.window_capacity = shapes[i].window;
      config.options.delta = shapes[i].delta;
      auto id = store->RegisterArchetype(config);
      CHECK_OK(id);
      archetypes.push_back(*id);
    }
    // Registering the same shape again dedupes, num_threads ignored.
    {
      ArchetypeConfig again = base;
      again.options.num_threads = num_threads + 1;
      auto id = store->RegisterArchetype(again);
      CHECK_OK(id);
      CHECK(*id == 0);
    }

    const std::vector<KeyedSample> stream =
        MakeKeyedStream(24, 20000, domain, 0xfeed + num_threads);
    // Keys are spread over the three archetypes by residue; ingest in a
    // few batches so mid-stream window states are exercised too.
    std::unordered_map<uint64_t, int> archetype_of;
    for (const KeyedSample& sample : stream) {
      archetype_of.emplace(sample.key,
                           archetypes[sample.key % archetypes.size()]);
    }
    const size_t batch = stream.size() / 3 + 1;
    for (size_t begin = 0; begin < stream.size(); begin += batch) {
      const size_t len = std::min(batch, stream.size() - begin);
      std::vector<KeyedSample> slice(stream.begin() + begin,
                                     stream.begin() + begin + len);
      // Split the slice per archetype (AddBatch takes one target pool).
      for (int archetype : archetypes) {
        std::vector<KeyedSample> part;
        for (const KeyedSample& sample : slice) {
          if (archetype_of[sample.key] == archetype) part.push_back(sample);
        }
        if (!part.empty()) CHECK(store->AddBatch(part, archetype).ok());
      }
    }

    // Reference: one standalone builder per key, fed the key's subsequence.
    std::unordered_map<uint64_t, StreamingHistogramBuilder> builders;
    for (const KeyedSample& sample : stream) {
      auto it = builders.find(sample.key);
      if (it == builders.end()) {
        const ArchetypeConfig& config =
            store->archetype_config(archetype_of[sample.key]);
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
// round).  Both stores' archetypes are over `domain`.  Keys 100-103 live
// under archetype 1; batches target archetype 0, so a batch carrying one of
// them fails there.  Returns the number of failed batches.
int CheckAddBatchMatchesAddLoop(
    int64_t domain, int rounds, const std::vector<uint64_t>& keys,
    int full_check_every,
    const std::function<void(int, std::vector<KeyedSample>*)>& make_batch) {
  ArchetypeConfig config;
  config.domain_size = domain;
  config.k = 4;
  config.window_capacity = 8;
  ArchetypeConfig other = config;
  other.k = 3;
  other.window_capacity = 5;
  auto batched = SummaryStore::Create(config);
  auto looped = SummaryStore::Create(config);
  CHECK_OK(batched);
  CHECK_OK(looped);
  CHECK(batched->RegisterArchetype(other).value() == 1);
  CHECK(looped->RegisterArchetype(other).value() == 1);
  const std::vector<uint64_t> foreign = {100, 101, 102, 103};
  CHECK(batched->EnsureKeys(foreign, 1).ok());
  CHECK(looped->EnsureKeys(foreign, 1).ok());

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
// The failing sample cycles through `bad_values`, then a key of the other
// archetype.  Returns the number of failed batches.
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
        // then from the end, cycling through the failure kinds.
        if (round % 2 == 1) {
          const auto cycle = static_cast<size_t>(round / 2);
          const size_t offset = std::min(cycle % kReach, size - 1);
          const size_t position =
              (cycle / kReach) % 2 == 0 ? offset : size - 1 - offset;
          KeyedSample& bad = (*batch)[position];
          const size_t kind = cycle % (bad_values.size() + 1);
          if (kind < bad_values.size()) {
            bad.value = bad_values[kind];
          } else {
            bad.key = 100 + cycle % 4;
          }
        }
      });
}

// AddBatch's contract is the per-sample Add loop, failures included: a
// batch that hits an out-of-domain value or a key of another archetype
// stops there, with every earlier sample ingested (keys created on first
// sight) and nothing after.
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
            if (rng.UniformInt(2) == 0) {
              bad.value = rng.UniformInt(2) == 0 ? -1 : domain;
            } else {
              bad.key = 100 + static_cast<uint64_t>(rng.UniformInt(4));
            }
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
    auto ref = pool->AllocateSlot(7);
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

// Key churn must recycle slab slots, not grow the slabs: erase half the
// keys, insert as many new ones, and the pool's total bytes stay flat.  A
// recycled slot must behave exactly like a fresh one (no state bleed from
// the previous occupant).
TEST(StoreEraseReinsertReusesSlabs) {
  ArchetypeConfig config;
  config.domain_size = 256;
  config.k = 6;
  config.window_capacity = 16;
  auto store = SummaryStore::Create(config);
  CHECK_OK(store);

  const size_t num_keys = 1500;  // ~6 chunks of 256
  Rng rng(77);
  for (uint64_t key = 0; key < num_keys; ++key) {
    for (int i = 0; i < 40; ++i) {
      CHECK(store->Add(key, rng.UniformInt(config.domain_size)).ok());
    }
  }
  const StoreMemoryStats stats_full = store->memory();
  const size_t bytes_full = stats_full.total_bytes - stats_full.index_bytes;

  std::vector<uint64_t> live_keys;
  for (uint64_t key = 0; key < num_keys; ++key) live_keys.push_back(key);
  uint64_t next_id = 10'000'000;  // never collides with anything live
  for (int round = 0; round < 4; ++round) {
    // Erase half the live keys, then insert the same number of fresh ids.
    const size_t half = live_keys.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      CHECK(store->Erase(live_keys[i]).ok());
    }
    live_keys.erase(live_keys.begin(),
                    live_keys.begin() + static_cast<ptrdiff_t>(half));
    for (size_t i = 0; i < half; ++i) {
      const uint64_t fresh = next_id++;
      live_keys.push_back(fresh);
      for (int j = 0; j < 40; ++j) {
        CHECK(store->Add(fresh, rng.UniformInt(config.domain_size)).ok());
      }
    }
    CHECK(store->num_keys() == num_keys);
    // The slab planes did not grow: churn reuses released slots (LIFO
    // freelist).  The index may rehash (fresh ids hash elsewhere), so the
    // comparison is against pool bytes = total - index.
    const StoreMemoryStats stats = store->memory();
    CHECK(stats.total_bytes - stats.index_bytes == bytes_full);
  }

  // A recycled slot is indistinguishable from a fresh builder.
  CHECK(store->Erase(live_keys.back()).ok());
  const uint64_t reborn = 0xdeadbeefull;
  std::vector<int64_t> replay;
  for (int i = 0; i < 100; ++i) {
    replay.push_back(rng.UniformInt(config.domain_size));
    CHECK(store->Add(reborn, replay.back()).ok());
  }
  auto builder = StreamingHistogramBuilder::Create(
      config.domain_size, config.k, config.window_capacity, config.options);
  CHECK_OK(builder);
  CHECK(builder->AddMany(replay).ok());
  auto stored = store->Query(reborn);
  CHECK_OK(stored);
  CHECK(BitIdentical(*stored, *builder->Peek()));
}

// The two-level index against a reference map under a fuzz mix biased
// toward collisions: a small dense id range (heavy probe chains and
// tombstone churn in a few stripes) plus keys differing only in high bits.
// Every operation's return value and the final enumeration must match.
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
    const int action = static_cast<int>(rng.UniformInt(4));
    if (action == 0) {  // erase
      CHECK(index.Erase(key) == (reference.erase(key) > 0));
    } else if (action == 1) {  // reassign
      const uint64_t value = rng.NextUint64() & value_mask;
      const auto it = reference.find(key);
      if (it != reference.end()) it->second = value;
      CHECK(index.Assign(key, value) == (it != reference.end()));
    } else {  // insert
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

  size_t enumerated = 0;
  index.ForEach([&](uint64_t key, uint64_t value) {
    const auto it = reference.find(key);
    CHECK(it != reference.end());
    CHECK(it->second == value);
    ++enumerated;
  });
  CHECK(enumerated == reference.size());
}

// Bulk ops against hand-built references: MergeAllMatching and
// GroupByRollup must equal ReduceSummaries over the per-key summaries in
// canonical key order (bit-identical aggregates, matching accounting),
// TopKHeaviest must equal a sort, and keyed exports must survive the wire
// and reduce like any snapshots.
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
  // A keyed but sample-less key: bulk ops must skip it, not crash or merge
  // a fabricated uniform into the aggregate.
  const uint64_t empty_key = 0xeeeeeeeeull;
  CHECK(store->EnsureKeys({empty_key}).ok());

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

  {  // MergeAllMatching over everything (the empty key is skipped).
    auto all = store->MergeAllMatching([](uint64_t) { return true; }, k,
                                       tree_options);
    CHECK_OK(all);
    auto reference = reference_reduce([](uint64_t) { return true; });
    CHECK_OK(reference);
    CHECK(BitIdentical(all->aggregate, reference->aggregate));
    CHECK(all->total_weight == reference->total_weight);
    CHECK(all->error_levels == reference->error_levels);
  }
  {  // A selective predicate.
    const auto pred = [](uint64_t key) { return key % 3 == 0; };
    auto matched = store->MergeAllMatching(pred, k, tree_options);
    CHECK_OK(matched);
    auto reference = reference_reduce(pred);
    CHECK_OK(reference);
    CHECK(BitIdentical(matched->aggregate, reference->aggregate));
  }
  {  // Nothing matches -> error, not a fabricated summary.
    CHECK(!store->MergeAllMatching([](uint64_t) { return false; }, k,
                                   tree_options)
               .ok());
  }
  {  // Group-by rollup: groups ordered by id, each bit-identical to its
     // own reference reduction.
    const auto group_of = [](uint64_t key) { return key % 5; };
    auto rollup = store->GroupByRollup(group_of, k, tree_options);
    CHECK_OK(rollup);
    CHECK(!rollup->empty());
    uint64_t previous_group = 0;
    bool first = true;
    for (const auto& [group, result] : *rollup) {
      CHECK(first || group > previous_group);
      first = false;
      previous_group = group;
      auto reference = reference_reduce(
          [&](uint64_t key) { return group_of(key) == group; });
      CHECK_OK(reference);
      CHECK(BitIdentical(result.aggregate, reference->aggregate));
    }
  }
  {  // TopKHeaviest == full sort by (count desc, key asc).
    std::vector<std::pair<uint64_t, int64_t>> expected;
    for (uint64_t key : keys) {
      expected.emplace_back(key, store->NumSamples(key).value());
    }
    std::sort(expected.begin(), expected.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    expected.resize(10);
    const auto top = store->TopKHeaviest(10);
    CHECK(top == expected);
  }
  {  // Keyed exports: v3 round trip, then a cross-key reduction through
     // ReduceSnapshots matches MergeAllMatching over the same keys.
    std::vector<ShardSnapshot> snapshots;
    for (uint64_t key : keys) {
      if (key % 4 != 0) continue;
      auto snapshot = store->ExportKeyedSnapshot(key, /*shard_id=*/5);
      CHECK_OK(snapshot);
      CHECK(snapshot->keyed);
      CHECK(snapshot->key_id == key);
      auto decoded = DecodeShardSnapshot(EncodeShardSnapshot(*snapshot));
      CHECK_OK(decoded);
      CHECK(decoded->keyed && decoded->key_id == key);
      snapshots.push_back(std::move(decoded).value());
    }
    auto reduced = ReduceSnapshots(std::move(snapshots), k, tree_options);
    CHECK_OK(reduced);
    auto direct = store->MergeAllMatching(
        [](uint64_t key) { return key % 4 == 0; }, k, tree_options);
    CHECK_OK(direct);
    CHECK(BitIdentical(reduced->aggregate, direct->aggregate));
  }
  {  // Per-key serving: the aggregator answers, empty keys are rejected.
    auto served = store->QueryAggregator(keys.front(), 0.01);
    CHECK_OK(served);
    CHECK(served->Cdf(config.domain_size) == 1.0);
    CHECK(!store->QueryAggregator(empty_key).ok());
  }
}

}  // namespace
}  // namespace fasthist
