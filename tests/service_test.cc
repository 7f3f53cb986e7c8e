// The service layer end to end: wire-format round trips and corruption
// handling, the merge tree's determinism/accounting contracts over
// builder-made shard snapshots, and the query API.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "core/fast_merging.h"
#include "core/streaming.h"
#include "data/generators.h"
#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#include "service/aggregator.h"
#include "service/merge_tree.h"
#include "service/wire_format.h"
#include "tests/fasthist_test.h"
#include "tests/histogram_testutil.h"
#include "util/random.h"

namespace fasthist {
namespace {

using ::fasthist::testing::BitIdentical;

Histogram RandomHistogram(Rng* rng) {
  const int64_t domain = 1 + rng->UniformInt(5000);
  const int64_t max_pieces = std::min<int64_t>(domain, 64);
  const int64_t num_pieces = 1 + rng->UniformInt(max_pieces);
  // num_pieces - 1 distinct interior cut points.
  std::vector<int64_t> ends;
  while (static_cast<int64_t>(ends.size()) < num_pieces - 1) {
    const int64_t cut = 1 + rng->UniformInt(domain - 1 > 0 ? domain - 1 : 1);
    if (cut < domain &&
        std::find(ends.begin(), ends.end(), cut) == ends.end()) {
      ends.push_back(cut);
    }
  }
  std::sort(ends.begin(), ends.end());
  ends.push_back(domain);
  std::vector<HistogramPiece> pieces;
  int64_t begin = 0;
  for (const int64_t end : ends) {
    // A mix of awkward values: exact dyadics, tiny magnitudes, zeros — all
    // non-negative, since the codec (like every real summary) rejects
    // negative densities at decode.
    double value = std::abs(rng->Gaussian()) * 1e-3;
    if (rng->UniformInt(8) == 0) value = 0.0;
    if (rng->UniformInt(8) == 0) value = 0.125 * rng->UniformInt(32);
    pieces.push_back({{begin, end}, value});
    begin = end;
  }
  return Histogram::Create(domain, std::move(pieces)).value();
}

TEST(WireFormatRoundTripsRandomHistograms) {
  Rng rng(20260730);
  for (int trial = 0; trial < 200; ++trial) {
    const Histogram original = RandomHistogram(&rng);
    const std::vector<uint8_t> encoded = EncodeHistogram(original);
    CHECK(encoded.size() ==
          24 + 16 * static_cast<size_t>(original.num_pieces()));
    auto decoded = DecodeHistogram(encoded);
    CHECK_OK(decoded);
    CHECK(BitIdentical(original, *decoded));
  }
  // And summaries the library actually produces (merging outputs).
  for (int trial = 0; trial < 20; ++trial) {
    const int64_t domain = 500 + rng.UniformInt(2000);
    std::vector<int64_t> samples;
    for (int i = 0; i < 3000; ++i) samples.push_back(rng.UniformInt(domain));
    auto empirical = EmpiricalDistribution(domain, samples);
    CHECK_OK(empirical);
    auto result = ConstructHistogramFast(*empirical, 1 + rng.UniformInt(20));
    CHECK_OK(result);
    auto decoded = DecodeHistogram(EncodeHistogram(result->histogram));
    CHECK_OK(decoded);
    CHECK(BitIdentical(result->histogram, *decoded));
  }
}

TEST(WireFormatRejectsCorruptInput) {
  Rng rng(77);
  const Histogram original = RandomHistogram(&rng);
  const std::vector<uint8_t> valid = EncodeHistogram(original);
  CHECK_OK(DecodeHistogram(valid));

  // Every proper prefix is a truncation and must fail cleanly.
  for (size_t len = 0; len < valid.size(); ++len) {
    CHECK(!DecodeHistogram(valid.data(), len).ok());
  }
  // Trailing garbage.
  {
    std::vector<uint8_t> padded = valid;
    padded.push_back(0);
    CHECK(!DecodeHistogram(padded).ok());
  }
  // Bad magic / bad version.
  {
    std::vector<uint8_t> corrupt = valid;
    corrupt[0] ^= 0xff;
    CHECK(!DecodeHistogram(corrupt).ok());
  }
  {
    std::vector<uint8_t> corrupt = valid;
    corrupt[4] = 0xfe;
    CHECK(!DecodeHistogram(corrupt).ok());
  }
  // Piece-count overflow: a count far past the buffer (and past any sane
  // multiply) must be rejected by the overflow-safe size check.
  {
    std::vector<uint8_t> corrupt = valid;
    for (int i = 0; i < 8; ++i) corrupt[16 + i] = 0xff;
    corrupt[23] = 0x7f;  // num_pieces = int64 max
    CHECK(!DecodeHistogram(corrupt).ok());
  }
  // Zero pieces.
  {
    std::vector<uint8_t> corrupt = valid;
    for (int i = 0; i < 8; ++i) corrupt[16 + i] = 0;
    CHECK(!DecodeHistogram(corrupt).ok());
  }
  // Non-monotone ends (only meaningful with >= 2 pieces).
  if (original.num_pieces() >= 2) {
    std::vector<uint8_t> corrupt = valid;
    for (int i = 0; i < 8; ++i) corrupt[24 + i] = 0;  // first end = 0
    CHECK(!DecodeHistogram(corrupt).ok());
  }
  // First end past the domain.
  {
    std::vector<uint8_t> corrupt = valid;
    for (int i = 0; i < 8; ++i) corrupt[24 + i] = 0xff;
    corrupt[31] = 0x7f;
    CHECK(!DecodeHistogram(corrupt).ok());
  }
  // Value-plane corruption: the structure stays perfectly valid, only a
  // density is replaced by NaN / +Inf / a negative — each must be rejected
  // at the codec boundary, not later inside a merge or a query.
  {
    const size_t value_plane =
        24 + 8 * static_cast<size_t>(original.num_pieces());
    const uint64_t hostile[] = {
        0x7ff8000000000000ull,  // quiet NaN
        0x7ff0000000000000ull,  // +Inf
        0xfff0000000000000ull,  // -Inf
        0xbff0000000000000ull,  // -1.0
        0x8000000000000001ull,  // tiny negative denormal
    };
    for (const uint64_t bits : hostile) {
      std::vector<uint8_t> corrupt = valid;
      for (int i = 0; i < 8; ++i) {
        corrupt[value_plane + static_cast<size_t>(i)] =
            static_cast<uint8_t>(bits >> (8 * i));
      }
      CHECK(!DecodeHistogram(corrupt).ok());
    }
    // Negative zero is bit-distinct but compares >= 0.0: still a valid
    // density, so it round-trips rather than being rejected.
    std::vector<uint8_t> negative_zero = valid;
    for (int i = 0; i < 7; ++i) negative_zero[value_plane + i] = 0;
    negative_zero[value_plane + 7] = 0x80;
    CHECK_OK(DecodeHistogram(negative_zero));
  }
  // Empty and null inputs.
  CHECK(!DecodeHistogram(nullptr, 0).ok());
  CHECK(!DecodeHistogram(std::vector<uint8_t>{}).ok());
}

TEST(SnapshotEnvelopeRoundTripsAndRejectsCorrupt) {
  Rng rng(123);
  const Histogram histogram = RandomHistogram(&rng);
  ShardSnapshot snapshot;
  snapshot.shard_id = 0xabcdef0123456789ull;
  snapshot.num_samples = 424242;
  snapshot.error_levels = 13;
  snapshot.encoded_histogram = EncodeHistogram(histogram);

  const std::vector<uint8_t> encoded = EncodeShardSnapshot(snapshot);
  auto decoded = DecodeShardSnapshot(encoded);
  CHECK_OK(decoded);
  CHECK(decoded->shard_id == snapshot.shard_id);
  CHECK(decoded->num_samples == snapshot.num_samples);
  CHECK(decoded->error_levels == 13);
  CHECK(decoded->encoded_histogram == snapshot.encoded_histogram);
  auto inner = DecodeHistogram(decoded->encoded_histogram);
  CHECK_OK(inner);
  CHECK(BitIdentical(histogram, *inner));

  for (size_t len = 0; len < encoded.size(); ++len) {
    CHECK(!DecodeShardSnapshot(encoded.data(), len).ok());
  }
  {
    std::vector<uint8_t> corrupt = encoded;
    corrupt[0] ^= 0xff;  // magic
    CHECK(!DecodeShardSnapshot(corrupt).ok());
  }
  {
    // A version-1 envelope has no error_levels field; defaulting it would
    // silently under-report the error budget, so v1 is rejected outright.
    std::vector<uint8_t> corrupt = encoded;
    corrupt[4] = 1;
    CHECK(!DecodeShardSnapshot(corrupt).ok());
  }
  {
    std::vector<uint8_t> corrupt = encoded;
    for (int i = 0; i < 8; ++i) corrupt[24 + i] = 0xff;  // error_levels = -1
    CHECK(!DecodeShardSnapshot(corrupt).ok());
  }
  {
    std::vector<uint8_t> corrupt = encoded;
    corrupt[27] = 0x7f;  // error_levels absurdly large (> 2^20)
    CHECK(!DecodeShardSnapshot(corrupt).ok());
  }
  {
    std::vector<uint8_t> corrupt = encoded;
    corrupt[32] ^= 0xff;  // blob size no longer matches
    CHECK(!DecodeShardSnapshot(corrupt).ok());
  }
  {
    // Valid envelope around a corrupted histogram blob.
    std::vector<uint8_t> corrupt = encoded;
    corrupt[40] ^= 0xff;  // embedded histogram magic
    CHECK(!DecodeShardSnapshot(corrupt).ok());
  }
}

// The versioned-decode matrix after the keyed (v3) envelope landed: v1
// stays rejected, an un-keyed snapshot still produces its exact v2 bytes
// (no pre-store producer or consumer sees a single changed bit), and a
// keyed snapshot round-trips its identity through v3.
TEST(SnapshotEnvelopeVersionedDecodeV1V2V3) {
  Rng rng(321);
  const Histogram histogram = RandomHistogram(&rng);
  ShardSnapshot snapshot;
  snapshot.shard_id = 0x1122334455667788ull;
  snapshot.num_samples = 9999;
  snapshot.error_levels = 4;
  snapshot.encoded_histogram = EncodeHistogram(histogram);

  // v2: `keyed` defaults false, and the byte stream is the pre-v3 layout
  // field for field — version word 2, num_samples at offset 16 (no key_id).
  const std::vector<uint8_t> v2 = EncodeShardSnapshot(snapshot);
  CHECK(v2[4] == 2 && v2[5] == 0 && v2[6] == 0 && v2[7] == 0);
  CHECK(v2[16] == 0x0f && v2[17] == 0x27);  // 9999 little-endian
  auto v2_decoded = DecodeShardSnapshot(v2);
  CHECK_OK(v2_decoded);
  CHECK(!v2_decoded->keyed);
  CHECK(v2_decoded->key_id == 0);
  // Decode -> re-encode is the identity on bytes (the regression guard:
  // a keyed-aware middlebox cannot perturb un-keyed traffic).
  CHECK(EncodeShardSnapshot(*v2_decoded) == v2);

  // v1 (no error_levels field) stays rejected outright.
  {
    std::vector<uint8_t> v1 = v2;
    v1[4] = 1;
    CHECK(!DecodeShardSnapshot(v1).ok());
  }

  // v3: keyed identity round-trips; the payload bytes ride unchanged.
  snapshot.keyed = true;
  snapshot.key_id = 0xfeedfacecafebeefull;
  const std::vector<uint8_t> v3 = EncodeShardSnapshot(snapshot);
  CHECK(v3[4] == 3);
  CHECK(v3.size() == v2.size() + 8);  // exactly one extra u64 (key_id)
  auto v3_decoded = DecodeShardSnapshot(v3);
  CHECK_OK(v3_decoded);
  CHECK(v3_decoded->keyed);
  CHECK(v3_decoded->key_id == snapshot.key_id);
  CHECK(v3_decoded->shard_id == snapshot.shard_id);
  CHECK(v3_decoded->num_samples == snapshot.num_samples);
  CHECK(v3_decoded->error_levels == snapshot.error_levels);
  CHECK(v3_decoded->encoded_histogram == snapshot.encoded_histogram);
  CHECK(EncodeShardSnapshot(*v3_decoded) == v3);

  // The exact v3 bytes of a keyed snapshot around a three-piece histogram,
  // every field little-endian: a round trip cannot see an encoder and a
  // decoder that agree on the wrong byte order.
  {
    auto small = Histogram::Create(
        1000, {{{0, 10}, 0.125}, {{10, 400}, 0.001}, {{400, 1000}, 0.0}});
    CHECK_OK(small);
    ShardSnapshot pinned = snapshot;
    pinned.encoded_histogram = EncodeHistogram(*small);
    const std::vector<uint8_t> bytes = EncodeShardSnapshot(pinned);
    CHECK(testing::ToHex(bytes) ==
          // Envelope: magic "FHs1", version 3, shard_id, key_id,
          // num_samples 9999, error_levels 4, blob size 72.
          "4648733103000000" "8877665544332211" "efbefecacefaedfe"
          "0f27000000000000" "0400000000000000" "4800000000000000"
          // Histogram: magic "FHh1", version 1, domain 1000, 3 pieces,
          // ends 10, 400, 1000, values 0.125, 0.001, 0.0.
          "4648683101000000" "e803000000000000" "0300000000000000"
          "0a00000000000000" "9001000000000000" "e803000000000000"
          "000000000000c03f" "fca9f1d24d62503f" "0000000000000000");
    auto decoded = DecodeShardSnapshot(bytes);
    CHECK_OK(decoded);
    CHECK(decoded->keyed && decoded->key_id == snapshot.key_id);
    CHECK(decoded->shard_id == snapshot.shard_id);
    CHECK(decoded->num_samples == 9999 && decoded->error_levels == 4);
    auto decoded_histogram = DecodeHistogram(decoded->encoded_histogram);
    CHECK_OK(decoded_histogram);
    CHECK(BitIdentical(*small, *decoded_histogram));
  }

  // Truncating v3 at any length fails cleanly (the key_id field widened
  // the header; every prefix must still be a hard error, not a misparse).
  for (size_t len = 0; len < v3.size(); ++len) {
    CHECK(!DecodeShardSnapshot(v3.data(), len).ok());
  }

  // A v2 stream relabeled as v3 shifts every later field by 8 bytes; the
  // blob-size check catches the misalignment.
  {
    std::vector<uint8_t> relabeled = v2;
    relabeled[4] = 3;
    CHECK(!DecodeShardSnapshot(relabeled).ok());
  }

  // Keyed and un-keyed snapshots with the same shard_id are distinct
  // identities to the reducer: both survive as leaves (no dedupe, no
  // conflict), as do two different keys of one shard.
  {
    ShardSnapshot unkeyed = snapshot;
    unkeyed.keyed = false;
    unkeyed.key_id = 0;
    ShardSnapshot other_key = snapshot;
    other_key.key_id = 7;
    auto reduced = ReduceSnapshots({snapshot, unkeyed, other_key}, 8,
                                   MergeTreeOptions());
    CHECK_OK(reduced);
    CHECK(reduced->total_weight == 3.0 * 9999.0);
    // A byte-identical keyed retransmit still dedupes; a conflicting
    // payload under the same (shard, key) identity is still an error.
    auto deduped = ReduceSnapshots({snapshot, snapshot, other_key}, 8,
                                   MergeTreeOptions());
    CHECK_OK(deduped);
    CHECK(deduped->total_weight == 2.0 * 9999.0);
    ShardSnapshot conflicting = snapshot;
    conflicting.num_samples = 1234;
    CHECK(!ReduceSnapshots({snapshot, conflicting}, 8, MergeTreeOptions())
               .ok());
  }
}

// The unkeyed (v2) snapshot of one shard of a stream: a
// StreamingHistogramBuilder(domain, k, buffer_capacity) fed `samples`,
// exported without a flush — its Peek fold, sample count and ladder error
// levels.
ShardSnapshot BuilderSnapshot(uint64_t shard_id, int64_t domain, int64_t k,
                              size_t buffer_capacity,
                              const std::vector<int64_t>& samples) {
  auto builder = StreamingHistogramBuilder::Create(domain, k, buffer_capacity);
  CHECK_OK(builder);
  CHECK(builder->AddMany(samples).ok());
  auto summary = builder->Peek();
  CHECK_OK(summary);
  ShardSnapshot snapshot;
  snapshot.shard_id = shard_id;
  snapshot.num_samples = builder->num_samples();
  snapshot.error_levels = builder->error_levels();
  snapshot.encoded_histogram = EncodeHistogram(*summary);
  return snapshot;
}

// Builds N shard snapshots (a few deliberately empty) over one distribution.
std::vector<ShardSnapshot> MakeSnapshots(int64_t num_shards, Rng* rng) {
  const int64_t domain = 512;
  auto p = NormalizeToDistribution(MakeHistDataset({domain, 5, 8, 20.0,
                                                    100.0, 1.0}));
  auto sampler = AliasSampler::Create(*p);
  std::vector<ShardSnapshot> snapshots;
  for (int64_t shard = 0; shard < num_shards; ++shard) {
    std::vector<int64_t> samples;
    if (rng->UniformInt(8) != 0) {  // ~1/8 of shards stay empty
      const size_t count = 200 + static_cast<size_t>(rng->UniformInt(2000));
      samples = sampler->SampleMany(count, rng);
    }
    snapshots.push_back(BuilderSnapshot(static_cast<uint64_t>(shard), domain,
                                        8, 128, samples));
  }
  return snapshots;
}

TEST(MergeTreeBitIdenticalAcrossArrivalOrder) {
  Rng rng(20150531);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t num_shards = 1 + rng.UniformInt(16);
    std::vector<ShardSnapshot> snapshots = MakeSnapshots(num_shards, &rng);
    for (const int fan_in : {2, 4, 8}) {
      MergeTreeOptions options;
      options.fan_in = fan_in;
      auto base = ReduceSnapshots(snapshots, 8, options);
      CHECK_OK(base);

      // Shuffled arrival order must not change a bit.
      std::vector<ShardSnapshot> shuffled = snapshots;
      for (size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1],
                  shuffled[static_cast<size_t>(rng.UniformInt(
                      static_cast<int64_t>(i)))]);
      }
      auto alt = ReduceSnapshots(shuffled, 8, options);
      CHECK_OK(alt);

      CHECK(BitIdentical(base->aggregate, alt->aggregate));
      CHECK(base->depth == alt->depth);
      CHECK(base->num_merges == alt->num_merges);
      CHECK(base->total_weight == alt->total_weight);
      if (base->total_weight > 0) {
        CHECK_NEAR(base->aggregate.TotalMass(), 1.0, 1e-6);
      }
    }
  }
}

TEST(MergeTreeDepthAndErrorAccounting) {
  Rng rng(4242);
  // All shards non-empty so the leaf count is exact.
  const int64_t domain = 512;
  auto p = NormalizeToDistribution(MakeHistDataset({domain, 5, 8, 20.0,
                                                    100.0, 1.0}));
  CHECK_OK(p);
  auto sampler = AliasSampler::Create(*p);
  CHECK_OK(sampler);
  for (const int64_t num_shards : {1, 2, 3, 7, 8, 9, 16}) {
    std::vector<ShardSnapshot> snapshots;
    for (int64_t shard = 0; shard < num_shards; ++shard) {
      snapshots.push_back(BuilderSnapshot(static_cast<uint64_t>(shard),
                                          domain, 8, 128,
                                          sampler->SampleMany(500, &rng)));
    }
    for (const int fan_in : {2, 4, 8}) {
      MergeTreeOptions options;
      options.fan_in = fan_in;
      auto reduced = ReduceSnapshots(snapshots, 8, options);
      CHECK_OK(reduced);
      // depth = ceil(log_fan_in(N)); num_merges = N - 1 (every reduction
      // tree folds away exactly one summary per merge).
      int expected_depth = 0;
      for (int64_t width = num_shards; width > 1;
           width = (width + fan_in - 1) / fan_in) {
        ++expected_depth;
      }
      CHECK(reduced->depth == expected_depth);
      CHECK(reduced->num_merges == num_shards - 1);
      // Each leaf reports its ladder accounting: 500 samples / 128 buffer =
      // 3 flushes (depth-2 ladder, 2 live slots) + a buffered remainder,
      // so every snapshot arrives with 3 levels and the tree adds depth.
      CHECK(snapshots.front().error_levels == 3);
      CHECK(reduced->error_levels == expected_depth + 3);
      CHECK(reduced->total_weight ==
            static_cast<double>(num_shards) * 500.0);
    }
  }
  // Degenerate inputs.
  CHECK(!ReduceSnapshots({}, 8).ok());
  MergeTreeOptions bad_fan_in;
  bad_fan_in.fan_in = 1;
  std::vector<ShardSnapshot> one = MakeSnapshots(1, &rng);
  CHECK(!ReduceSnapshots(one, 8, bad_fan_in).ok());
  CHECK(!ReduceSummaries({}, 8).ok());

  // All shards empty: the aggregate is the *first* empty shard's summary in
  // canonical (shard id) order, with zero weight and one error level.
  auto empty_a = Histogram::Create(100, {{{0, 100}, 0.01}});
  auto empty_b = Histogram::Create(100, {{{0, 50}, 0.012}, {{50, 100}, 0.008}});
  CHECK_OK(empty_a);
  CHECK_OK(empty_b);
  std::vector<ShardSnapshot> all_empty;
  all_empty.push_back({7, 0, 0, EncodeHistogram(*empty_b)});  // higher id first
  all_empty.push_back({3, 0, 0, EncodeHistogram(*empty_a)});
  auto empty_reduced = ReduceSnapshots(all_empty, 8);
  CHECK_OK(empty_reduced);
  CHECK(BitIdentical(empty_reduced->aggregate, *empty_a));
  CHECK(empty_reduced->total_weight == 0.0);
  CHECK(empty_reduced->depth == 0);
  CHECK(empty_reduced->error_levels == 1);
}

TEST(MergeTreeSkipsEmptyShardSnapshotsEarly) {
  // Zero-sample shards are skipped before their payload is decoded: a
  // mixed fleet reduces bit-identically to the busy shards alone, and a
  // corrupt payload riding in an empty envelope is never even parsed.
  auto h1 = Histogram::Create(100, {{{0, 40}, 0.02}, {{40, 100}, 0.005}});
  auto h2 = Histogram::Create(100, {{{0, 70}, 0.01}, {{70, 100}, 0.01}});
  auto h3 = Histogram::Create(100, {{{0, 100}, 0.01}});
  CHECK_OK(h1);
  CHECK_OK(h2);
  CHECK_OK(h3);
  std::vector<ShardSnapshot> busy;
  busy.push_back({1, 300, 1, EncodeHistogram(*h1)});
  busy.push_back({4, 100, 1, EncodeHistogram(*h2)});
  busy.push_back({6, 200, 1, EncodeHistogram(*h3)});
  std::vector<ShardSnapshot> fleet = busy;
  fleet.push_back({2, 0, 0, EncodeHistogram(*h3)});        // idle, valid
  fleet.push_back({5, 0, 0, {0xde, 0xad, 0xbe, 0xef}});    // idle, corrupt
  fleet.push_back({7, 0, 0, {}});                          // idle, no bytes
  for (const int fan_in : {2, 4}) {
    MergeTreeOptions options;
    options.fan_in = fan_in;
    auto with_idle = ReduceSnapshots(fleet, 8, options);
    auto without_idle = ReduceSnapshots(busy, 8, options);
    CHECK_OK(with_idle);
    CHECK_OK(without_idle);
    CHECK(BitIdentical(with_idle->aggregate, without_idle->aggregate));
    CHECK(with_idle->depth == without_idle->depth);
    CHECK(with_idle->num_merges == without_idle->num_merges);
    CHECK(with_idle->total_weight == 600.0);
    CHECK(with_idle->error_levels == without_idle->error_levels);
  }

  // All-empty fleet: only the first empty shard (canonical order) is
  // decoded.  Corrupt-first surfaces the decode error; valid-first returns
  // that summary and the corrupt trailing payload stays dead weight.
  std::vector<ShardSnapshot> corrupt_first;
  corrupt_first.push_back({9, 0, 0, EncodeHistogram(*h1)});
  corrupt_first.push_back({3, 0, 0, {1, 2, 3}});
  CHECK(!ReduceSnapshots(corrupt_first, 8).ok());
  std::vector<ShardSnapshot> valid_first;
  valid_first.push_back({9, 0, 0, {1, 2, 3}});
  valid_first.push_back({3, 0, 0, EncodeHistogram(*h1)});
  auto reduced = ReduceSnapshots(valid_first, 8);
  CHECK_OK(reduced);
  CHECK(BitIdentical(reduced->aggregate, *h1));
  CHECK(reduced->total_weight == 0.0);
}

TEST(AggregatorCdfQuantileRangeMass) {
  // Hand-checkable summary: mass 0.4 on [0,4), 0.6 on [4,8).
  auto summary = Histogram::Create(8, {{{0, 4}, 0.1}, {{4, 8}, 0.15}});
  CHECK_OK(summary);
  auto aggregator = Aggregator::Create(*summary, 0.01);
  CHECK_OK(aggregator);

  CHECK_NEAR(aggregator->Cdf(-5), 0.0, 0.0);
  CHECK_NEAR(aggregator->Cdf(0), 0.1, 1e-12);
  CHECK_NEAR(aggregator->Cdf(3), 0.4, 1e-12);
  CHECK_NEAR(aggregator->Cdf(4), 0.55, 1e-12);
  CHECK_NEAR(aggregator->Cdf(7), 1.0, 0.0);
  CHECK_NEAR(aggregator->Cdf(100), 1.0, 0.0);
  for (int64_t x = -2; x < 10; ++x) {  // monotone
    CHECK(aggregator->Cdf(x) <= aggregator->Cdf(x + 1) + 1e-15);
  }

  CHECK(aggregator->Quantile(0.0) == 0);
  CHECK(aggregator->Quantile(0.1) == 0);
  CHECK(aggregator->Quantile(0.4) == 3);
  CHECK(aggregator->Quantile(0.41) == 4);
  CHECK(aggregator->Quantile(1.0) == 7);
  // Out-of-range and NaN ranks clamp instead of reaching a UB cast.
  CHECK(aggregator->Quantile(-0.5) == 0);
  CHECK(aggregator->Quantile(2.0) == 7);
  CHECK(aggregator->Quantile(std::nan("")) == 0);

  // Piece-aligned range: exact mass, only the caller's error budget.
  auto aligned = aggregator->RangeMassQuery(0, 4);
  CHECK_NEAR(aligned.mass, 0.4, 1e-12);
  CHECK_NEAR(aligned.error_bound, 0.01, 1e-12);
  // Cutting both pieces: slack covers the unattributable halves.
  auto cut = aggregator->RangeMassQuery(2, 6);
  CHECK_NEAR(cut.mass, 0.5, 1e-12);
  CHECK_NEAR(cut.error_bound, 0.01 + 0.2 + 0.3, 1e-12);
  // Degenerate/clamped ranges.
  CHECK_NEAR(aggregator->RangeMassQuery(5, 5).mass, 0.0, 0.0);
  CHECK_NEAR(aggregator->RangeMassQuery(-10, 100).mass, 1.0, 1e-12);

  // Invalid constructions.
  CHECK(!Aggregator::Create(Histogram(), 0.0).ok());
  CHECK(!Aggregator::Create(*summary, -1.0).ok());
  auto zero_mass = Histogram::Create(8, {{{0, 8}, 0.0}});
  CHECK_OK(zero_mass);
  CHECK(!Aggregator::Create(*zero_mass).ok());
  // Negative or non-finite piece values (possible in a structurally valid
  // hostile wire blob) must be rejected — they would break the monotone
  // prefix masses every query relies on.
  auto negative = Histogram::Create(
      8, {{{0, 2}, 0.5}, {{2, 4}, -0.2}, {{4, 8}, 0.15}});
  CHECK_OK(negative);
  CHECK(!Aggregator::Create(*negative).ok());
  auto with_nan = Histogram::Create(
      8, {{{0, 4}, 0.1}, {{4, 8}, std::nan("")}});
  CHECK_OK(with_nan);
  CHECK(!Aggregator::Create(*with_nan).ok());
  auto with_inf = Histogram::Create(
      8, {{{0, 4}, 0.1}, {{4, 8}, std::numeric_limits<double>::infinity()}});
  CHECK_OK(with_inf);
  CHECK(!Aggregator::Create(*with_inf).ok());
  // Finite values whose total mass overflows to +inf (1e308 on each of 4
  // points): the codec accepts them, since every value is finite, so the
  // snapshot path must reject them as well — otherwise Cdf and
  // RangeMassQuery serve NaN.
  auto overflowing = Histogram::Create(4, {{{0, 2}, 1e308}, {{2, 4}, 1e308}});
  CHECK_OK(overflowing);
  CHECK(!Aggregator::Create(*overflowing).ok());
  ShardSnapshot overflowing_snapshot;
  overflowing_snapshot.num_samples = 1;
  overflowing_snapshot.error_levels = 1;
  overflowing_snapshot.encoded_histogram = EncodeHistogram(*overflowing);
  CHECK(!Aggregator::CreateForSnapshot(overflowing_snapshot).ok());
}

TEST(QuantileCdfRoundTripsWithinOnePiece) {
  Rng rng(31337);
  std::vector<ShardSnapshot> snapshots = MakeSnapshots(9, &rng);
  auto reduced = ReduceSnapshots(snapshots, 8);
  CHECK_OK(reduced);
  auto aggregator = Aggregator::Create(reduced->aggregate);
  CHECK_OK(aggregator);
  const Histogram& h = aggregator->histogram();
  // The resolution limit of a piecewise-constant summary is one piece of
  // mass: Quantile(Cdf(x)) may step back across a zero-mass plateau but
  // never skips more mass than a single piece carries, and never lands
  // past x.
  double max_piece_mass = 0.0;
  for (const HistogramPiece& piece : h.pieces()) {
    max_piece_mass = std::max(
        max_piece_mass, std::abs(piece.value) *
                            static_cast<double>(piece.interval.length()));
  }
  for (int64_t x = 0; x < h.domain_size(); x += 3) {
    const int64_t back = aggregator->Quantile(aggregator->Cdf(x));
    // May overshoot by at most one point (a 1-ulp rounding of q * total
    // when x closes a piece), or step back across a zero-mass plateau.
    CHECK(back <= x + 1);
    const double mass_gap = aggregator->Cdf(x) - aggregator->Cdf(back);
    CHECK(std::abs(mass_gap) <= max_piece_mass + 1e-9);
  }
}

TEST(ServiceEndToEndQuantiles) {
  const int64_t domain = 2000;
  const int64_t k = 10;
  auto p = NormalizeToDistribution(MakeHistDataset({domain, 19980607, 10,
                                                    20.0, 100.0, 1.0}));
  CHECK_OK(p);
  auto sampler = AliasSampler::Create(*p);
  CHECK_OK(sampler);

  std::vector<ShardSnapshot> snapshots;
  std::vector<int64_t> pooled;
  for (int64_t shard = 0; shard < 4; ++shard) {
    Rng rng(1000 + static_cast<uint64_t>(shard));
    const std::vector<int64_t> samples = sampler->SampleMany(25000, &rng);
    pooled.insert(pooled.end(), samples.begin(), samples.end());
    snapshots.push_back(BuilderSnapshot(static_cast<uint64_t>(shard), domain,
                                        k, 2048, samples));
  }
  auto reduced = ReduceSnapshots(snapshots, k);
  CHECK_OK(reduced);
  CHECK(reduced->total_weight == 100000.0);
  auto aggregator = Aggregator::Create(*reduced);
  CHECK_OK(aggregator);

  std::sort(pooled.begin(), pooled.end());
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const int64_t served = aggregator->Quantile(q);
    const int64_t exact = pooled[static_cast<size_t>(
        q * static_cast<double>(pooled.size()))];
    // A k=10 summary resolves the distribution at piece granularity; the
    // served quantile must stay within a few percent of the domain.
    CHECK(std::abs(served - exact) <= domain / 20);
  }
}

TEST(ReduceSnapshotsDedupesRetransmitsRejectsConflicts) {
  // An at-least-once transport may deliver the same shard snapshot twice.
  // Byte-identical retransmits must collapse to one contribution; two
  // different payloads claiming the same shard_id are a fleet bug and must
  // fail the reduction instead of silently double- or mis-counting.
  auto h1 = Histogram::Create(100, {{{0, 40}, 0.02}, {{40, 100}, 0.005}});
  auto h2 = Histogram::Create(100, {{{0, 70}, 0.01}, {{70, 100}, 0.01}});
  auto h3 = Histogram::Create(100, {{{0, 100}, 0.01}});
  CHECK_OK(h1);
  CHECK_OK(h2);
  CHECK_OK(h3);
  std::vector<ShardSnapshot> fleet;
  fleet.push_back({1, 300, 2, EncodeHistogram(*h1)});
  fleet.push_back({4, 100, 1, EncodeHistogram(*h2)});
  fleet.push_back({6, 200, 3, EncodeHistogram(*h3)});
  auto baseline = ReduceSnapshots(fleet, 8);
  CHECK_OK(baseline);

  // Duplicate every snapshot once (and one of them twice), shuffled in
  // arrival order: the reduction is bit-identical to the clean fleet.
  std::vector<ShardSnapshot> noisy;
  noisy.push_back(fleet[2]);
  noisy.push_back(fleet[0]);
  noisy.push_back(fleet[1]);
  noisy.push_back(fleet[0]);
  noisy.push_back(fleet[2]);
  noisy.push_back(fleet[1]);
  noisy.push_back(fleet[0]);
  auto deduped = ReduceSnapshots(noisy, 8);
  CHECK_OK(deduped);
  CHECK(BitIdentical(deduped->aggregate, baseline->aggregate));
  CHECK(deduped->total_weight == baseline->total_weight);
  CHECK(deduped->depth == baseline->depth);
  CHECK(deduped->num_merges == baseline->num_merges);
  CHECK(deduped->error_levels == baseline->error_levels);

  // Same shard_id, different sample count: conflict.
  std::vector<ShardSnapshot> recount = fleet;
  recount.push_back({1, 301, 2, EncodeHistogram(*h1)});
  CHECK(!ReduceSnapshots(recount, 8).ok());
  // Same shard_id and count, different payload bytes: conflict.
  std::vector<ShardSnapshot> repaint = fleet;
  repaint.push_back({4, 100, 1, EncodeHistogram(*h3)});
  CHECK(!ReduceSnapshots(repaint, 8).ok());
  // Same shard_id, payload, and count, different error accounting: still a
  // conflict — two runs of the same shard cannot disagree on their ladder.
  std::vector<ShardSnapshot> relevel = fleet;
  relevel.push_back({6, 200, 4, EncodeHistogram(*h3)});
  CHECK(!ReduceSnapshots(relevel, 8).ok());
  // Dedupe also applies to idle shards: a retransmitted empty envelope
  // does not disturb the all-empty fallback path.
  std::vector<ShardSnapshot> idle;
  idle.push_back({3, 0, 0, EncodeHistogram(*h3)});
  idle.push_back({3, 0, 0, EncodeHistogram(*h3)});
  auto idle_reduced = ReduceSnapshots(idle, 8);
  CHECK_OK(idle_reduced);
  CHECK(idle_reduced->total_weight == 0.0);
}

TEST(AggregatorRejectsZeroSampleAggregate) {
  // An all-idle fleet reduces fine (the uniform fallback keeps the merge
  // tree total), but it summarizes zero samples: the MergeTreeResult
  // overload refuses to build a query server from it, so nobody serves
  // Quantile(0.99) of a distribution that was never observed.
  auto idle_payload = Histogram::Create(100, {{{0, 100}, 0.01}});
  CHECK_OK(idle_payload);
  std::vector<ShardSnapshot> idle;
  idle.push_back({1, 0, 0, EncodeHistogram(*idle_payload)});
  idle.push_back({2, 0, 0, EncodeHistogram(*idle_payload)});
  idle.push_back({3, 0, 0, EncodeHistogram(*idle_payload)});
  auto reduced = ReduceSnapshots(idle, 8);
  CHECK_OK(reduced);
  CHECK(reduced->total_weight == 0.0);
  CHECK(!Aggregator::Create(*reduced).ok());

  // One busy shard is enough to serve again, and the overload scales the
  // error budget by the reduction's level count.
  auto h = Histogram::Create(100, {{{0, 100}, 0.01}});
  CHECK_OK(h);
  std::vector<ShardSnapshot> fleet = idle;
  fleet.push_back({4, 250, 2, EncodeHistogram(*h)});
  auto busy = ReduceSnapshots(fleet, 8);
  CHECK_OK(busy);
  CHECK(busy->total_weight == 250.0);
  auto served = Aggregator::Create(*busy, 0.01);
  CHECK_OK(served);
  CHECK_NEAR(served->RangeMassQuery(0, 100).error_bound,
             0.01 * static_cast<double>(busy->error_levels), 1e-12);
  // A negative per-level budget is rejected like the raw constructor's.
  CHECK(!Aggregator::Create(*busy, -0.5).ok());
}

}  // namespace
}  // namespace fasthist
