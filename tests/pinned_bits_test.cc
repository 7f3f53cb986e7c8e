// Output-bit pins: FNV-1a digests of EncodeHistogram bytes over a seeded
// corpus, compared against constants recorded from a reference build.
//
// Every other identity gate in the suite compares two paths of one build
// (fast == slow, store == builder, replay == server), so a refactor that
// changes both sides alike passes all of them.  These digests pin the
// absolute output bits of the served path instead: keyed store ingest,
// ConstructHistogram / ConstructHistogramFast on empirical windows,
// MergeHistograms, and FoldBufferIntoSummary.  A change to any of them —
// an operand reordered, an intermediate rounded differently — moves the
// digest.
//
// Two constants per section: GCC contracts `a*b + c*d` into a fused
// multiply-add when the target has FMA (e.g. -march=native builds), which
// legitimately changes the low bits, so builds with __FMA__ defined carry
// their own reference.  The corpus draws only integers from the seeded
// generator (no libm), so the digests do not depend on the math library.
//
// On a mismatch the failure message prints the digest this build computed.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/fast_merging.h"
#include "core/merging.h"
#include "core/streaming.h"
#include "dist/empirical.h"
#include "service/wire_format.h"
#include "store/summary_store.h"
#include "tests/fasthist_test.h"
#include "util/random.h"

namespace fasthist {
namespace {

#if defined(__FMA__)
constexpr uint64_t kStoreDigest = 0x1241943720cc30b2ull;
constexpr uint64_t kConstructDigest = 0x07522b570374f9edull;
constexpr uint64_t kMergeDigest = 0xbe18cb8d70beca8aull;
constexpr uint64_t kFoldDigest = 0xd843418ce629a099ull;
#else
constexpr uint64_t kStoreDigest = 0x9f7c453ed408c2ecull;
constexpr uint64_t kConstructDigest = 0x07522b570374f9edull;
constexpr uint64_t kMergeDigest = 0xf778df95822802d2ull;
constexpr uint64_t kFoldDigest = 0xd035992b2789a30full;
#endif

// 64-bit FNV-1a.
class Digest {
 public:
  void Bytes(const uint8_t* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  void U64(uint64_t value) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    Bytes(bytes, sizeof(bytes));
  }
  void F64(double value) {
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    U64(bits);
  }
  void Hist(const Histogram& histogram) {
    const std::vector<uint8_t> bytes = EncodeHistogram(histogram);
    U64(bytes.size());
    Bytes(bytes.data(), bytes.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void CheckDigest(const char* section, const Digest& digest, uint64_t pinned) {
  if (digest.value() == pinned) return;
  char message[160];
  std::snprintf(message, sizeof(message),
                "%s digest 0x%016" PRIx64 " != pinned 0x%016" PRIx64, section,
                digest.value(), pinned);
  testing::FailCheck(__FILE__, __LINE__, message);
}

// One sample from one of five integer-only shapes over [0, domain):
// uniform, a handful of atoms, low-skewed, a sweeping ramp, and a narrow
// band.  Mixing them gives windows from near-discrete to full support.
int64_t DrawSample(Rng& rng, int shape, int64_t domain, uint64_t step) {
  switch (shape) {
    case 0:
      return rng.UniformInt(domain);
    case 1: {
      const int64_t atoms = domain < 5 ? domain : 5;
      return (rng.UniformInt(atoms) * 7919) % domain;
    }
    case 2:
      return rng.UniformInt(domain) * rng.UniformInt(domain) / domain;
    case 3:
      return static_cast<int64_t>((step * 37) % static_cast<uint64_t>(domain));
    default: {
      const int64_t band = domain < 9 ? domain : 9;
      return domain / 2 + rng.UniformInt(band) - band / 2;
    }
  }
}

std::vector<int64_t> Window(Rng& rng, size_t size, int64_t domain) {
  const int shape = static_cast<int>(rng.UniformInt(5));
  std::vector<int64_t> window(size);
  for (size_t i = 0; i < size; ++i) window[i] = DrawSample(rng, shape, domain, i);
  return window;
}

struct Knobs {
  int64_t domain;
  int64_t k;
  double delta;
  double gamma;
};

// Domains from tiny (a window covers all of it) to far larger than any
// window, and knobs around the defaults.
const Knobs kKnobs[] = {
    {1024, 8, 1000.0, 1.0}, {16, 3, 1000.0, 1.0},      {1 << 20, 5, 1000.0, 1.0},
    {300, 12, 0.5, 1.0},    {4096, 2, 1000.0, 2.0},    {97, 1, 4.0, 1.0},
    {1 << 14, 32, 10.0, 1.5},
};

MergingOptions OptionsOf(const Knobs& knobs) {
  MergingOptions options;
  options.delta = knobs.delta;
  options.gamma = knobs.gamma;
  return options;
}

// Keyed ingest through SummaryStore::AddBatch: 320 keys per shape with
// skewed popularity, runs of one key inside a batch, and every key read
// back in key-index order (summary, sample count, error levels).
TEST(PinnedBitsSummaryStoreAddBatch) {
  struct Shape {
    int64_t domain;
    int64_t k;
    size_t window;
    double delta;
    double gamma;
    size_t samples;
  };
  const Shape shapes[] = {
      {1024, 8, 64, 1000.0, 1.0, 150000}, {16, 3, 7, 1000.0, 1.0, 20000},
      {1 << 20, 5, 100, 1000.0, 1.0, 40000}, {300, 12, 1, 0.5, 1.0, 3000},
      {4096, 2, 500, 1000.0, 2.0, 60000},
  };
  constexpr int64_t kKeys = 320;
  Digest digest;
  uint64_t seed = 0x5eed;
  for (const Shape& shape : shapes) {
    Rng rng(seed++);
    ArchetypeConfig config;
    config.domain_size = shape.domain;
    config.k = shape.k;
    config.window_capacity = shape.window;
    config.options.delta = shape.delta;
    config.options.gamma = shape.gamma;
    auto store = SummaryStore::Create(config);
    CHECK_OK(store);
    std::vector<KeyedSample> batch;
    uint64_t step = 0;
    size_t sent = 0;
    while (sent < shape.samples) {
      batch.clear();
      const size_t size = static_cast<size_t>(rng.UniformInt(700)) + 1;
      while (batch.size() < size) {
        const int64_t index = rng.UniformInt(kKeys) * rng.UniformInt(kKeys) / kKeys;
        const uint64_t key = static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull;
        const size_t run = static_cast<size_t>(rng.UniformInt(4)) + 1;
        for (size_t r = 0; r < run && batch.size() < size; ++r) {
          batch.push_back(
              {key, DrawSample(rng, static_cast<int>(index % 5), shape.domain,
                               step++)});
        }
      }
      CHECK(store->AddBatch(batch).ok());
      sent += batch.size();
    }
    for (int64_t index = 0; index < kKeys; ++index) {
      const uint64_t key = static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ull;
      if (!store->Contains(key)) continue;
      auto summary = store->Query(key);
      CHECK_OK(summary);
      digest.U64(key);
      digest.Hist(*summary);
      digest.U64(static_cast<uint64_t>(store->NumSamples(key).value()));
      digest.U64(static_cast<uint64_t>(store->ErrorLevels(key).value()));
    }
  }
  CheckDigest("SummaryStore::AddBatch", digest, kStoreDigest);
}

// ConstructHistogram and ConstructHistogramFast on empirical windows of
// 1 to 4096 samples: output bytes, err_squared bits and round count.
TEST(PinnedBitsConstructHistogram) {
  Digest digest;
  Rng rng(0xc0de);
  const size_t sizes[] = {1, 2, 7, 64, 65, 500, 4096};
  for (const Knobs& knobs : kKnobs) {
    for (size_t size : sizes) {
      const std::vector<int64_t> window = Window(rng, size, knobs.domain);
      auto empirical = EmpiricalDistribution(knobs.domain, window);
      CHECK_OK(empirical);
      for (auto construct : {&ConstructHistogram, &ConstructHistogramFast}) {
        auto built = construct(*empirical, knobs.k, OptionsOf(knobs));
        CHECK_OK(built);
        digest.Hist(built->histogram);
        digest.F64(built->err_squared);
        digest.U64(static_cast<uint64_t>(built->num_rounds));
      }
    }
  }
  CheckDigest("ConstructHistogram", digest, kConstructDigest);
}

// MergeHistograms over pairs of condensed windows, at equal, skewed,
// zero and sample-count weights.
TEST(PinnedBitsMergeHistograms) {
  Digest digest;
  Rng rng(0x3e46e);
  for (const Knobs& knobs : kKnobs) {
    std::vector<Histogram> parts;
    const size_t sizes[] = {1, 9, 64, 300, 2000};
    for (size_t size : sizes) {
      auto empirical =
          EmpiricalDistribution(knobs.domain, Window(rng, size, knobs.domain));
      CHECK_OK(empirical);
      auto built = ConstructHistogramFast(*empirical, knobs.k, OptionsOf(knobs));
      CHECK_OK(built);
      parts.push_back(std::move(built->histogram));
    }
    const double weights[][2] = {{1.0, 1.0}, {64.0, 128.0}, {0.0, 3.0},
                                 {1e-3, 7.5}, {1023.0, 1.0}};
    for (size_t a = 0; a < parts.size(); ++a) {
      for (size_t b = 0; b < parts.size(); ++b) {
        const double* w = weights[(a + b) % 5];
        auto merged = MergeHistograms(parts[a], w[0], parts[b], w[1], knobs.k,
                                      OptionsOf(knobs));
        CHECK_OK(merged);
        digest.Hist(*merged);
      }
    }
  }
  CheckDigest("MergeHistograms", digest, kMergeDigest);
}

// FoldBufferIntoSummary, both halves: condensing a bare buffer, and
// chaining a buffer onto a committed summary.
TEST(PinnedBitsFoldBufferIntoSummary) {
  Digest digest;
  Rng rng(0xf01d);
  for (const Knobs& knobs : kKnobs) {
    const MergingOptions options = OptionsOf(knobs);
    auto base = StreamingHistogramBuilder::FoldBufferIntoSummary(
        nullptr, 0, Window(rng, 256, knobs.domain), knobs.domain, knobs.k,
        options);
    CHECK_OK(base);
    digest.Hist(*base);
    const size_t sizes[] = {1, 5, 63, 64, 1000};
    for (size_t size : sizes) {
      auto folded = StreamingHistogramBuilder::FoldBufferIntoSummary(
          &*base, 256, Window(rng, size, knobs.domain), knobs.domain, knobs.k,
          options);
      CHECK_OK(folded);
      digest.Hist(*folded);
    }
  }
  CheckDigest("FoldBufferIntoSummary", digest, kFoldDigest);
}

}  // namespace
}  // namespace fasthist
