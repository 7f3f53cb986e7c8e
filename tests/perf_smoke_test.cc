// Perf-structure smoke tests: cheap, deterministic assertions on the merge
// engine's *shape*, so the two properties the single-pass refactor bought —
// no per-round (or per-support) allocations on a warm engine, and exactly
// one sweep over the polynomial loop's planes per round — are locked in by
// ctest in every build mode instead of only by reading the bench output.

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/fast_merging.h"
#include "core/merging.h"
#include "core/streaming.h"
#include "core/internal/merge_engine.h"
#include "data/generators.h"
#include "dist/empirical.h"
#include "poly/poly_merging.h"
#include "store/summary_store.h"
#include "tests/fasthist_test.h"

// Global allocation counter, the same crude-but-exact instrument
// bench_micro's --merge-grid check uses: every operator new in the binary
// bumps it, so a warm construction's count is the number of vector
// allocations the engine performs — no sampling, no estimates.
namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fasthist {
namespace {

SparseFunction Signal(int64_t n) {
  PolyDatasetOptions options;
  options.domain_size = n;
  return SparseFunction::FromDense(MakePolyDataset(options));
}

// Allocations made by fn(), counted on every thread of the process.
template <typename Fn>
long long CountAllocations(Fn&& fn) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

// A warm serial construction allocates exactly its output histogram: the
// engine's planes and round scratch live in a per-thread workspace that the
// previous run already sized, and the fused rounds reuse every buffer — so
// two inputs whose constructions run different round counts must land on
// the same count, 1.
TEST(WarmConstructionAllocationsAreRoundCountIndependent) {
  const int64_t k = 64;
  long long counts[2] = {0, 0};
  long long rounds[2] = {0, 0};
  const int64_t sizes[2] = {1 << 15, 1 << 18};
  for (int i = 0; i < 2; ++i) {
    const SparseFunction q = Signal(sizes[i]);
    MergingOptions serial;
    auto warm = ConstructHistogramFast(q, k, serial);  // buffers sized here
    CHECK_OK(warm);
    rounds[i] = warm->num_rounds;
    counts[i] = CountAllocations(
        [&] { CHECK_OK(ConstructHistogramFast(q, k, serial)); });
  }
  CHECK(rounds[0] != rounds[1]);  // the sizes really differ in round count
  CHECK(counts[0] == counts[1]);
  CHECK(counts[0] == 1);
}

// A warm MergeHistograms fills the engine planes straight from the
// boundary union, so it too allocates only its output histogram.
TEST(WarmMergeHistogramsAllocatesOnlyItsOutput) {
  std::vector<int64_t> samples(500);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<int64_t>((i * 7919) % 4096);
  }
  auto a = ConstructHistogramFast(Signal(4096), 16);
  auto b = ConstructHistogramFast(EmpiricalDistribution(4096, samples).value(),
                                  16);
  CHECK_OK(a);
  CHECK_OK(b);
  for (const int64_t k : {2, 8, 16}) {
    CHECK_OK(MergeHistograms(a->histogram, 3.0, b->histogram, 5.0, k));
    const long long count = CountAllocations([&] {
      CHECK_OK(MergeHistograms(a->histogram, 3.0, b->histogram, 5.0, k));
    });
    CHECK(count == 1);
  }
}

// The served condense path, counted over many windows of one key:
// each condensed window allocates its empirical support (indices and
// values) and its condensed histogram, and each dyadic ladder carry one
// Load copy of the resident summary and one merged histogram.  Nothing
// else — no sort scratch in AddBatch, no engine buffers, no store vectors.
// A warm-up key in the same slab chunk first grows the chunk's ladder
// planes (and the per-thread scratch) so the measured key pays none of it.
// The store is reserved for both keys, and the measured key is created
// inside the counted batch, so creating a key in a reserved store must
// allocate nothing either.
TEST(WarmAddBatchAllocatesPerWindowAndPerCarry) {
  ArchetypeConfig config;  // domain 1024, k 8, window 64: the served shape
  auto store = SummaryStore::Create(config);
  CHECK_OK(store);
  CHECK(store->ReserveKeys(2).ok());
  constexpr int64_t kWindows = 128;
  const auto window = static_cast<int64_t>(config.window_capacity);
  std::vector<KeyedSample> batch(static_cast<size_t>(kWindows * window));
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = {1, static_cast<int64_t>((i * 2654435761u) % 1024)};
  }
  const uint64_t measured_key = 2;
  CHECK(store->AddBatch(batch).ok());  // warm-up: key 1
  CHECK(!store->Contains(measured_key));
  for (KeyedSample& sample : batch) sample.key = measured_key;
  const long long count =
      CountAllocations([&] { CHECK(store->AddBatch(batch).ok()); });
  // Commit i (1-based) carries once per trailing zero bit of i.
  long long carries = 0;
  for (int64_t i = 1; i <= kWindows; ++i) {
    for (int64_t v = i; v % 2 == 0; v /= 2) ++carries;
  }
  CHECK(carries == kWindows - 1);
  CHECK(count == 3 * kWindows + 2 * carries);
  CHECK(store->NumSamples(measured_key).value() == kWindows * window);
}

// A served quantile is read in place from the key's slab planes, so on a
// warm store it allocates nothing, at either window width (domain 1024
// stores 2-byte values, 2^16 + 1 8-byte ones).  Each measured key holds 11
// full windows (three occupied ladder slots) and 37 samples in its window.
TEST(WarmStoreQuantileAllocatesNothing) {
  for (const int64_t domain : {int64_t{1024}, (int64_t{1} << 16) + 1}) {
    ArchetypeConfig config;
    config.domain_size = domain;
    auto store = SummaryStore::Create(config);
    CHECK_OK(store);
    const auto window = static_cast<int64_t>(config.window_capacity);
    std::vector<KeyedSample> batch;
    for (uint64_t key = 1; key <= 4; ++key) {
      for (int64_t i = 0; i < 11 * window + 37; ++i) {
        const auto value = static_cast<int64_t>(
            (static_cast<uint64_t>(i) * 2654435761u + key) %
            static_cast<uint64_t>(domain));
        batch.push_back({key, value});
      }
    }
    CHECK(store->AddBatch(batch).ok());
    for (uint64_t key = 1; key <= 4; ++key) {
      // Depth 4 (slots at levels 0, 1 and 3: 11 = 0b1011), plus 1 for the
      // fold of four sources.
      CHECK(store->ErrorLevels(key).value() == 5);
    }
    CHECK_OK(store->Quantile(1, 0.5));
    const double qs[] = {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0};
    const long long count = CountAllocations([&] {
      for (uint64_t key = 1; key <= 4; ++key) {
        for (const double q : qs) CHECK_OK(store->Quantile(key, q));
      }
    });
    CHECK(count == 0);
  }
}

// The per-thread histogram planes must not keep what a huge run grew: a
// construction larger than kWorkspaceRetainedAtoms frees its planes when
// it ends, and a small construction afterwards leaves them at or below the
// cap (and warm: only its output allocates).
TEST(EngineWorkspaceReleasesCapacityAboveCap) {
  const auto cap = static_cast<long long>(internal::kWorkspaceRetainedAtoms);
  const internal::EngineCounters& counters =
      internal::EngineCountersForTesting();
  const SparseFunction large = Signal(1 << 20);
  CHECK_OK(ConstructHistogramFast(large, 64));
  CHECK(counters.workspace_peak_elements > cap);
  CHECK(counters.workspace_retained_elements <= cap);

  const SparseFunction small = Signal(1 << 12);
  CHECK_OK(ConstructHistogramFast(small, 64));
  CHECK(counters.workspace_retained_elements > 0);
  CHECK(counters.workspace_retained_elements <= cap);
  const long long count =
      CountAllocations([&] { CHECK_OK(ConstructHistogramFast(small, 64)); });
  CHECK(count == 1);
  CHECK(counters.workspace_retained_elements <= cap);
}

// One fused round = one sweep over the planes.  The engine's pass counters
// (a test-only hook in core/internal/merge_engine.h) must show exactly one
// stand-alone evaluation (the cold start), one bare commit (the final
// round), and a fused commit+evaluate for every round in between:
// total plane sweeps == rounds + 1, where the pre-fusion engine spent
// 2 * rounds.  The counters count the polynomial loop, whose fused kernel
// this is.
TEST(FusedRoundMakesOneSweepOverThePlanes) {
  const SparseFunction q = Signal(1 << 12);
  internal::ResetEngineCountersForTesting();
  auto poly = ConstructPiecewisePolynomial(q, 8, 2, MergingOptions());
  CHECK_OK(poly);
  CHECK(poly->num_rounds > 2);
  const internal::EngineCounters& c = internal::EngineCountersForTesting();
  CHECK(c.rounds == poly->num_rounds);
  CHECK(c.evaluate_passes == 1);
  CHECK(c.commit_passes == 1);
  CHECK(c.fused_passes == poly->num_rounds - 1);
}

}  // namespace
}  // namespace fasthist
