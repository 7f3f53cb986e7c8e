// Perf-structure smoke tests: cheap, deterministic assertions on the merge
// engine's *shape*, so the two properties the single-pass refactor bought —
// no per-round (or per-support) allocations on a warm engine, and exactly
// one sweep over the partition planes per round — are locked in by ctest in
// every build mode instead of only by reading the bench output.

#include <atomic>
#include <cstdlib>
#include <new>
#include <type_traits>
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
#include "util/parallel.h"

// Global allocation counter, the same crude-but-exact instrument
// bench_micro's --merge-grid check uses: every operator new in the binary
// bumps it, so a warm construction's count is the number of vector (and
// closure) allocations the engine performs — no sampling, no estimates.
// Atomic because the forced-parallel case below runs genuine pool workers,
// any of which may allocate.
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
TEST(WarmAddBatchAllocatesPerWindowAndPerCarry) {
  ArchetypeConfig config;  // domain 1024, k 8, window 64: the served shape
  auto store = SummaryStore::Create(config);
  CHECK_OK(store);
  constexpr int64_t kWindows = 128;
  const auto window = static_cast<int64_t>(config.window_capacity);
  std::vector<KeyedSample> batch(static_cast<size_t>(kWindows * window));
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = {1, static_cast<int64_t>((i * 2654435761u) % 1024)};
  }
  const uint64_t measured_key = 2;
  CHECK(store->EnsureKeys({uint64_t{1}, measured_key}).ok());
  CHECK(store->AddBatch(batch).ok());  // warm-up: key 1
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

// The per-thread workspace must not keep what a huge run grew: a
// construction larger than kWorkspaceRetainedAtoms frees its oversized
// buffers when it ends, and a small construction afterwards leaves the
// workspace at or below the cap (and warm: only its output allocates).
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
// 2 * rounds.  The pass structure is thread-invariant, so the forced-
// parallel run must report the identical shape.
TEST(FusedRoundMakesOneSweepOverThePlanes) {
  const SparseFunction q = Signal(1 << 15);
  const auto check_passes = [](long long expected_rounds) {
    const internal::EngineCounters& c = internal::EngineCountersForTesting();
    CHECK(c.rounds == expected_rounds);
    CHECK(c.evaluate_passes == 1);
    CHECK(c.commit_passes == 1);
    CHECK(c.fused_passes == expected_rounds - 1);
  };

  internal::ResetEngineCountersForTesting();
  auto hist = ConstructHistogramFast(q, 64, MergingOptions());
  CHECK_OK(hist);
  CHECK(hist->num_rounds > 2);
  check_passes(hist->num_rounds);

  internal::ResetEngineCountersForTesting();
  auto poly = ConstructPiecewisePolynomial(Signal(1 << 12), 8, 2,
                                           MergingOptions());
  CHECK_OK(poly);
  CHECK(poly->num_rounds > 2);
  check_passes(poly->num_rounds);

  SetHardwareParallelismForTesting(4);
  MergingOptions threaded;
  threaded.num_threads = 4;
  internal::ResetEngineCountersForTesting();
  auto threaded_hist = ConstructHistogramFast(q, 64, threaded);
  CHECK_OK(threaded_hist);
  CHECK(threaded_hist->num_rounds == hist->num_rounds);
  check_passes(threaded_hist->num_rounds);
  SetHardwareParallelismForTesting(0);
}

// Reset() is the recycling contract the keyed store's slab design leans on:
// a warm builder re-fed after Reset() must not pay the construction
// allocations again (buffer reserve, ladder growth), and two warm runs must
// land on the identical allocation count — if a Reset leaked state into
// the next run, the counts would drift.
TEST(StreamingBuilderResetReusesWithoutReallocation) {
  static_assert(
      std::is_move_assignable<StreamingHistogramBuilder>::value &&
          std::is_move_constructible<StreamingHistogramBuilder>::value,
      "pools recycle builders by move");

  const int64_t domain = 4096;
  const int64_t k = 16;
  const size_t buffer = 512;
  std::vector<int64_t> samples(20 * buffer);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<int64_t>((i * 2654435761u) % domain);
  }

  auto builder = StreamingHistogramBuilder::Create(domain, k, buffer);
  CHECK_OK(builder);
  const auto run = [&]() {
    const long long before = g_allocations.load(std::memory_order_relaxed);
    CHECK(builder->AddMany(samples).ok());
    return g_allocations.load(std::memory_order_relaxed) - before;
  };

  const long long cold = run();  // pays ladder growth + engine warm-up
  builder->Reset();
  CHECK(builder->num_samples() == 0);
  CHECK(builder->generation() == 0);
  const long long warm1 = run();
  builder->Reset();
  const long long warm2 = run();
  CHECK(warm1 == warm2);  // warm runs are allocation-deterministic
  CHECK(warm1 < cold);    // the reused buffers actually got reused
}

}  // namespace
}  // namespace fasthist
