// Google-benchmark microbenchmarks of the library's kernels: merging at
// several input sizes (sample-linear time, Theorem 3.4), the served
// 64-sample window condense and ladder carry, the store's batched ingest
// at few and many keys, its served quantile and summary fold at
// query_mix's key shape, the ingest payload codec, the hierarchical
// builder, Gram evaluation (O(d) per point), the projection oracle, alias
// sampling (O(1)), empirical-distribution construction, and the exact DP
// for context.
//
// Invoked with --merge-grid the binary instead runs the size scaling grid
// of the merge engine (histogram constructions at 2^20 .. 2^26 domains,
// plus one polynomial row) and writes the machine-readable perf trajectory
// to BENCH_merge.json — plus an allocation sanity check asserting the
// engine's round-persistent buffers really keep the per-construction
// allocation count independent of the round count.  Every cell is timed
// min-of-R (R >= 3, --reps=<R> to raise it), so a single noisy run can
// never enter the committed trajectory.  --smoke shrinks the grid for CI;
// --out=<path> redirects the JSON.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/equi.h"
#include "baseline/exact_dp.h"
#include "baseline/wavelet.h"
#include "bench/bench_util.h"
#include "core/fast_merging.h"
#include "core/streaming.h"
#include "core/hierarchical.h"
#include "core/merging.h"
#include "data/generators.h"
#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#if defined(FASTHIST_HAVE_NET)
#include "net/frame.h"
#endif
#include "poly/fit_poly.h"
#include "poly/gram.h"
#include "poly/poly_merging.h"
#include "store/summary_store.h"
#include "util/random.h"
#include "util/span.h"
#include "util/timer.h"

// ---------------------------------------------------------------------------
// Global allocation counter for the grid's sanity check.  Counting every
// operator new in the binary is crude but exactly what we need: a
// construction on an already-warm engine should allocate O(1) vectors plus
// O(1) per round, never O(support).
// ---------------------------------------------------------------------------

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

std::vector<double> Signal(int64_t n) {
  PolyDatasetOptions options;
  options.domain_size = n;
  return MakePolyDataset(options);
}

void BM_ConstructHistogram(benchmark::State& state) {
  const SparseFunction q = SparseFunction::FromDense(Signal(state.range(0)));
  for (auto _ : state) {
    auto result = ConstructHistogram(q, 10);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConstructHistogram)->Range(1 << 10, 1 << 18)->Complexity();

// k = 8 keeps 8 pairs per round (the top-8 network select), k = 10 keeps
// 10 (the heap select); one family each, so each gets its own fit.
void BM_ConstructHistogramFast(benchmark::State& state, int64_t k) {
  const SparseFunction q = SparseFunction::FromDense(Signal(state.range(0)));
  for (auto _ : state) {
    auto result = ConstructHistogramFast(q, k);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_ConstructHistogramFast, k8, 8)
    ->Range(1 << 10, 1 << 18)
    ->Complexity();
BENCHMARK_CAPTURE(BM_ConstructHistogramFast, k10, 10)
    ->Range(1 << 10, 1 << 18)
    ->Complexity();

// The served window shape: 64 samples of the paper's "hist" panel over
// domain 1024, condensed at k = 8.
constexpr int64_t kServedDomain = 1024;
constexpr size_t kServedWindow = 64;
constexpr int64_t kServedK = 8;

// `windows` pre-drawn served windows, back to back.
std::vector<int64_t> ServedWindowSamples(size_t windows) {
  HistDatasetOptions hist;
  hist.domain_size = kServedDomain;
  auto p = NormalizeToDistribution(MakeHistDataset(hist)).value();
  auto sampler = AliasSampler::Create(p).value();
  Rng rng(6);
  return sampler.SampleMany(kServedWindow * windows, &rng);
}

// The served condense path: EmpiricalDistribution + ConstructHistogramFast
// on one window.  Iterations cycle through 4096 pre-drawn windows:
// replaying a single window lets the branch predictor learn its keep
// decisions and hides about half of the cost.
void BM_CondenseWindow(benchmark::State& state) {
  constexpr size_t kWindows = 4096;
  const std::vector<int64_t> samples = ServedWindowSamples(kWindows);
  size_t window = 0;
  for (auto _ : state) {
    auto q = EmpiricalDistribution(
        kServedDomain,
        Span<const int64_t>(samples.data() + window * kServedWindow,
                            kServedWindow));
    auto result = ConstructHistogramFast(*q, kServedK);
    benchmark::DoNotOptimize(result);
    window = (window + 1) % kWindows;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kServedWindow));
}
BENCHMARK(BM_CondenseWindow);

// The served ladder carry: MergeHistograms of two condensed windows at
// weights 64/64, k = 8 (a union of at most 34 atoms).  Iterations cycle
// through 2048 pre-built pairs, like BM_CondenseWindow (BM_MergeHistograms
// replays one pair, so the predictor learns it).
void BM_LadderCarry(benchmark::State& state) {
  constexpr size_t kPairs = 2048;
  const std::vector<int64_t> samples = ServedWindowSamples(2 * kPairs);
  std::vector<Histogram> condensed;
  condensed.reserve(2 * kPairs);
  for (size_t w = 0; w < 2 * kPairs; ++w) {
    auto q = EmpiricalDistribution(
        kServedDomain,
        Span<const int64_t>(samples.data() + w * kServedWindow,
                            kServedWindow));
    condensed.push_back(ConstructHistogramFast(*q, kServedK)->histogram);
  }
  const auto weight = static_cast<double>(kServedWindow);
  size_t pair = 0;
  for (auto _ : state) {
    auto merged = MergeHistograms(condensed[2 * pair], weight,
                                  condensed[2 * pair + 1], weight, kServedK);
    benchmark::DoNotOptimize(merged);
    pair = (pair + 1) % kPairs;
  }
}
BENCHMARK(BM_LadderCarry);

// The served store ingest: 4096-sample AddBatch flushes into one
// partition's store, with the served archetype (domain 1024, k 8, window
// 64).  /64 is one ingest_hot partition: 64 keys drawn at random, so every
// window fills and condenses.  /131072 is one ingest_wide partition: an odd
// multiplier walks every key once per sweep, so no key gets a second sample
// before all have had one, no window fills, and the index, slot and window
// cache misses are the cost.  Batches are pre-built; at 131072 keys, where
// each key starts with one sample, the store is rebuilt untimed after 62
// sweeps, before any window could fill.  ns per sample = Time / 4096.
void BM_StoreAddBatch(benchmark::State& state) {
  constexpr size_t kFlush = 4096;
  constexpr uint64_t kStride = 0x9e3779b97f4a7c15ull;  // odd
  constexpr int kSweepsBeforeFill = 62;
  const auto num_keys = static_cast<uint64_t>(state.range(0));
  const bool wide = num_keys >= kFlush;  // a flush holds each key once
  const auto key_of = [](uint64_t slot) { return (uint64_t{1} << 40) | slot; };
  ArchetypeConfig config;
  config.domain_size = kServedDomain;
  config.k = kServedK;
  config.window_capacity = kServedWindow;

  // /64 cycles 16 random flushes; /131072 cycles the 32 flushes of a sweep.
  const size_t num_flushes =
      wide ? static_cast<size_t>(num_keys) / kFlush : 16;
  const std::vector<int64_t> values = ServedWindowSamples(
      (num_flushes * kFlush + num_keys) / kServedWindow + 1);
  Rng rng(7);
  std::vector<std::vector<KeyedSample>> flushes(num_flushes);
  size_t next_value = 0;
  for (size_t f = 0; f < num_flushes; ++f) {
    for (size_t i = 0; i < kFlush; ++i) {
      const uint64_t j = f * kFlush + i;
      const uint64_t slot =
          wide ? (j * kStride) & (num_keys - 1)
               : static_cast<uint64_t>(
                     rng.UniformInt(static_cast<int64_t>(num_keys)));
      flushes[f].push_back({key_of(slot), values[next_value++]});
    }
  }
  // Setup as in the workloads: 4 windows per key at 64 keys, one sample
  // per key at 131072, keys created in slot order.
  std::vector<KeyedSample> setup;
  for (int round = 0; round < (wide ? 1 : 4 * static_cast<int>(kServedWindow));
       ++round) {
    for (uint64_t slot = 0; slot < num_keys; ++slot) {
      setup.push_back({key_of(slot), values[next_value++ % values.size()]});
    }
  }
  std::optional<SummaryStore> store;
  const auto rebuild = [&] {
    store.reset();
    store.emplace(SummaryStore::Create(config).value());
    if (!store->AddBatch(setup).ok()) state.SkipWithError("setup failed");
  };
  rebuild();

  size_t flush = 0;
  int sweeps = 0;
  for (auto _ : state) {
    if (!store->AddBatch(flushes[flush]).ok()) {
      state.SkipWithError("AddBatch failed");
      break;
    }
    if (++flush == num_flushes) {
      flush = 0;
      if (wide && ++sweeps == kSweepsBeforeFill) {
        state.PauseTiming();
        rebuild();
        sweeps = 0;
        state.ResumeTiming();
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kFlush));
}
BENCHMARK(BM_StoreAddBatch)->Arg(64)->Arg(131072);

// The served per-key reads at query_mix's key shape: 2048 keys of 256 to
// 1023 hist-panel samples each (ladders 2-4 levels deep, most windows
// partial) in one store of the served archetype.  BM_StoreQuantile is what
// the server's kQuantileQuery runs (SummaryStore::Quantile, read from the
// ladder mixture); BM_StoreQueryFold is the fold a snapshot pull runs
// before it encodes (SummaryStore::Query).  Iterations cycle through 4096
// pre-drawn requests: a random key and, for the quantile, one of the nine
// probe qs.
struct ServedReads {
  SummaryStore store;
  std::vector<uint64_t> keys;  // one per request
  std::vector<double> qs;      // one per request
};

ServedReads MakeServedReads() {
  constexpr uint64_t kKeys = 2048;
  constexpr size_t kRequests = 4096;
  constexpr double kProbeQs[] = {0.01, 0.05, 0.1,  0.25, 0.5,
                                 0.75, 0.9,  0.95, 0.99};
  const auto key_of = [](uint64_t slot) { return (uint64_t{1} << 40) | slot; };
  ArchetypeConfig config;
  config.domain_size = kServedDomain;
  config.k = kServedK;
  config.window_capacity = kServedWindow;
  Rng rng(13);
  std::vector<size_t> counts(kKeys);
  size_t total = 0;
  for (size_t& count : counts) {
    count = 256 + static_cast<size_t>(rng.UniformInt(768));
    total += count;
  }
  const std::vector<int64_t> values =
      ServedWindowSamples(total / kServedWindow + 1);
  std::vector<KeyedSample> setup;
  setup.reserve(total);
  for (uint64_t slot = 0; slot < kKeys; ++slot) {
    for (size_t i = 0; i < counts[slot]; ++i) {
      setup.push_back({key_of(slot), values[setup.size()]});
    }
  }
  ServedReads reads{SummaryStore::Create(config).value(), {}, {}};
  if (!reads.store.AddBatch(setup).ok()) std::abort();
  for (size_t r = 0; r < kRequests; ++r) {
    reads.keys.push_back(key_of(static_cast<uint64_t>(
        rng.UniformInt(static_cast<int64_t>(kKeys)))));
    reads.qs.push_back(kProbeQs[r % 9]);
  }
  return reads;
}

void BM_StoreQuantile(benchmark::State& state) {
  const ServedReads reads = MakeServedReads();
  size_t r = 0;
  for (auto _ : state) {
    auto answer = reads.store.Quantile(reads.keys[r], reads.qs[r]);
    if (!answer.ok()) {
      state.SkipWithError("Quantile failed");
      break;
    }
    benchmark::DoNotOptimize(answer->value);
    r = (r + 1) % reads.keys.size();
  }
}
BENCHMARK(BM_StoreQuantile);

void BM_StoreQueryFold(benchmark::State& state) {
  const ServedReads reads = MakeServedReads();
  size_t r = 0;
  for (auto _ : state) {
    auto summary = reads.store.Query(reads.keys[r]);
    if (!summary.ok()) {
      state.SkipWithError("Query failed");
      break;
    }
    benchmark::DoNotOptimize(summary->pieces().data());
    r = (r + 1) % reads.keys.size();
  }
}
BENCHMARK(BM_StoreQueryFold);

#if defined(FASTHIST_HAVE_NET)
// The kIngest payload codec at query_mix's batch (64 samples) and the
// ingest workloads' (1024): what a client pays to encode a batch and the
// server to decode it.  Samples are served-window values under 64 random
// keys.  ns per sample = Time / Arg.
std::vector<KeyedSample> IngestBatch(size_t size) {
  const std::vector<int64_t> values =
      ServedWindowSamples((size + kServedWindow - 1) / kServedWindow);
  Rng rng(12);
  std::vector<KeyedSample> batch(size);
  for (size_t i = 0; i < size; ++i) {
    const auto slot = static_cast<uint64_t>(rng.UniformInt(64));
    batch[i] = {(uint64_t{1} << 40) | slot, values[i]};
  }
  return batch;
}

void BM_IngestPayloadEncode(benchmark::State& state) {
  const std::vector<KeyedSample> batch =
      IngestBatch(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<uint8_t> payload = EncodeIngestPayload(batch);
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IngestPayloadEncode)->Arg(64)->Arg(1024);

void BM_IngestPayloadDecode(benchmark::State& state) {
  const std::vector<uint8_t> payload =
      EncodeIngestPayload(IngestBatch(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    auto samples = DecodeIngestPayload(payload);
    if (!samples.ok()) {
      state.SkipWithError("DecodeIngestPayload failed");
      break;
    }
    benchmark::DoNotOptimize(samples->data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IngestPayloadDecode)->Arg(64)->Arg(1024);
#endif  // FASTHIST_HAVE_NET

void BM_Hierarchical(benchmark::State& state) {
  const SparseFunction q = SparseFunction::FromDense(Signal(state.range(0)));
  for (auto _ : state) {
    auto result = HierarchicalHistogram::Build(q);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Hierarchical)->Range(1 << 10, 1 << 16)->Complexity();

void BM_ExactDp(benchmark::State& state) {
  const std::vector<double> q = Signal(state.range(0));
  for (auto _ : state) {
    auto result = VOptimalHistogram(q, 10);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ExactDp)->Range(1 << 8, 1 << 11)->Complexity();

void BM_EvaluateGram(benchmark::State& state) {
  GramBasis basis = GramBasis::Create(4096, static_cast<int>(state.range(0)))
                        .value();
  std::vector<double> out;
  double x = 0.0;
  for (auto _ : state) {
    basis.EvaluateAt(x, &out);
    benchmark::DoNotOptimize(out);
    x += 1.0;
    if (x >= 4096.0) x = 0.0;
  }
}
BENCHMARK(BM_EvaluateGram)->DenseRange(0, 8, 2);

void BM_FitPoly(benchmark::State& state) {
  const SparseFunction q = SparseFunction::FromDense(Signal(4096));
  const Interval interval{0, 4096};
  const int degree = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = FitPoly(q, interval, degree);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FitPoly)->DenseRange(0, 8, 2);

void BM_AliasSample(benchmark::State& state) {
  auto p = NormalizeToDistribution(Signal(state.range(0))).value();
  auto sampler = AliasSampler::Create(p).value();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
}
BENCHMARK(BM_AliasSample)->Range(1 << 10, 1 << 16);

void BM_EmpiricalDistribution(benchmark::State& state) {
  auto p = NormalizeToDistribution(Signal(4000)).value();
  auto sampler = AliasSampler::Create(p).value();
  Rng rng(2);
  const auto samples =
      sampler.SampleMany(static_cast<size_t>(state.range(0)), &rng);
  for (auto _ : state) {
    auto result = EmpiricalDistribution(4000, samples);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_EmpiricalDistribution)->Range(1 << 10, 1 << 17);

void BM_EquiDepth(benchmark::State& state) {
  std::vector<double> q = Signal(state.range(0));
  for (double& x : q) x = x > 0.0 ? x : 0.0;
  for (auto _ : state) {
    auto result = EquiDepthHistogram(q, 10);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EquiDepth)->Range(1 << 10, 1 << 16)->Complexity();

void BM_WaveletTopB(benchmark::State& state) {
  const std::vector<double> q = Signal(state.range(0));
  for (auto _ : state) {
    auto result = TopBWaveletSynopsis(q, 10);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WaveletTopB)->Range(1 << 10, 1 << 16)->Complexity();

void BM_MergeHistograms(benchmark::State& state) {
  const SparseFunction q1 = SparseFunction::FromDense(Signal(8192));
  PolyDatasetOptions alt;
  alt.domain_size = 8192;
  alt.seed = 99;
  const SparseFunction q2 =
      SparseFunction::FromDense(MakePolyDataset(alt));
  const Histogram h1 = ConstructHistogram(q1, state.range(0))->histogram;
  const Histogram h2 = ConstructHistogram(q2, state.range(0))->histogram;
  for (auto _ : state) {
    auto merged = MergeHistograms(h1, 1.0, h2, 1.0, state.range(0));
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_MergeHistograms)->Range(4, 256);

void BM_StreamingIngest(benchmark::State& state) {
  auto p = NormalizeToDistribution(Signal(4000)).value();
  auto sampler = AliasSampler::Create(p).value();
  Rng rng(5);
  const auto samples = sampler.SampleMany(1 << 16, &rng);
  for (auto _ : state) {
    auto builder = StreamingHistogramBuilder::Create(
                       4000, 10, static_cast<size_t>(state.range(0)))
                       .value();
    benchmark::DoNotOptimize(builder.AddMany(samples));
    benchmark::DoNotOptimize(builder.Snapshot());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_StreamingIngest)->Arg(512)->Arg(4096)->Arg(32768);

// ---------------------------------------------------------------------------
// The size scaling grid (--merge-grid): the perf trajectory of the merge
// engine.  One warm histogram construction per domain size plus one
// degree-2 piecewise-polynomial row, written as BENCH_merge.json via
// bench_util::JsonBenchWriter.
// ---------------------------------------------------------------------------

// The minimum of `reps` timed runs of run_cell, after one untimed warm-up.
double MinOfReps(int reps, const std::function<void()>& run_cell) {
  double best = 0.0;
  for (int rep = -1; rep < reps; ++rep) {
    WallTimer timer;
    run_cell();
    const double ms = timer.ElapsedMillis();
    if (rep < 0) continue;  // the warm-up
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

int RunMergeScalingGrid(int argc, char** argv) {
  const bool smoke = bench_util::HasFlag(argc, argv, "--smoke");
  const char* out_flag = bench_util::FlagValue(argc, argv, "--out=");
  const std::string out_path = out_flag != nullptr ? out_flag : "BENCH_merge.json";
  const char* reps_flag = bench_util::FlagValue(argc, argv, "--reps=");
  const int requested_reps = reps_flag != nullptr ? std::atoi(reps_flag) : 3;
  const int reps = std::max(3, requested_reps);
  if (requested_reps < 3) {
    std::fprintf(stderr,
                 "note: --reps=%d below the floor, using min-of-%d (a lone "
                 "timed run is how noise gets committed)\n",
                 requested_reps, reps);
  }
  const int64_t k = 64;

  std::vector<int64_t> sizes = smoke
      ? std::vector<int64_t>{1 << 14, 1 << 16}
      : std::vector<int64_t>{1 << 20, 1 << 22, 1 << 24, 1 << 26};

  bench_util::JsonBenchWriter writer("merge_scaling");
  writer.AddContext("k", static_cast<double>(k));
  // The machine's cores, for context: every cell runs on one thread.
  writer.AddContext("hardware_threads",
                    static_cast<double>(std::thread::hardware_concurrency()));
  writer.AddContext("timing_min_of_reps", static_cast<double>(reps));
  bool allocation_check_ok = true;

  for (const int64_t n : sizes) {
    PolyDatasetOptions data_options;
    data_options.domain_size = n;
    const SparseFunction q =
        SparseFunction::FromDense(MakePolyDataset(data_options));

    // Allocation sanity check (warm): the SoA engine's buffers are
    // round-persistent, so a construction allocates a constant number of
    // vectors plus O(1) per round — if allocations scaled with the support
    // size the SoA refactor regressed.
    auto warm = ConstructHistogramFast(q, k);
    const long long rounds = warm->num_rounds;
    const long long before = g_allocations.load(std::memory_order_relaxed);
    auto probe = ConstructHistogramFast(q, k);
    const long long allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    const long long alloc_budget = 64 + 8 * rounds;
    if (allocs > alloc_budget) {
      std::fprintf(stderr,
                   "ALLOCATION CHECK FAILED: n=%lld: %lld allocations for "
                   "%lld rounds (budget %lld) — per-round buffers are being "
                   "reallocated\n",
                   static_cast<long long>(n), allocs, rounds, alloc_budget);
      allocation_check_ok = false;
    }

    const double ms = MinOfReps(reps, [&] {
      auto result = ConstructHistogramFast(q, k);
      benchmark::DoNotOptimize(result);
    });
    writer.Add("hist_fast",
               {{"n", static_cast<double>(n)},
                {"threads_effective", 1.0},
                {"ms", ms},
                {"reps", static_cast<double>(reps)},
                {"rounds", static_cast<double>(probe->num_rounds)},
                {"pieces", static_cast<double>(probe->histogram.num_pieces())},
                {"allocs", static_cast<double>(allocs)}});
    std::printf("hist_fast n=%lld: %.2f ms\n", static_cast<long long>(n), ms);
    std::fflush(stdout);
  }

  // One polynomial row: the refit pass is compute-bound, a different
  // profile from the histogram loop's.
  {
    const int64_t n = smoke ? (1 << 13) : (1 << 20);
    const int degree = 2;
    PolyDatasetOptions data_options;
    data_options.domain_size = n;
    const SparseFunction q =
        SparseFunction::FromDense(MakePolyDataset(data_options));
    const double ms = MinOfReps(reps, [&] {
      auto result = ConstructPiecewisePolynomialFast(q, k, degree);
      benchmark::DoNotOptimize(result);
    });
    writer.Add("poly_fast", {{"n", static_cast<double>(n)},
                             {"degree", static_cast<double>(degree)},
                             {"threads_effective", 1.0},
                             {"ms", ms},
                             {"reps", static_cast<double>(reps)}});
    std::printf("poly_fast n=%lld degree=%d: %.2f ms\n",
                static_cast<long long>(n), degree, ms);
    std::fflush(stdout);
  }

  if (!writer.WriteFile(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return allocation_check_ok ? 0 : 1;
}

}  // namespace
}  // namespace fasthist

int main(int argc, char** argv) {
  if (fasthist::bench_util::HasFlag(argc, argv, "--merge-grid")) {
    return fasthist::RunMergeScalingGrid(argc, argv);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
