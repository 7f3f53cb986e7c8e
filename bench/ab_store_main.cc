// Main program of the one-process store A/B harness (ab_store.sh): builds the
// two BM_StoreAddBatch shapes, runs each on a base and a head SummaryStore
// (two revisions' libraries linked into this binary under renamed
// namespaces), and alternates them turn by turn, so the sides share every
// drift of the host.  A turn times 16 flushes of 4096 samples per side, in
// alternating order (base first on even turns); one untimed turn warms both
// sides first.  Prints, per shape, the median and quartiles of each side's
// ns per sample over the turns and how many turns each side won.
//
// Compiled against the head revision's headers, with
// -Dfasthist=<the head's namespace>: the inputs are drawn as
// BM_StoreAddBatch draws them, with the head's generators, and handed to
// both sides as plain samples.
//
//   ab_store [--turns=N]   (default 150)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "ab_store.h"
#include "data/generators.h"
#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#include "util/random.h"

namespace ab_store {
namespace {

constexpr size_t kFlush = 4096;
constexpr int kFlushesPerTurn = 16;

// The served window samples BM_StoreAddBatch draws (ServedWindowSamples).
std::vector<int64_t> ServedSamples(size_t count) {
  fasthist::HistDatasetOptions hist;
  hist.domain_size = kDomain;
  auto p = fasthist::NormalizeToDistribution(fasthist::MakeHistDataset(hist))
               .value();
  auto sampler = fasthist::AliasSampler::Create(p).value();
  fasthist::Rng rng(6);
  return sampler.SampleMany(count, &rng);
}

// BM_StoreAddBatch/<num_keys>: at 64 keys, 16 flushes of random keys after
// a setup of 4 windows per key; at 131072, the 32 flushes of a sweep that
// walks the keys by an odd stride, after a setup of one sample per key, with
// the store rebuilt every 62 sweeps, before any window could fill.
Shape MakeShape(uint64_t num_keys) {
  constexpr uint64_t kStride = 0x9e3779b97f4a7c15ull;  // odd
  const bool wide = num_keys >= kFlush;
  const auto key_of = [](uint64_t slot) { return (uint64_t{1} << 40) | slot; };
  const size_t num_flushes = wide ? static_cast<size_t>(num_keys) / kFlush : 16;
  const size_t num_windows = (num_flushes * kFlush + num_keys) / kWindow + 1;
  const std::vector<int64_t> values = ServedSamples(num_windows * kWindow);
  fasthist::Rng rng(7);
  Shape shape;
  shape.flushes.resize(num_flushes);
  size_t next_value = 0;
  for (size_t f = 0; f < num_flushes; ++f) {
    for (size_t i = 0; i < kFlush; ++i) {
      const uint64_t j = f * kFlush + i;
      const uint64_t slot =
          wide ? (j * kStride) & (num_keys - 1)
               : static_cast<uint64_t>(
                     rng.UniformInt(static_cast<int64_t>(num_keys)));
      shape.flushes[f].push_back({key_of(slot), values[next_value++]});
    }
  }
  const int setup_rounds = wide ? 1 : 4 * static_cast<int>(kWindow);
  for (int round = 0; round < setup_rounds; ++round) {
    for (uint64_t slot = 0; slot < num_keys; ++slot) {
      shape.setup.push_back(
          {key_of(slot), values[next_value++ % values.size()]});
    }
  }
  shape.sweeps_before_rebuild = wide ? 62 : 0;
  return shape;
}

// The q-quantile of `values` (nearest rank); `values` is sorted in place.
double Quantile(std::vector<double>* values, double q) {
  std::sort(values->begin(), values->end());
  const auto rank = static_cast<size_t>(
      q * static_cast<double>(values->size() - 1) + 0.5);
  return (*values)[rank];
}

int Run(int turns) {
  const uint64_t shapes[] = {64, 131072};
  const double samples_per_turn = static_cast<double>(kFlushesPerTurn * kFlush);
  std::printf("%d turns of %d x %zu-sample flushes per side and shape\n",
              turns, kFlushesPerTurn, kFlush);
  std::printf("%-8s %10s %10s %8s %22s %22s %10s\n", "keys", "base_ns",
              "head_ns", "delta", "base_q1..q3", "head_q1..q3", "head_wins");
  for (const uint64_t num_keys : shapes) {
    const Shape shape = MakeShape(num_keys);
    std::unique_ptr<Side> sides[2] = {MakeBaseSide(shape), MakeHeadSide(shape)};
    std::vector<double> ns[2];
    int head_wins = 0;
    for (int turn = -1; turn < turns; ++turn) {
      double turn_ns[2];
      for (int k = 0; k < 2; ++k) {
        const int side = (turn & 1) == 0 ? k : 1 - k;
        turn_ns[side] = sides[side]->TimeFlushes(kFlushesPerTurn);
        if (turn_ns[side] < 0) {
          std::fprintf(stderr, "%s AddBatch failed at %llu keys\n",
                       side == 0 ? "base" : "head",
                       static_cast<unsigned long long>(num_keys));
          return 1;
        }
      }
      if (turn < 0) continue;  // warm-up
      for (int side = 0; side < 2; ++side) {
        ns[side].push_back(turn_ns[side] / samples_per_turn);
      }
      if (turn_ns[1] < turn_ns[0]) ++head_wins;
    }
    double q[2][3];
    for (int side = 0; side < 2; ++side) {
      q[side][0] = Quantile(&ns[side], 0.25);
      q[side][1] = Quantile(&ns[side], 0.5);
      q[side][2] = Quantile(&ns[side], 0.75);
    }
    char base_iqr[32];
    char head_iqr[32];
    std::snprintf(base_iqr, sizeof(base_iqr), "%.2f..%.2f", q[0][0], q[0][2]);
    std::snprintf(head_iqr, sizeof(head_iqr), "%.2f..%.2f", q[1][0], q[1][2]);
    std::printf("%-8llu %10.2f %10.2f %+7.1f%% %22s %22s %6d/%d\n",
                static_cast<unsigned long long>(num_keys), q[0][1], q[1][1],
                100.0 * (q[1][1] / q[0][1] - 1.0), base_iqr, head_iqr,
                head_wins, turns);
  }
  return 0;
}

}  // namespace
}  // namespace ab_store

int main(int argc, char** argv) {
  int turns = 150;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--turns=", 0) == 0) {
      turns = std::atoi(arg.c_str() + 8);
    } else {
      std::fprintf(stderr, "usage: %s [--turns=N]\n", argv[0]);
      return 2;
    }
  }
  if (turns < 1) {
    std::fprintf(stderr, "--turns must be >= 1\n");
    return 2;
  }
  return ab_store::Run(turns);
}
