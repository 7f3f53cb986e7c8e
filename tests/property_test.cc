// Seeded randomized property harness.  Every case sweeps many seeds and
// knob combinations and asserts an exact or theorem-backed relationship
// between two independent implementations — the contracts the library's
// layers are built on:
//   * selection-based fast paths are bit-identical to the sort-based
//     reference paths (histograms and piecewise polynomials),
//   * merging error is within sqrt(1 + delta) of the exact DP optimum
//     (Theorem 3.3, here verified for polynomials at degrees 0-3),
//   * the degree-0 polynomial path and the histogram path agree,
//   * MergeHistograms respects weights and is associative up to the
//     re-merging tolerance (the precondition for a sharded merge tree).
// All randomness flows through util/random.h's Rng, so every failure
// reproduces from the printed seed constants below.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "baseline/exact_poly_dp.h"
#include "core/fast_merging.h"
#include "core/merging.h"
#include "core/streaming.h"
#include "dist/empirical.h"
#include "poly/poly_merging.h"
#include "tests/fasthist_test.h"
#include "tests/histogram_testutil.h"
#include "util/random.h"

namespace fasthist {
namespace {

// A random piecewise-quadratic signal with jumps and additive Gaussian
// noise: rough enough to exercise histogram breakpoints, smooth enough
// that higher-degree fits differ meaningfully from flat ones.
std::vector<double> RandomSignal(Rng& rng, int64_t n, int num_segments,
                                 double noise) {
  std::vector<int64_t> cuts = {0, n};
  for (int i = 1; i < num_segments; ++i) {
    cuts.push_back(1 + rng.UniformInt(n - 1));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  std::vector<double> data(static_cast<size_t>(n), 0.0);
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const int64_t begin = cuts[c];
    const int64_t end = cuts[c + 1];
    const double c0 = 10.0 * rng.Gaussian();
    const double c1 = 5.0 * rng.Gaussian();
    const double c2 = 3.0 * rng.Gaussian();
    for (int64_t x = begin; x < end; ++x) {
      const double t = static_cast<double>(x - begin) /
                       static_cast<double>(end - begin);
      data[static_cast<size_t>(x)] =
          c0 + c1 * t + c2 * t * t + noise * rng.Gaussian();
    }
  }
  return data;
}

// A random probability distribution over [n] (for the mergeability laws).
std::vector<double> RandomDistribution(Rng& rng, int64_t n) {
  std::vector<double> pmf = RandomSignal(rng, n, 5, 0.3);
  double total = 0.0;
  for (double& v : pmf) {
    v = std::abs(v) + 1e-3;
    total += v;
  }
  for (double& v : pmf) v /= total;
  return pmf;
}

void CheckHistogramsIdentical(const MergingResult& slow,
                              const MergingResult& fast) {
  CHECK(slow.num_rounds == fast.num_rounds);
  CHECK_NEAR(slow.err_squared, fast.err_squared, 0.0);
  CHECK(slow.histogram.num_pieces() == fast.histogram.num_pieces());
  for (int64_t p = 0; p < slow.histogram.num_pieces(); ++p) {
    const HistogramPiece& a = slow.histogram.pieces()[static_cast<size_t>(p)];
    const HistogramPiece& b = fast.histogram.pieces()[static_cast<size_t>(p)];
    CHECK(a.interval.begin == b.interval.begin);
    CHECK(a.interval.end == b.interval.end);
    CHECK_NEAR(a.value, b.value, 0.0);
  }
}

void CheckPolysIdentical(const PiecewisePolyResult& slow,
                         const PiecewisePolyResult& fast) {
  CHECK(slow.num_rounds == fast.num_rounds);
  CHECK_NEAR(slow.err_squared, fast.err_squared, 0.0);
  CHECK(slow.function.num_pieces() == fast.function.num_pieces());
  for (int64_t p = 0; p < slow.function.num_pieces(); ++p) {
    const PolyFit& a = slow.function.pieces()[static_cast<size_t>(p)];
    const PolyFit& b = fast.function.pieces()[static_cast<size_t>(p)];
    CHECK(a.interval.begin == b.interval.begin);
    CHECK(a.interval.end == b.interval.end);
    CHECK(a.coefficients.size() == b.coefficients.size());
    for (size_t j = 0; j < a.coefficients.size(); ++j) {
      CHECK_NEAR(a.coefficients[j], b.coefficients[j], 0.0);
    }
  }
}

TEST(HistogramFastVsSlowRandomized) {
  // ConstructHistogramFast's contract over random inputs: identical output
  // to ConstructHistogram on every seed and knob combination.  Every fifth
  // seed uses a sparse empirical input (few samples over a huge domain),
  // the regime the sample-linear path exists for.
  const MergingOptions sweeps[] = {
      {1000.0, 1.0}, {0.5, 1.0}, {3.0, 2.0}, {1000.0, 8.0}};
  for (uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(0x8157'0000 + seed);
    SparseFunction q;
    if (seed % 5 == 4) {
      const int64_t domain = 1'000'000;
      std::vector<int64_t> samples;
      for (int i = 0; i < 60; ++i) samples.push_back(rng.UniformInt(domain));
      q = EmpiricalDistribution(domain, samples).value();
    } else {
      const int64_t n = 64 + rng.UniformInt(400);
      q = SparseFunction::FromDense(RandomSignal(rng, n, 6, 0.5));
    }
    for (int64_t k : {3, 17}) {
      for (const MergingOptions& options : sweeps) {
        auto slow = ConstructHistogram(q, k, options);
        auto fast = ConstructHistogramFast(q, k, options);
        CHECK_OK(slow);
        CHECK_OK(fast);
        CheckHistogramsIdentical(*slow, *fast);
      }
    }
  }
  // Runs of tens of thousands of atoms, far above any served run: dense
  // 30,000-point signals, and every third seed 20,000 samples over a
  // 5 * 10^7 domain.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(0x9a11'0000 + seed);
    SparseFunction q;
    if (seed % 3 == 2) {
      const int64_t domain = 50'000'000;
      std::vector<int64_t> samples;
      for (int i = 0; i < 20'000; ++i) samples.push_back(rng.UniformInt(domain));
      q = EmpiricalDistribution(domain, samples).value();
    } else {
      q = SparseFunction::FromDense(RandomSignal(rng, 30'000, 8, 0.5));
    }
    for (const MergingOptions& options :
         {MergingOptions{1000.0, 1.0}, MergingOptions{0.5, 2.0}}) {
      const auto slow = ConstructHistogram(q, 13, options);
      const auto fast = ConstructHistogramFast(q, 13, options);
      CHECK_OK(slow);
      CHECK_OK(fast);
      CheckHistogramsIdentical(*slow, *fast);
    }
  }
}

TEST(PolyFastVsSlowRandomized) {
  // The polynomial twin of the histogram contract: both speeds run the
  // same shared engine rounds, so pieces, coefficients, err_squared and
  // num_rounds must be bit-identical at every degree, on signals of 64 to
  // 263 points and of 4,096.
  const MergingOptions sweeps[] = {{1000.0, 1.0}, {0.7, 1.0}, {2.0, 4.0}};
  for (int degree = 0; degree <= 3; ++degree) {
    for (uint64_t seed = 0; seed < 20; ++seed) {
      Rng rng(0x7011'0000 + 1000 * static_cast<uint64_t>(degree) + seed);
      const int64_t n = 64 + rng.UniformInt(200);
      const SparseFunction q =
          SparseFunction::FromDense(RandomSignal(rng, n, 5, 0.4));
      for (int64_t k : {3, 8}) {
        for (const MergingOptions& options : sweeps) {
          auto slow = ConstructPiecewisePolynomial(q, k, degree, options);
          auto fast = ConstructPiecewisePolynomialFast(q, k, degree, options);
          CHECK_OK(slow);
          CHECK_OK(fast);
          CheckPolysIdentical(*slow, *fast);
        }
      }
    }
    for (uint64_t seed = 0; seed < 3; ++seed) {
      Rng rng(0x9a77'0000 + 1000 * static_cast<uint64_t>(degree) + seed);
      const SparseFunction q =
          SparseFunction::FromDense(RandomSignal(rng, 4096, 6, 0.4));
      const auto slow = ConstructPiecewisePolynomial(q, 7, degree);
      const auto fast = ConstructPiecewisePolynomialFast(q, 7, degree);
      CHECK_OK(slow);
      CHECK_OK(fast);
      CheckPolysIdentical(*slow, *fast);
    }
  }
}

TEST(PolyMergingWithinSqrtOnePlusDeltaOfExactDp) {
  // Theorem 3.3 at degrees 0-3: the merging construction's error is within
  // sqrt(1 + delta) of the exact k-piece degree-d optimum — checked
  // against the O(n^3) DP gold standard, so the domain stays small.
  for (int degree = 0; degree <= 3; ++degree) {
    for (uint64_t seed = 0; seed < 10; ++seed) {
      Rng rng(0xd901'0000 + 1000 * static_cast<uint64_t>(degree) + seed);
      const std::vector<double> data = RandomSignal(rng, 96, 4, 0.5);
      const SparseFunction q = SparseFunction::FromDense(data);
      for (int64_t k : {3, 5}) {
        auto opt = PolyOptK(data, k, degree);
        CHECK_OK(opt);
        for (double delta : {0.5, 3.0}) {
          auto merged = ConstructPiecewisePolynomial(
              q, k, degree, MergingOptions{delta, 1.0});
          CHECK_OK(merged);
          CHECK(std::sqrt(merged->err_squared) <=
                std::sqrt(1.0 + delta) * (*opt) + 1e-7);
        }
      }
    }
  }
}

TEST(PolyDegreeZeroMatchesHistogramMerging) {
  // Degree-0 polynomial merging is histogram merging: same initial
  // partition, same round schedule, and the degree-0 projection is the
  // interval mean.  The two paths compute piece errors through different
  // formulas (Gram coefficients vs sum/sumsq moments), so values and
  // errors agree to rounding, and with continuous random data the
  // surviving partitions coincide exactly.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(0xd060'0000 + seed);
    const int64_t n = 64 + rng.UniformInt(300);
    const SparseFunction q =
        SparseFunction::FromDense(RandomSignal(rng, n, 6, 0.5));
    for (int64_t k : {4, 9}) {
      for (const MergingOptions& options :
           {MergingOptions{1000.0, 1.0}, MergingOptions{0.7, 1.0}}) {
        auto hist = ConstructHistogram(q, k, options);
        auto poly = ConstructPiecewisePolynomial(q, k, 0, options);
        CHECK_OK(hist);
        CHECK_OK(poly);
        CHECK(hist->num_rounds == poly->num_rounds);
        CHECK_NEAR(hist->err_squared, poly->err_squared,
                   1e-9 * (1.0 + hist->err_squared));
        CHECK(hist->histogram.num_pieces() == poly->function.num_pieces());
        for (int64_t p = 0; p < hist->histogram.num_pieces(); ++p) {
          const HistogramPiece& h =
              hist->histogram.pieces()[static_cast<size_t>(p)];
          const PolyFit& f = poly->function.pieces()[static_cast<size_t>(p)];
          CHECK(h.interval.begin == f.interval.begin);
          CHECK(h.interval.end == f.interval.end);
          CHECK_NEAR(h.value, f.EvaluateAt(f.interval.begin),
                     1e-9 * (1.0 + std::abs(h.value)));
        }
      }
    }
  }
}

TEST(ThresholdSelectionTieBreakingMatchesSort) {
  // The value-based threshold select must resolve duplicated candidate
  // errors exactly like the sort path's strict (error desc, index asc)
  // order.  Constant inputs make every candidate error identical (all
  // zero) — the worst case, where the whole round is one tie class — and
  // two-level inputs make the error plane take a handful of values per
  // round so the threshold always sits inside a tie run.  Checked
  // bit-for-bit for histograms and poly degrees 0-3.  The retired
  // index-indirect nth_element select was proven identical to kSort by this
  // same comparison, so matching kSort also proves parity with it.  With
  // the default delta, keep = k: k = 1
  // and 8 are the top-8 network's narrowest and full widths, k = 9 is the
  // heap tier's first keep, and k = 2100 (keep 2102) puts the nth_element
  // tier on planes full of ties.  For histograms the kSort side is the
  // histogram loop's sorted-copy threshold, so this also checks that the
  // sort and select thresholds feed the shared mark the same value.
  std::vector<std::vector<double>> inputs;
  inputs.push_back(std::vector<double>(30'000, 1.0));  // constant
  {
    std::vector<double> two_level(30'000);
    for (size_t i = 0; i < two_level.size(); ++i) {
      two_level[i] = (i / 3) % 2 == 0 ? 1.0 : 2.0;  // short alternating runs
    }
    inputs.push_back(std::move(two_level));
  }
  {
    Rng rng(0x71e5'0001);
    std::vector<double> blocks(30'000);
    for (size_t i = 0; i < blocks.size(); ++i) {
      blocks[i] = rng.UniformInt(2) == 0 ? -0.5 : 4.0;  // random two-level
    }
    inputs.push_back(std::move(blocks));
  }
  // Equal values on s support points, each ringed by zero runs: the rounds
  // start at 2s + 1 atoms, 511 and 513, with every first-round error tied.
  for (const size_t s : {size_t{255}, size_t{256}}) {
    std::vector<double> gapped(30'000, 0.0);
    for (size_t i = 0; i < s; ++i) gapped[2 * i + 1] = 1.0;
    inputs.push_back(std::move(gapped));
  }
  for (const std::vector<double>& data : inputs) {
    const SparseFunction q = SparseFunction::FromDense(data);
    for (int64_t k : {1, 7, 8, 9, 32, 2100}) {
      const auto slow = ConstructHistogram(q, k);
      const auto fast = ConstructHistogramFast(q, k);
      CHECK_OK(slow);
      CHECK_OK(fast);
      CheckHistogramsIdentical(*slow, *fast);
    }
    // The polynomial engine shares the selection code but ranks refit
    // residuals; constant and two-level data keep those tied too.
    const SparseFunction q_small = SparseFunction::FromDense(
        std::vector<double>(data.begin(), data.begin() + 2'000));
    for (int degree = 0; degree <= 3; ++degree) {
      const auto slow = ConstructPiecewisePolynomial(q_small, 5, degree);
      const auto fast = ConstructPiecewisePolynomialFast(q_small, 5, degree);
      CHECK_OK(slow);
      CHECK_OK(fast);
      CheckPolysIdentical(*slow, *fast);
    }
  }
}

TEST(MergeHistogramsIsWeightRespecting) {
  const int64_t n = 256;
  const int64_t k = 8;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(0x3e16'0000 + seed);
    const std::vector<double> p1 = RandomDistribution(rng, n);
    const std::vector<double> p2 = RandomDistribution(rng, n);
    const Histogram h1 =
        ConstructHistogram(SparseFunction::FromDense(p1), k)->histogram;
    const Histogram h2 =
        ConstructHistogram(SparseFunction::FromDense(p2), k)->histogram;

    auto merged = MergeHistograms(h1, 3.0, h2, 1.0, k);
    CHECK_OK(merged);
    // Mass is the weighted mixture's mass (here 1: both inputs are
    // distributions), and the merged histogram tracks the 3:1 mixture.
    CHECK_NEAR(merged->TotalMass(), 1.0, 1e-9);
    std::vector<double> mixture(static_cast<size_t>(n));
    for (size_t i = 0; i < mixture.size(); ++i) {
      mixture[i] = 0.75 * p1[i] + 0.25 * p2[i];
    }
    const double err_sq =
        merged->L2DistanceSquaredTo(SparseFunction::FromDense(mixture));
    CHECK(std::sqrt(err_sq) < 0.05);

    // Only the weight ratio matters: (3, 1) and (0.75, 0.25) normalize to
    // the same mixture, so the outputs are identical.
    auto rescaled = MergeHistograms(h1, 0.75, h2, 0.25, k);
    CHECK_OK(rescaled);
    CHECK(merged->num_pieces() == rescaled->num_pieces());
    for (int64_t p = 0; p < merged->num_pieces(); ++p) {
      const HistogramPiece& a = merged->pieces()[static_cast<size_t>(p)];
      const HistogramPiece& b = rescaled->pieces()[static_cast<size_t>(p)];
      CHECK(a.interval.begin == b.interval.begin);
      CHECK(a.interval.end == b.interval.end);
      CHECK_NEAR(a.value, b.value, 0.0);
    }
  }
}

TEST(MergeHistogramsIsAssociativeUpToTolerance) {
  // (A + B) + C vs A + (B + C) with cumulative weights: both groupings
  // must track the true weighted mixture, and therefore each other, within
  // the re-merging tolerance.  This is the property a sharded merge tree
  // relies on: the reduction order must not matter.
  const int64_t n = 256;
  const int64_t k = 8;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(0xa550'0000 + seed);
    const std::vector<double> pa = RandomDistribution(rng, n);
    const std::vector<double> pb = RandomDistribution(rng, n);
    const std::vector<double> pc = RandomDistribution(rng, n);
    const Histogram ha =
        ConstructHistogram(SparseFunction::FromDense(pa), k)->histogram;
    const Histogram hb =
        ConstructHistogram(SparseFunction::FromDense(pb), k)->histogram;
    const Histogram hc =
        ConstructHistogram(SparseFunction::FromDense(pc), k)->histogram;

    // Weights 2 : 1 : 1.
    const Histogram left =
        MergeHistograms(MergeHistograms(ha, 2.0, hb, 1.0, k).value(), 3.0,
                        hc, 1.0, k)
            .value();
    const Histogram right =
        MergeHistograms(ha, 2.0,
                        MergeHistograms(hb, 1.0, hc, 1.0, k).value(), 2.0, k)
            .value();

    std::vector<double> mixture(static_cast<size_t>(n));
    for (size_t i = 0; i < mixture.size(); ++i) {
      mixture[i] = 0.5 * pa[i] + 0.25 * pb[i] + 0.25 * pc[i];
    }
    const SparseFunction qmix = SparseFunction::FromDense(mixture);
    const double err_left = std::sqrt(left.L2DistanceSquaredTo(qmix));
    const double err_right = std::sqrt(right.L2DistanceSquaredTo(qmix));
    CHECK(err_left < 0.05);
    CHECK(err_right < 0.05);

    double gap_sq = 0.0;
    for (int64_t x = 0; x < n; ++x) {
      const double d = left.ValueAt(x) - right.ValueAt(x);
      gap_sq += d * d;
    }
    CHECK(std::sqrt(gap_sq) < 0.1);
  }
}

TEST(StripedReconciliationWithinSqrtOnePlusDeltaBound) {
  // Reconciling independently built summaries is one extra merge level:
  // degree-d summaries h_i of sub-streams (with construction errors e_i
  // against their own streams q_i) are folded by one more construction
  // over their weighted mixture, as one merge-tree node folds its
  // children.  Triangle inequality + Theorem 3.3 turn that into a provable
  // bound on the reconciled error against the POOLED stream q = sum w_i q_i:
  //
  //   err(reconciled, q) <= err(reconciled, sum w_i h_i) + sum w_i e_i
  //                      <= sqrt(1+delta) * opt_k(sum w_i h_i) + sum w_i e_i
  //                      <= sqrt(1+delta) * (opt_k(q) + sum w_i e_i)
  //                         + sum w_i e_i
  //
  // — i.e. one extra sqrt(1+delta) factor and one extra weighted-error
  // term, the "one merge level" that error_levels accounting charges per
  // fold.  Verified at degrees 0-3 against the exact DP optimum.
  const int64_t n = 96;
  for (int degree = 0; degree <= 3; ++degree) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      Rng rng(0x57a1'0000 + 1000 * static_cast<uint64_t>(degree) + seed);
      for (const int stripes : {2, 3}) {
        // Per-stripe streams with uneven weights (sample-count ratios).
        std::vector<std::vector<double>> streams;
        std::vector<double> weights;
        double total_weight = 0.0;
        for (int i = 0; i < stripes; ++i) {
          streams.push_back(RandomDistribution(rng, n));
          weights.push_back(1.0 + static_cast<double>(rng.UniformInt(4)));
          total_weight += weights.back();
        }
        for (double& w : weights) w /= total_weight;
        std::vector<double> pooled(static_cast<size_t>(n), 0.0);
        for (int i = 0; i < stripes; ++i) {
          for (size_t x = 0; x < pooled.size(); ++x) {
            pooled[x] += weights[static_cast<size_t>(i)] *
                         streams[static_cast<size_t>(i)][x];
          }
        }
        for (const int64_t k : {int64_t{3}, int64_t{5}}) {
          auto opt = PolyOptK(pooled, k, degree);
          CHECK_OK(opt);
          for (const double delta : {0.5, 3.0}) {
            const MergingOptions options{delta, 1.0};
            // Per-stripe summaries and their weighted mixture.
            std::vector<double> mixture(static_cast<size_t>(n), 0.0);
            double weighted_err = 0.0;
            for (int i = 0; i < stripes; ++i) {
              auto summary = ConstructPiecewisePolynomial(
                  SparseFunction::FromDense(streams[static_cast<size_t>(i)]),
                  k, degree, options);
              CHECK_OK(summary);
              weighted_err += weights[static_cast<size_t>(i)] *
                              std::sqrt(summary->err_squared);
              const std::vector<double> dense = summary->function.ToDense();
              for (size_t x = 0; x < mixture.size(); ++x) {
                mixture[x] += weights[static_cast<size_t>(i)] * dense[x];
              }
            }
            // The reconcile: one construction over the summary mixture.
            auto reconciled = ConstructPiecewisePolynomial(
                SparseFunction::FromDense(mixture), k, degree, options);
            CHECK_OK(reconciled);
            const std::vector<double> dense = reconciled->function.ToDense();
            double err_sq = 0.0;
            for (size_t x = 0; x < dense.size(); ++x) {
              const double d = dense[x] - pooled[x];
              err_sq += d * d;
            }
            CHECK(std::sqrt(err_sq) <=
                  std::sqrt(1.0 + delta) * (*opt + weighted_err) +
                      weighted_err + 1e-7);
          }
        }
      }
    }
  }
}

TEST(StreamingLadderDriftBoundOverThousandsOfFlushes) {
  // The dyadic condensation ladder's drift guarantee at stream scale: over
  // F = 4096 flushes, a mirror ladder tracks every lossy step with measured
  // errors and triangle-inequality accounting, and the commit-side drift
  // budget closes at O(log F) — not the O(F) a linear fold chain pays.
  //
  // The accounting: the builder's summary differs from the pooled empirical
  // by at most
  //     B  =  sum_leaves w_l * e_l  +  sum_merges w_m * c_m,
  // where e_l is the measured leaf condense error, c_m the measured carry
  // merge error against its input mixture, and the w are sample-count
  // fractions.  In the ladder every sample ascends at most one merge per
  // level, so sum_m w_m == ladder depth (exactly log2 F for F a power of
  // two) and the merge budget is depth * max_m c_m.  In the pre-ladder
  // linear chain sum_m w_m was ~F/2.
  const int64_t domain = 256;
  const int64_t k = 8;
  const size_t b = 32;
  const int64_t flushes = 4096;  // 2^12: the ladder ends as one level-12 slot
  const int64_t n = flushes * static_cast<int64_t>(b);
  const MergingOptions options{0.5, 1.0};

  auto builder = StreamingHistogramBuilder::Create(domain, k, b, options);
  CHECK_OK(builder);

  const auto dense = [&](const Histogram& h) {
    std::vector<double> d(static_cast<size_t>(domain));
    for (int64_t x = 0; x < domain; ++x) {
      d[static_cast<size_t>(x)] = h.ValueAt(x);
    }
    return d;
  };
  const auto l2 = [](const std::vector<double>& a,
                     const std::vector<double>& c) {
    double err_sq = 0.0;
    for (size_t x = 0; x < a.size(); ++x) {
      const double diff = a[x] - c[x];
      err_sq += diff * diff;
    }
    return std::sqrt(err_sq);
  };

  struct MirrorSlot {
    Histogram h;
    int64_t count = 0;
    double bound = 0.0;  // accumulated error bound vs this slot's samples
  };
  std::vector<MirrorSlot> ladder;
  std::vector<double> pooled(static_cast<size_t>(domain), 0.0);
  std::vector<int64_t> buffer;
  Rng rng(0x1add'e700);
  double leaf_budget = 0.0;     // sum_l w_l * e_l
  double merge_weight = 0.0;    // sum_m w_m
  double max_merge_err = 0.0;   // max_m c_m

  for (int64_t f = 0; f < flushes; ++f) {
    // One exact buffer per iteration, drawn from a skewed two-step
    // distribution so the summaries are non-trivial.
    buffer.clear();
    std::vector<double> pmf(static_cast<size_t>(domain), 0.0);
    for (size_t i = 0; i < b; ++i) {
      const int64_t sample = rng.UniformInt(2) == 0
                                 ? rng.UniformInt(domain / 4)
                                 : rng.UniformInt(domain);
      buffer.push_back(sample);
      pmf[static_cast<size_t>(sample)] += 1.0 / static_cast<double>(b);
      pooled[static_cast<size_t>(sample)] += 1.0 / static_cast<double>(n);
    }
    CHECK(builder->AddMany(buffer).ok());

    // Mirror the flush: condense, then carry upward like binary addition,
    // measuring each lossy step against its own input.
    auto leaf = StreamingHistogramBuilder::FoldBufferIntoSummary(
        nullptr, 0, buffer, domain, k, options);
    CHECK_OK(leaf);
    MirrorSlot carry{std::move(leaf).value(), static_cast<int64_t>(b), 0.0};
    carry.bound = l2(dense(carry.h), pmf);
    leaf_budget +=
        static_cast<double>(b) / static_cast<double>(n) * carry.bound;
    size_t level = 0;
    while (level < ladder.size() && ladder[level].count > 0) {
      MirrorSlot& slot = ladder[level];
      auto merged = MergeHistograms(
          slot.h, static_cast<double>(slot.count), carry.h,
          static_cast<double>(carry.count), k, options);
      CHECK_OK(merged);
      const int64_t total = slot.count + carry.count;
      const double w1 =
          static_cast<double>(slot.count) / static_cast<double>(total);
      const double w2 = 1.0 - w1;
      const std::vector<double> d1 = dense(slot.h);
      const std::vector<double> d2 = dense(carry.h);
      std::vector<double> mixture(static_cast<size_t>(domain));
      for (size_t x = 0; x < mixture.size(); ++x) {
        mixture[x] = w1 * d1[x] + w2 * d2[x];
      }
      const double c = l2(dense(*merged), mixture);
      max_merge_err = std::max(max_merge_err, c);
      merge_weight += static_cast<double>(total) / static_cast<double>(n);
      const double bound = c + w1 * slot.bound + w2 * carry.bound;
      carry = MirrorSlot{std::move(merged).value(), total, bound};
      slot = MirrorSlot{};
      ++level;
    }
    if (level == ladder.size()) {
      ladder.push_back(std::move(carry));
    } else {
      ladder[level] = std::move(carry);
    }

    // Level accounting stays logarithmic the whole way: after f flushes
    // (buffer empty at these boundaries) at most ceil(log2 f) + 2 levels.
    if (((f + 1) & 255) == 0) {
      int cap = 2;
      while ((int64_t{1} << (cap - 2)) < f + 1) ++cap;
      CHECK(builder->error_levels() <= cap);
    }
  }

  // F = 2^12 exactly: one live slot at level 12, empty buffer.
  CHECK(builder->buffered() == 0);
  CHECK(builder->ladder_slots() == 1);
  CHECK(builder->ladder_depth() == 13);
  CHECK(builder->error_levels() == 13);
  CHECK(builder->error_levels() <= 14);  // ceil(log2(n/b)) + 2
  CHECK(ladder.size() == 13);
  CHECK(ladder.back().count == n);

  // The mirror is the builder, bit for bit, and Snapshot on a copy returns
  // the same cut Peek reports without disturbing the original.
  auto peek = builder->Peek();
  CHECK_OK(peek);
  CHECK(testing::BitIdentical(*peek, ladder.back().h));
  auto copy = *builder;
  auto snapshot = copy.Snapshot();
  CHECK_OK(snapshot);
  CHECK(testing::BitIdentical(*snapshot, *peek));

  // The drift accounting closes: the true error against the pooled
  // empirical distribution of all 131072 samples is under the accumulated
  // bound, the commit-side merge weight is exactly the ladder depth's
  // log2 F merges-per-sample, and the total bound decomposes into the leaf
  // budget plus at most depth * worst-merge drift.
  const double true_err = l2(dense(*peek), pooled);
  const double bound = ladder.back().bound;
  CHECK(true_err <= bound + 1e-9);
  CHECK_NEAR(merge_weight, 12.0, 1e-6);
  CHECK(bound <= leaf_budget + 12.0 * max_merge_err + 1e-9);
  // Loose absolute sanity: the served summary really tracks the stream.
  CHECK(true_err < 0.05);
}

TEST(DyadicCarryMergesWithinSqrtOnePlusDeltaDegrees0to3) {
  // Every carry merge in the condensation ladder is one Theorem 3.3
  // construction over the weighted mixture of its two inputs, so each tree
  // node obeys the same bound StripedReconciliation verifies for one level:
  //
  //   err(node, pooled) <= sqrt(1+delta) * (opt_k(pooled) + W) + W,
  //   W = sum_children w_i * err(child, pooled_child)
  //
  // — applied recursively up a 16-leaf dyadic tree at degrees 0-3, with
  // opt_k from the exact DP at every internal node.  This is the per-merge
  // form of the ladder's Lemma-4.2 accounting: each level multiplies by one
  // sqrt(1+delta) and adds one weighted child-error term, nothing more.
  const int64_t n = 64;
  const int kLeaves = 16;
  const int kLevels = 4;  // log2(kLeaves)
  const int64_t k = 3;
  for (int degree = 0; degree <= 3; ++degree) {
    Rng rng(0xdca2'0000 + 1000 * static_cast<uint64_t>(degree));
    // Equal-weight leaf streams and the pooled stream at every tree node.
    std::vector<std::vector<std::vector<double>>> pooled(kLevels + 1);
    for (int i = 0; i < kLeaves; ++i) {
      pooled[0].push_back(RandomDistribution(rng, n));
    }
    for (int level = 1; level <= kLevels; ++level) {
      const auto& below = pooled[level - 1];
      for (size_t i = 0; i + 1 < below.size(); i += 2) {
        std::vector<double> mix(static_cast<size_t>(n));
        for (size_t x = 0; x < mix.size(); ++x) {
          mix[x] = 0.5 * (below[i][x] + below[i + 1][x]);
        }
        pooled[level].push_back(std::move(mix));
      }
    }
    // The exact k-piece optimum at every node (independent of delta).
    std::vector<std::vector<double>> opt(kLevels + 1);
    for (int level = 0; level <= kLevels; ++level) {
      for (const auto& stream : pooled[level]) {
        auto node_opt = PolyOptK(stream, k, degree);
        CHECK_OK(node_opt);
        opt[level].push_back(*node_opt);
      }
    }
    for (const double delta : {0.5, 3.0}) {
      const MergingOptions options{delta, 1.0};
      const double s = std::sqrt(1.0 + delta);
      std::vector<std::vector<double>> cur_dense;
      std::vector<double> cur_err;
      for (int i = 0; i < kLeaves; ++i) {
        auto fit = ConstructPiecewisePolynomial(
            SparseFunction::FromDense(pooled[0][static_cast<size_t>(i)]), k,
            degree, options);
        CHECK_OK(fit);
        const double err = std::sqrt(fit->err_squared);
        CHECK(err <= s * opt[0][static_cast<size_t>(i)] + 1e-7);
        cur_dense.push_back(fit->function.ToDense());
        cur_err.push_back(err);
      }
      for (int level = 1; level <= kLevels; ++level) {
        std::vector<std::vector<double>> next_dense;
        std::vector<double> next_err;
        for (size_t i = 0; i + 1 < cur_dense.size(); i += 2) {
          std::vector<double> mixture(static_cast<size_t>(n));
          for (size_t x = 0; x < mixture.size(); ++x) {
            mixture[x] = 0.5 * (cur_dense[i][x] + cur_dense[i + 1][x]);
          }
          auto merged = ConstructPiecewisePolynomial(
              SparseFunction::FromDense(mixture), k, degree, options);
          CHECK_OK(merged);
          const std::vector<double> out = merged->function.ToDense();
          double err_sq = 0.0;
          const auto& node_pool = pooled[level][i / 2];
          for (size_t x = 0; x < out.size(); ++x) {
            const double diff = out[x] - node_pool[x];
            err_sq += diff * diff;
          }
          const double err = std::sqrt(err_sq);
          const double w = 0.5 * cur_err[i] + 0.5 * cur_err[i + 1];
          CHECK(err <= s * (opt[level][i / 2] + w) + w + 1e-7);
          next_dense.push_back(out);
          next_err.push_back(err);
        }
        cur_dense = std::move(next_dense);
        cur_err = std::move(next_err);
      }
    }
  }
}

}  // namespace
}  // namespace fasthist
