#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "baseline/exact_dp.h"
#include "core/fast_merging.h"
#include "core/hierarchical.h"
#include "core/internal/merge_engine.h"
#include "core/merging.h"
#include "data/generators.h"
#include "dist/empirical.h"
#include "tests/fasthist_test.h"
#include "util/random.h"

namespace fasthist {
namespace {

std::vector<double> SmallHistData() {
  HistDatasetOptions options;
  options.domain_size = 600;
  options.num_pieces = 5;
  return MakeHistDataset(options);
}

TEST(MergingIsExactOnPiecewiseConstantData) {
  // 4 flat pieces, k=4: opt error is 0 and merging must find it too (flat
  // pairs merge at zero cost; only the 3 true boundaries survive).
  std::vector<double> data;
  for (double level : {5.0, 1.0, 8.0, 3.0}) {
    for (int i = 0; i < 37; ++i) data.push_back(level);
  }
  const SparseFunction q = SparseFunction::FromDense(data);
  auto result = ConstructHistogram(q, 4);
  CHECK_OK(result);
  CHECK_NEAR(result->err_squared, 0.0, 1e-9);
  CHECK_NEAR(result->histogram.L2DistanceSquaredTo(q), 0.0, 1e-9);
}

TEST(MergingErrorWithinConstantOfExactDp) {
  // The paper's guarantee: with ~2k+1 pieces the merging error is within a
  // constant of the best k-piece histogram.  Empirically the ratio is near
  // 1; 2x is a comfortable bound that still fails on real regressions.
  const std::vector<double> data = SmallHistData();
  const SparseFunction q = SparseFunction::FromDense(data);
  for (int64_t k : {3, 5, 10}) {
    auto merging = ConstructHistogram(q, k);
    CHECK_OK(merging);
    auto opt = OptK(data, k);
    CHECK_OK(opt);
    CHECK(merging->histogram.num_pieces() <= 2 * k + 1);
    CHECK(std::sqrt(merging->err_squared) <= 2.0 * (*opt) + 1e-9);
    // err_squared is really the l2 error of the returned histogram.
    CHECK_NEAR(merging->histogram.L2DistanceSquaredTo(q),
               merging->err_squared, 1e-6 * (1.0 + merging->err_squared));
  }
}

TEST(FastMergingMatchesSlowExactly) {
  // ConstructHistogramFast's contract: identical output to
  // ConstructHistogram (selection replaces sorting, same total order).
  const std::vector<double> poly = MakePolyDataset();
  const std::vector<double> hist = SmallHistData();
  // Support s with a zero run around every point starts the rounds at
  // 2s + 1 atoms, half of them zero runs: 511 and 513 atoms, where the
  // round-loop planes cross 4 KiB per plane.
  const auto gapped = [&poly](size_t s) {
    std::vector<double> data(2 * s + 2, 0.0);
    for (size_t i = 0; i < s; ++i) data[2 * i + 1] = poly[i];
    return data;
  };
  const std::vector<double> gapped_511 = gapped(255);
  const std::vector<double> gapped_513 = gapped(256);
  for (const std::vector<double>* data :
       {&poly, &hist, &gapped_511, &gapped_513}) {
    const SparseFunction q = SparseFunction::FromDense(*data);
    for (int64_t k : {2, 8, 10, 25}) {
      for (const MergingOptions& options :
           {MergingOptions{1000.0, 1.0}, MergingOptions{0.5, 1.0},
            MergingOptions{1000.0, 8.0}}) {
        auto slow = ConstructHistogram(q, k, options);
        auto fast = ConstructHistogramFast(q, k, options);
        CHECK_OK(slow);
        CHECK_OK(fast);
        CHECK(slow->num_rounds == fast->num_rounds);
        CHECK(slow->histogram.num_pieces() == fast->histogram.num_pieces());
        CHECK_NEAR(slow->err_squared, fast->err_squared, 0.0);
        for (int64_t p = 0; p < slow->histogram.num_pieces(); ++p) {
          const HistogramPiece& a =
              slow->histogram.pieces()[static_cast<size_t>(p)];
          const HistogramPiece& b =
              fast->histogram.pieces()[static_cast<size_t>(p)];
          CHECK(a.interval.begin == b.interval.begin);
          CHECK(a.interval.end == b.interval.end);
          CHECK_NEAR(a.value, b.value, 0.0);
        }
      }
    }
  }
}

TEST(MergingOnEmpiricalDistributionIsSampleSupportSized) {
  // Sparse input: few samples over a huge domain; the construction must
  // stay well-behaved and mass-preserving.
  auto empirical = EmpiricalDistribution(
      1000000, {10, 10, 500000, 500001, 999999, 12, 10});
  CHECK_OK(empirical);
  auto result = ConstructHistogram(*empirical, 2);
  CHECK_OK(result);
  CHECK(result->histogram.num_pieces() <= 5);
  CHECK_NEAR(result->histogram.TotalMass(), 1.0, 1e-9);
  CHECK(result->histogram.domain_size() == 1000000);
}

TEST(MergingRejectsBadArguments) {
  const SparseFunction q = SparseFunction::FromDense({1.0, 2.0, 3.0});
  CHECK(!ConstructHistogram(q, 0).ok());
  CHECK(!ConstructHistogram(q, 2, MergingOptions{0.0, 1.0}).ok());
  CHECK(!ConstructHistogram(q, 2, MergingOptions{1.0, 0.5}).ok());
  // Domains beyond 2^53 are rejected explicitly: the engine tracks interval
  // lengths as exact integral doubles, which stop being exact there.
  const SparseFunction huge =
      EmpiricalDistribution((int64_t{1} << 53) + 2, {0, 5}).value();
  CHECK(!ConstructHistogram(huge, 2).ok());
  CHECK(!ConstructHistogramFast(huge, 2).ok());
  CHECK(!ConstructPiecewisePolynomial(huge, 2, 1).ok());
  const SparseFunction at_limit =
      EmpiricalDistribution(int64_t{1} << 53, {0, 5}).value();
  CHECK(ConstructHistogramFast(at_limit, 2).ok());
  // MergeHistograms weights must be finite: a NaN weight, an infinite one
  // (inf / inf normalizes to NaN) or a total that overflows would yield
  // NaN or all-zero pieces.
  const Histogram h = ConstructHistogram(q, 2).value().histogram;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  CHECK(!MergeHistograms(h, nan, h, 1.0, 2).ok());
  CHECK(!MergeHistograms(h, 1.0, h, nan, 2).ok());
  CHECK(!MergeHistograms(h, inf, h, 1.0, 2).ok());
  CHECK(!MergeHistograms(h, 1.0, h, inf, 2).ok());
  CHECK(!MergeHistograms(h, 1.5e308, h, 1.5e308, 2).ok());
  CHECK(MergeHistograms(h, 1e300, h, 1.0, 2).ok());
}

TEST(MergingClampsExtremeKeepSchedule) {
  // Regression: the per-round keep count is k * (1 + 1/delta), which
  // overflows int64 for tiny delta (and the stop threshold likewise for
  // huge gamma).  The old static_cast of the out-of-range double was UB;
  // the engine now clamps before casting, so these runs must terminate
  // cleanly with "keep everything" semantics: no pair ever merges, the
  // output is the exact support partition, and the error is zero.
  const std::vector<double> data = SmallHistData();
  const SparseFunction q = SparseFunction::FromDense(data);
  const size_t support = q.support_size();
  for (const MergingOptions& extreme :
       {MergingOptions{1e-18, 1.0}, MergingOptions{1e-300, 1.0},
        MergingOptions{1000.0, 1e30}}) {
    for (auto construct : {&ConstructHistogram, &ConstructHistogramFast}) {
      auto result = construct(q, 10, extreme);
      CHECK_OK(result);
      CHECK(result->num_rounds == 0);
      CHECK_NEAR(result->err_squared, 0.0, 0.0);
      // The untouched support partition reproduces q exactly.
      CHECK(static_cast<size_t>(result->histogram.num_pieces()) >= support);
      CHECK_NEAR(result->histogram.L2DistanceSquaredTo(q), 0.0, 1e-12);
    }
  }
}

TEST(MergeHistogramsApproximatesWeightedMixture) {
  HistDatasetOptions options;
  options.domain_size = 512;
  options.num_pieces = 4;
  auto p1 = NormalizeToDistribution(MakeHistDataset(options)).value();
  options.seed += 1;
  auto p2 = NormalizeToDistribution(MakeHistDataset(options)).value();

  const SparseFunction q1 = SparseFunction::FromDense(p1.pmf());
  const SparseFunction q2 = SparseFunction::FromDense(p2.pmf());
  const int64_t k = 8;
  const Histogram h1 = ConstructHistogram(q1, k)->histogram;
  const Histogram h2 = ConstructHistogram(q2, k)->histogram;

  auto merged = MergeHistograms(h1, 3.0, h2, 1.0, k);
  CHECK_OK(merged);
  CHECK(merged->num_pieces() <= 2 * k + 1);
  CHECK_NEAR(merged->TotalMass(), 1.0, 1e-9);

  // The merged histogram must track the true 3:1 mixture closely.
  std::vector<double> mixture(p1.pmf().size());
  for (size_t i = 0; i < mixture.size(); ++i) {
    mixture[i] = 0.75 * p1.pmf()[i] + 0.25 * p2.pmf()[i];
  }
  const double err_sq =
      merged->L2DistanceSquaredTo(SparseFunction::FromDense(mixture));
  CHECK(std::sqrt(err_sq) < 0.05);

  CHECK(!MergeHistograms(h1, 0.0, h2, 0.0, k).ok());
}

TEST(HierarchicalServesAllScales) {
  const std::vector<double> data = SmallHistData();
  const SparseFunction q = SparseFunction::FromDense(data);
  auto hierarchy = HierarchicalHistogram::Build(q);
  CHECK_OK(hierarchy);
  CHECK(hierarchy->num_levels() == 11);  // 600 pads to 1024 = 2^10

  const auto curve = hierarchy->ParetoCurve();
  CHECK(curve.size() == 11);
  CHECK_NEAR(curve.front().err, 0.0, 0.0);  // singleton level is exact
  for (size_t i = 1; i < curve.size(); ++i) {
    CHECK(curve[i].num_pieces < curve[i - 1].num_pieces);
    CHECK(curve[i].err >= curve[i - 1].err - 1e-9);  // coarser is worse
  }

  for (int64_t k : {2, 5, 20}) {
    auto selection = hierarchy->SelectForK(k);
    CHECK_OK(selection);
    CHECK(selection->num_pieces <= 8 * k);
    auto opt = OptK(data, k);
    CHECK_OK(opt);
    // Theorem 2.2 regime: a small constant of opt_k at <= 8k pieces.
    CHECK(selection->error_estimate <= 2.0 * (*opt) + 1e-9);
    CHECK_NEAR(
        std::sqrt(selection->histogram.L2DistanceSquaredTo(q)),
        selection->error_estimate,
        1e-6 * (1.0 + selection->error_estimate));
  }
  CHECK(!hierarchy->SelectForK(0).ok());
}

TEST(MaxSurvivingPiecesBoundsEveryEngineOutput) {
  // internal::MaxSurvivingPieces is the pre-sizing contract for
  // fixed-capacity consumers of engine outputs (the keyed store's ladder
  // level planes): every construction and merge must fit inside
  // min(bound, domain_size) — across the knob sweeps that move the round
  // schedule's clamps around.
  Rng rng(0xb0fd'2026);
  const MergingOptions sweeps[] = {
      {1000.0, 1.0}, {0.5, 1.0}, {0.1, 1.0}, {2.0, 4.0}, {1e-9, 1.0}};
  for (const int64_t domain : {int64_t{64}, int64_t{512}, int64_t{4096}}) {
    std::vector<int64_t> samples;
    for (int i = 0; i < 3000; ++i) samples.push_back(rng.UniformInt(domain));
    auto q = EmpiricalDistribution(domain, samples);
    CHECK_OK(q);
    for (const int64_t k : {int64_t{1}, int64_t{8}, int64_t{64}}) {
      for (const MergingOptions& options : sweeps) {
        const int64_t bound =
            std::min(internal::MaxSurvivingPieces(k, options), domain);
        CHECK(bound >= 1);
        auto constructed = ConstructHistogramFast(*q, k, options);
        CHECK_OK(constructed);
        CHECK(constructed->histogram.num_pieces() <= bound);
        auto merged = MergeHistograms(constructed->histogram, 2.0,
                                      constructed->histogram, 1.0, k, options);
        CHECK_OK(merged);
        CHECK(merged->num_pieces() <= bound);
      }
    }
  }
  // The delta clamp: a tiny delta blows the kept-pairs count up to the
  // engine's 2^61 ceiling, and the bound must follow the same clamp rather
  // than overflow.
  CHECK(internal::MaxSurvivingPieces(8, {1e-18, 1.0}) > 0);
}

}  // namespace
}  // namespace fasthist
