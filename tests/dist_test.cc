#include <algorithm>
#include <cmath>
#include <vector>

#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#include "dist/histogram.h"
#include "dist/l2.h"
#include "dist/sparse_function.h"
#include "tests/fasthist_test.h"
#include "util/random.h"

namespace fasthist {
namespace {

TEST(SparseFunctionRoundTrips) {
  const std::vector<double> dense{0.0, 1.5, 0.0, 0.0, -2.0, 3.0};
  const SparseFunction q = SparseFunction::FromDense(dense);
  CHECK(q.domain_size() == 6);
  CHECK(q.support_size() == 3);
  CHECK(q.ToDense() == dense);
  CHECK_NEAR(q.ValueAt(1), 1.5, 0.0);
  CHECK_NEAR(q.ValueAt(2), 0.0, 0.0);
  CHECK_NEAR(q.TotalMass(), 2.5, 1e-12);
  CHECK_NEAR(q.SumSquares(), 1.5 * 1.5 + 4.0 + 9.0, 1e-12);
  CHECK(!SparseFunction::FromPairs(3, {{0, 1.0}, {0, 2.0}}).ok());
  CHECK(!SparseFunction::FromPairs(3, {{5, 1.0}}).ok());
}

TEST(NormalizeToDistributionClampsAndSums) {
  auto p = NormalizeToDistribution({2.0, -5.0, 6.0});
  CHECK_OK(p);
  CHECK_NEAR(p->pmf()[0], 0.25, 1e-12);
  CHECK_NEAR(p->pmf()[1], 0.0, 0.0);
  CHECK_NEAR(p->pmf()[2], 0.75, 1e-12);
  CHECK(!NormalizeToDistribution({-1.0, -2.0}).ok());
  CHECK(!Distribution::FromWeights({1.0, -0.5}).ok());
}

TEST(EmpiricalDistributionCountsSamples) {
  auto empirical = EmpiricalDistribution(5, {0, 2, 2, 2, 4, 4, 0, 2});
  CHECK_OK(empirical);
  CHECK_NEAR(empirical->ValueAt(0), 0.25, 1e-12);
  CHECK_NEAR(empirical->ValueAt(1), 0.0, 0.0);
  CHECK_NEAR(empirical->ValueAt(2), 0.5, 1e-12);
  CHECK_NEAR(empirical->ValueAt(4), 0.25, 1e-12);
  CHECK_NEAR(empirical->TotalMass(), 1.0, 1e-12);
  CHECK(!EmpiricalDistribution(3, {0, 3}).ok());
  CHECK(!EmpiricalDistribution(3, {}).ok());
}

// EmpiricalDistribution counts small domains into per-thread scratch and
// sorts large ones; both must give exactly what sorting and counting runs
// gives (mass unit * count, unit = 1/m), and the counting scratch must come
// back clean after every call — including one that rejects its input —
// whatever domains came before.
TEST(EmpiricalDistributionCountingMatchesSorting) {
  Rng rng(0xe3);
  const int64_t domains[] = {1, 2, 63, 64, 65, 1000, 1024, 4096, 16384, 16385,
                             1 << 20, 7, 300};
  const size_t sizes[] = {1, 3, 16, 64, 257, 2000};
  for (const int64_t domain : domains) {
    for (const size_t m : sizes) {
      std::vector<int64_t> samples(m);
      // Half the windows crowd a few values, half spread over the domain.
      const int64_t spread = rng.UniformInt(2) == 0 ? std::min<int64_t>(domain, 5)
                                                    : domain;
      for (int64_t& x : samples) x = rng.UniformInt(spread);
      auto empirical = EmpiricalDistribution(domain, samples);
      CHECK_OK(empirical);

      std::vector<int64_t> sorted = samples;
      std::sort(sorted.begin(), sorted.end());
      std::vector<int64_t> indices;
      std::vector<double> values;
      const double unit = 1.0 / static_cast<double>(m);
      for (size_t i = 0; i < m;) {
        size_t j = i;
        while (j < m && sorted[j] == sorted[i]) ++j;
        indices.push_back(sorted[i]);
        values.push_back(unit * static_cast<double>(j - i));
        i = j;
      }
      CHECK(empirical->domain_size() == domain);
      CHECK(empirical->indices() == indices);
      CHECK(empirical->values() == values);

      // A rejected window (one sample past the domain) leaves no trace.
      samples.back() = domain;
      CHECK(!EmpiricalDistribution(domain, samples).ok());
    }
  }
}

TEST(AliasSamplerMatchesPmfChiSquared) {
  const std::vector<double> weights{5.0, 1.0, 0.5, 2.0, 0.0, 1.5, 4.0, 6.0,
                                    0.25, 0.75};
  auto p = Distribution::FromWeights(weights);
  CHECK_OK(p);
  auto sampler = AliasSampler::Create(*p);
  CHECK_OK(sampler);

  Rng rng(2718281828);
  const size_t m = 200000;
  std::vector<int64_t> counts(weights.size(), 0);
  for (size_t i = 0; i < m; ++i) ++counts[static_cast<size_t>(sampler->Sample(&rng))];

  // Pearson chi-squared against the pmf; 8 support cells with nonzero
  // expectation -> dof ~ 8; 30 is far beyond the 99.9th percentile, so this
  // only fails if the sampler is actually wrong.
  double chi_squared = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double expected = p->pmf()[i] * static_cast<double>(m);
    if (expected == 0.0) {
      CHECK(counts[i] == 0);
      continue;
    }
    const double d = static_cast<double>(counts[i]) - expected;
    chi_squared += d * d / expected;
  }
  CHECK(chi_squared < 30.0);

  // SampleMany draws from the same stream.
  auto many = sampler->SampleMany(1000, &rng);
  CHECK(many.size() == 1000);
  for (int64_t s : many) CHECK(s >= 0 && s < sampler->domain_size());
}

TEST(L2AndL1DistancesMatchHandComputation) {
  const std::vector<double> a{1.0, 2.0, 0.0, 4.0};
  const std::vector<double> b{1.0, 0.0, 1.0, 2.0};
  CHECK_NEAR(L2DistanceSquared(a, b), 4.0 + 1.0 + 4.0, 1e-12);
  CHECK_NEAR(L1Distance(a, b), 2.0 + 1.0 + 2.0, 1e-12);

  const SparseFunction qa = SparseFunction::FromDense(a);
  CHECK_NEAR(L2DistanceSquared(qa, b), 9.0, 1e-12);
  // Length mismatch treats the missing tail as zero.
  CHECK_NEAR(L2DistanceSquared(qa, {1.0, 2.0}), 16.0, 1e-12);

  auto h = Histogram::Create(4, {{{0, 2}, 1.5}, {{2, 4}, 2.0}});
  CHECK_OK(h);
  CHECK_NEAR(L2DistanceSquared(*h, b),
             0.25 + 2.25 + 1.0 + 0.0, 1e-12);
  CHECK_NEAR(L1Distance(*h, b), 0.5 + 1.5 + 1.0 + 0.0, 1e-12);
  CHECK_NEAR(h->L2DistanceSquaredTo(qa), 0.25 + 0.25 + 4.0 + 4.0, 1e-12);
  CHECK_NEAR(h->TotalMass(), 7.0, 1e-12);
}

TEST(RequiredSampleSizeSchedule) {
  auto base = RequiredSampleSize(0.1, 0.1);
  CHECK_OK(base);
  CHECK(*base >= 100);  // at least the 1/eps^2 term
  auto tighter_eps = RequiredSampleSize(0.05, 0.1);
  auto tighter_delta = RequiredSampleSize(0.1, 0.01);
  CHECK(*tighter_eps > *base);
  CHECK(*tighter_delta > *base);
  // Domain-independence is the whole point: no n anywhere in the API.
  CHECK(!RequiredSampleSize(0.0, 0.1).ok());
  CHECK(!RequiredSampleSize(0.1, 1.5).ok());
}

}  // namespace
}  // namespace fasthist
