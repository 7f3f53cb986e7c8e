#ifndef FASTHIST_DIST_EMPIRICAL_H_
#define FASTHIST_DIST_EMPIRICAL_H_

#include <cstdint>
#include <vector>

#include "dist/histogram.h"
#include "dist/sparse_function.h"
#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// A probability distribution over {0, ..., n-1} (dense pmf summing to 1).
class Distribution {
 public:
  // `weights` must be non-negative with positive total; they are normalized.
  static StatusOr<Distribution> FromWeights(const std::vector<double>& weights);

  const std::vector<double>& pmf() const { return pmf_; }
  int64_t domain_size() const { return static_cast<int64_t>(pmf_.size()); }

  // ||p - h||_2 (not squared), evaluated over the whole domain.
  double L2DistanceTo(const Histogram& h) const;

 private:
  std::vector<double> pmf_;
};

// Clamps negative entries of `data` to zero and normalizes the rest into a
// probability distribution.  (The paper's learning experiments turn the raw
// hist/poly/dow series into distributions this way before sampling.)
StatusOr<Distribution> NormalizeToDistribution(const std::vector<double>& data);

// The empirical distribution \hat p_m of `samples` over [domain_size]: mass
// count(x)/m at each observed x.  Support size is at most m, so downstream
// merging runs in sample-linear time.  Samples must lie in the domain.
// Takes a pointer+length view (std::vector arguments convert implicitly),
// so callers can point at a slice of any buffer without copying.
StatusOr<SparseFunction> EmpiricalDistribution(int64_t domain_size,
                                               Span<const int64_t> samples);

// Theorem 3.2 sample-size schedule: the number of samples m that guarantees
// ||\hat p_m - p||_2 <= eps with probability >= 1 - fail_prob, independent
// of the domain size (E||\hat p_m - p||_2^2 <= 1/m plus McDiarmid).
StatusOr<int64_t> RequiredSampleSize(double eps, double fail_prob);

}  // namespace fasthist

#endif  // FASTHIST_DIST_EMPIRICAL_H_
