#ifndef FASTHIST_DIST_SPARSE_FUNCTION_H_
#define FASTHIST_DIST_SPARSE_FUNCTION_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "util/span.h"
#include "util/status.h"

namespace fasthist {

// Half-open integer interval [begin, end) over the domain [n].
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t length() const { return end - begin; }
  bool Contains(int64_t x) const { return begin <= x && x < end; }
};

// A real-valued function over the discrete domain {0, ..., n-1}, stored as
// its support (sorted indices with non-zero values).  This is the common
// input type of the merging algorithms: empirical distributions built from m
// samples have support <= m, which is what makes the paper's construction
// sample-linear rather than domain-linear.  Dense signals round-trip through
// FromDense/ToDense losslessly.
class SparseFunction {
 public:
  SparseFunction() = default;

  // Keeps exactly the non-zero entries of `dense`.
  static SparseFunction FromDense(const std::vector<double>& dense);

  // `pairs` are (index, value); indices must be unique and inside the
  // domain.  Zero values are dropped.
  static StatusOr<SparseFunction> FromPairs(
      int64_t domain_size, std::vector<std::pair<int64_t, double>> pairs);

  int64_t domain_size() const { return domain_size_; }
  size_t support_size() const { return indices_.size(); }
  const std::vector<int64_t>& indices() const { return indices_; }
  const std::vector<double>& values() const { return values_; }

  // O(log support) point query.
  double ValueAt(int64_t x) const;

  double TotalMass() const;
  double SumSquares() const;

  std::vector<double> ToDense() const;

 private:
  // Fills the support straight from one ordered pass over its samples.
  friend StatusOr<SparseFunction> EmpiricalDistribution(
      int64_t domain_size, Span<const int64_t> samples);

  int64_t domain_size_ = 0;
  std::vector<int64_t> indices_;  // sorted ascending
  std::vector<double> values_;    // aligned with indices_
};

}  // namespace fasthist

#endif  // FASTHIST_DIST_SPARSE_FUNCTION_H_
