#ifndef FASTHIST_CORE_HIERARCHICAL_H_
#define FASTHIST_CORE_HIERARCHICAL_H_

#include <cstdint>
#include <vector>

#include "dist/histogram.h"
#include "dist/sparse_function.h"
#include "util/status.h"

namespace fasthist {

// Theorem 2.2 / Algorithm 2: the multi-scale (dyadic) histogram.  One build
// precomputes prefix statistics over the padded power-of-two domain; every
// dyadic interval's best-constant error is then O(1), so a single O(n) pass
// serves *all* piece budgets k simultaneously — via the per-level Pareto
// curve or the adaptive SelectForK refinement.
class HierarchicalHistogram {
 public:
  struct ParetoPoint {
    int level = 0;          // 0 = singletons, num_levels()-1 = root
    int64_t num_pieces = 0;
    double err = 0.0;       // l2 error of the level's uniform partition
  };

  struct Selection {
    int64_t num_pieces = 0;
    double error_estimate = 0.0;  // l2 error of the selected partition
    Histogram histogram;
  };

  // The per-level error pass sums each level in blocks of 4096 intervals
  // and adds the block sums in block order.  On levels wider than one block
  // that can differ from a single running sum in the last float bits.
  static StatusOr<HierarchicalHistogram> Build(const SparseFunction& q);

  int num_levels() const { return num_levels_; }

  // (level, pieces, error) per dyadic level, finest first.
  std::vector<ParetoPoint> ParetoCurve() const;

  // Adaptive refinement for a target budget k: starting from the root,
  // repeatedly split the dyadic leaf with the largest error until 8k pieces
  // (or exhaustion).  Theorem 2.2's regime: pieces <= 8k with error within
  // a small constant of opt_k.
  StatusOr<Selection> SelectForK(int64_t k) const;

 private:
  double IntervalError(int64_t begin, int64_t end) const;  // clipped to n
  double IntervalMean(int64_t begin, int64_t end) const;

  int64_t domain_size_ = 0;
  int64_t padded_size_ = 0;  // next power of two >= domain_size_
  int num_levels_ = 0;
  std::vector<double> prefix_sum_;    // over [0, domain], size domain+1
  std::vector<double> prefix_sumsq_;
  std::vector<double> level_err_;     // indexed by level
};

}  // namespace fasthist

#endif  // FASTHIST_CORE_HIERARCHICAL_H_
