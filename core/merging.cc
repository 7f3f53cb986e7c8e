#include "core/merging.h"

#include <cmath>

#include "core/internal/merge_engine.h"

namespace fasthist {

StatusOr<MergingResult> ConstructHistogram(const SparseFunction& q, int64_t k,
                                           const MergingOptions& options) {
  return internal::RunMergingRounds(q, k, options,
                                    internal::SelectionStrategy::kSort);
}

StatusOr<Histogram> MergeHistograms(const Histogram& h1, double weight1,
                                    const Histogram& h2, double weight2,
                                    int64_t k,
                                    const MergingOptions& options) {
  if (h1.domain_size() != h2.domain_size()) {
    return Status::Invalid("MergeHistograms: domain mismatch");
  }
  // Written so NaN fails every comparison: a NaN or infinite weight (or
  // a total that overflows) would normalize to NaN or zero weights.
  const double total = weight1 + weight2;
  if (!(weight1 >= 0.0) || !(weight2 >= 0.0) || !(total > 0.0) ||
      !std::isfinite(total)) {
    return Status::Invalid("MergeHistograms: weights must be finite and "
                           "non-negative with a positive total");
  }
  const double w1 = weight1 / total;
  const double w2 = weight2 / total;
  return internal::RunUnionMergingRounds(h1, w1, h2, w2, k, options);
}

}  // namespace fasthist
