#include "core/fast_merging.h"

#include "core/internal/merge_engine.h"

namespace fasthist {

StatusOr<MergingResult> ConstructHistogramFast(const SparseFunction& q,
                                               int64_t k,
                                               const MergingOptions& options) {
  return internal::RunMergingRounds(q, k, options,
                                    internal::SelectionStrategy::kSelect);
}

}  // namespace fasthist
