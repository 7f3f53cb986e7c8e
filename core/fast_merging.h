#ifndef FASTHIST_CORE_FAST_MERGING_H_
#define FASTHIST_CORE_FAST_MERGING_H_

#include <cstdint>

#include "core/merging.h"
#include "dist/sparse_function.h"
#include "poly/poly_merging.h"
#include "util/status.h"

namespace fasthist {

// Theorem 3.4: the sample-linear variant of Algorithm 1.  Each round finds
// the m pairs with the largest merged error with a linear-time selection
// instead of a full sort: the m-th largest error comes from a top-8
// register network (m <= 8), a top-m heap scan (m <= 2048) or
// std::nth_element, and one pass marks the pairs above it plus the
// earliest ties.  Since round sizes decay geometrically
// (s -> ceil(s/2) + m), total work is O(s) in the support size s instead
// of O(s log s).  An input whose rounds start at <= 512 atoms (2s + 1; a
// served 64-sample window starts at <= 129) runs them in a branch-free
// loop whose planes stay in L1; larger ones in the fused streaming loop.
//
// Contract: because the selection uses the same strict (error, index) order
// as the sorting variant, the selected pair sets — and therefore the output
// partition, values, err_squared and num_rounds — are identical to
// ConstructHistogram on every input.  The test suite asserts this.
StatusOr<MergingResult> ConstructHistogramFast(
    const SparseFunction& q, int64_t k,
    const MergingOptions& options = MergingOptions());

}  // namespace fasthist

#endif  // FASTHIST_CORE_FAST_MERGING_H_
