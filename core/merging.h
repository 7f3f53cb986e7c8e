#ifndef FASTHIST_CORE_MERGING_H_
#define FASTHIST_CORE_MERGING_H_

#include <cstdint>

#include "dist/histogram.h"
#include "dist/sparse_function.h"
#include "poly/poly_merging.h"
#include "util/status.h"

namespace fasthist {

struct MergingResult {
  Histogram histogram;
  double err_squared = 0.0;
  long long num_rounds = 0;
};

// Algorithm 1 of the paper: iterative pair merging.  Starting from the
// partition with breakpoints at every support point of q, each round pairs
// adjacent intervals, keeps the m = max(k, floor(k*(1+1/delta))) pairs with
// the largest merged error split, and merges the rest; the rounds stop once
// at most 2*gamma*m+1 intervals survive (see MergingOptions).  Each piece carries the best constant (the mean
// of q on the piece, zeros included), and err_squared sums the per-piece
// squared residuals.  Time O(s log s) for support size s (the per-round
// sort dominates); see ConstructHistogramFast for the selection-based
// sample-linear variant with identical output.
StatusOr<MergingResult> ConstructHistogram(
    const SparseFunction& q, int64_t k,
    const MergingOptions& options = MergingOptions());

// Mergeability (Lemma 4.2): re-approximates the weighted combination
// weight1*h1 + weight2*h2 (weights are relative and normalized internally)
// by a fresh ~2k+1-piece histogram, by running the merging algorithm over
// the boundary-union pieces.  h1 and h2 must share a domain.  This is the
// primitive behind the streaming builder and any distributed merge tree.
// `options` carries the usual delta/gamma knobs.
StatusOr<Histogram> MergeHistograms(const Histogram& h1, double weight1,
                                    const Histogram& h2, double weight2,
                                    int64_t k,
                                    const MergingOptions& options =
                                        MergingOptions());

}  // namespace fasthist

#endif  // FASTHIST_CORE_MERGING_H_
