#ifndef FASTHIST_POLY_POLY_MERGING_H_
#define FASTHIST_POLY_POLY_MERGING_H_

#include <cstdint>
#include <vector>

#include "dist/sparse_function.h"
#include "poly/fit_poly.h"
#include "util/status.h"

namespace fasthist {

// Knobs of the paper's merging algorithm (Algorithm 1), shared by the
// histogram mergers in core/ and the piecewise-polynomial generalization
// below.  Per round the algorithm pairs up adjacent intervals, keeps the
//   m = max(k, floor(k * (1 + 1/delta)))
// pairs with the largest merged error split, and merges the rest, until at
// most 2*gamma*m + 1 intervals remain.
//   delta — approximation ratio vs output pieces (Theorem 3.3): the output
//           error is within sqrt(1 + delta) of opt_k while the piece count
//           shrinks toward 2k+1 as delta grows.
//   gamma — running time vs output pieces (Theorem 3.4 / Corollary 3.1):
//           larger gamma stops the rounds earlier, saving the tail of the
//           merging at the cost of proportionally more pieces.
// Every merging run executes on the calling thread.
struct MergingOptions {
  double delta = 1000.0;
  double gamma = 1.0;
};

// Invalid unless delta > 0 and gamma >= 1 (a NaN knob is refused too), with
// a message that names the knob.  Every merging run checks its options
// here, and so does every builder that merges later
// (StreamingHistogramBuilder, ArchetypePool) at its Create, so a bad knob
// is refused before a sample is accepted rather than at the first condense.
Status ValidateMergingOptions(const MergingOptions& options);

// A function that is polynomial (degree <= d) on each of its pieces.
class PiecewisePolynomial {
 public:
  PiecewisePolynomial() = default;

  static StatusOr<PiecewisePolynomial> Create(int64_t domain_size,
                                              std::vector<PolyFit> pieces);

  int64_t domain_size() const { return domain_size_; }
  int64_t num_pieces() const { return static_cast<int64_t>(pieces_.size()); }
  const std::vector<PolyFit>& pieces() const { return pieces_; }

  std::vector<double> ToDense() const;

 private:
  int64_t domain_size_ = 0;
  std::vector<PolyFit> pieces_;  // contiguous, covering the domain
};

struct PiecewisePolyResult {
  PiecewisePolynomial function;
  double err_squared = 0.0;
  long long num_rounds = 0;
};

// Theorem 2.3 / Corollary 4.1: the merging algorithm with the degree-d
// least-squares projection as its piece oracle.  Output has O(k) pieces
// (2m+1 with the default options), each fitted by a degree-<=d polynomial,
// and err_squared is the summed per-piece residual.  Runs the shared round
// engine (core/internal/merge_engine.h) with the per-round sort — the
// reference implementation the fast variant is verified against.
StatusOr<PiecewisePolyResult> ConstructPiecewisePolynomial(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options = MergingOptions());

// Theorem 3.4 applied to polynomials: the same rounds with the m worst
// pairs found by linear-time selection instead of a full sort.  Same
// contract as ConstructHistogramFast vs ConstructHistogram: the strict
// (error, index) order makes the selected pair sets — and therefore the
// pieces, coefficients, err_squared and num_rounds — identical to
// ConstructPiecewisePolynomial on every input.  The property suite
// (tests/property_test.cc) asserts this across degrees, seeds and knobs.
StatusOr<PiecewisePolyResult> ConstructPiecewisePolynomialFast(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options = MergingOptions());

}  // namespace fasthist

#endif  // FASTHIST_POLY_POLY_MERGING_H_
