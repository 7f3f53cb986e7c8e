#include "poly/poly_merging.h"

#include <utility>

#include "core/internal/merge_engine.h"

namespace fasthist {

Status ValidateMergingOptions(const MergingOptions& options) {
  if (!(options.delta > 0.0)) {
    return Status::Invalid("merging: delta must be positive");
  }
  if (!(options.gamma >= 1.0)) {
    return Status::Invalid("merging: gamma must be >= 1");
  }
  return Status::Ok();
}

StatusOr<PiecewisePolynomial> PiecewisePolynomial::Create(
    int64_t domain_size, std::vector<PolyFit> pieces) {
  if (domain_size <= 0) {
    return Status::Invalid("PiecewisePolynomial: domain must be positive");
  }
  int64_t expected_begin = 0;
  for (const PolyFit& piece : pieces) {
    if (piece.interval.begin != expected_begin ||
        piece.interval.length() <= 0) {
      return Status::Invalid("PiecewisePolynomial: pieces not contiguous");
    }
    expected_begin = piece.interval.end;
  }
  if (pieces.empty() || expected_begin != domain_size) {
    return Status::Invalid("PiecewisePolynomial: pieces must cover domain");
  }
  PiecewisePolynomial f;
  f.domain_size_ = domain_size;
  f.pieces_ = std::move(pieces);
  return f;
}

std::vector<double> PiecewisePolynomial::ToDense() const {
  std::vector<double> dense(static_cast<size_t>(domain_size_), 0.0);
  for (const PolyFit& piece : pieces_) {
    for (int64_t x = piece.interval.begin; x < piece.interval.end; ++x) {
      dense[static_cast<size_t>(x)] = piece.EvaluateAt(x);
    }
  }
  return dense;
}

StatusOr<PiecewisePolyResult> ConstructPiecewisePolynomial(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options) {
  return internal::RunPolyMergingRounds(q, k, degree, options,
                                        internal::SelectionStrategy::kSort);
}

StatusOr<PiecewisePolyResult> ConstructPiecewisePolynomialFast(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options) {
  return internal::RunPolyMergingRounds(q, k, degree, options,
                                        internal::SelectionStrategy::kSelect);
}

}  // namespace fasthist
