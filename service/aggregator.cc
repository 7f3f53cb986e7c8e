#include "service/aggregator.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fasthist {

StatusOr<Aggregator> Aggregator::Create(Histogram summary,
                                        double error_budget) {
  if (summary.num_pieces() == 0) {
    return Status::Invalid("Aggregator: summary must be non-empty");
  }
  if (!(error_budget >= 0.0)) {
    return Status::Invalid("Aggregator: error_budget must be >= 0");
  }
  std::vector<double> prefix_mass;
  prefix_mass.reserve(static_cast<size_t>(summary.num_pieces()) + 1);
  prefix_mass.push_back(0.0);
  for (const HistogramPiece& piece : summary.pieces()) {
    // A distribution summary must be non-negative and finite; anything else
    // would make prefix_mass_ non-monotone and break every query's binary
    // search.  (DecodeHistogram now rejects hostile value planes at the
    // codec boundary too; this check keeps locally-constructed summaries
    // honest as well.)
    if (!(std::isfinite(piece.value) && piece.value >= 0.0)) {
      return Status::Invalid(
          "Aggregator: piece values must be finite and non-negative");
    }
    prefix_mass.push_back(prefix_mass.back() +
                          piece.value *
                              static_cast<double>(piece.interval.length()));
  }
  if (!(prefix_mass.back() > 0.0)) {
    return Status::Invalid("Aggregator: summary must carry positive mass");
  }
  // Finite pieces can still sum past DBL_MAX; an infinite total would turn
  // every Cdf and range mass into NaN and feed Quantile an infinite target.
  if (!std::isfinite(prefix_mass.back())) {
    return Status::Invalid("Aggregator: summary's total mass overflows");
  }
  return Aggregator(std::move(summary), error_budget, std::move(prefix_mass));
}

StatusOr<Aggregator> Aggregator::Create(const MergeTreeResult& reduction,
                                        double per_level_error) {
  if (!(reduction.total_weight > 0.0)) {
    return Status::Invalid(
        "Aggregator: aggregate summarizes zero samples — an idle fleet has "
        "no distribution to serve");
  }
  if (!(per_level_error >= 0.0)) {
    return Status::Invalid("Aggregator: per_level_error must be >= 0");
  }
  return Create(reduction.aggregate,
                per_level_error * static_cast<double>(reduction.error_levels));
}

StatusOr<Aggregator> Aggregator::CreateForSnapshot(const ShardSnapshot& snapshot,
                                                   double per_level_error) {
  if (snapshot.num_samples <= 0) {
    return Status::Invalid(
        "Aggregator: snapshot summarizes zero samples — nothing to serve");
  }
  if (!(per_level_error >= 0.0)) {
    return Status::Invalid("Aggregator: per_level_error must be >= 0");
  }
  auto histogram = DecodeHistogram(snapshot.encoded_histogram);
  if (!histogram.ok()) return histogram.status();
  return Create(std::move(histogram).value(),
                per_level_error *
                    static_cast<double>(std::max(1, snapshot.error_levels)));
}

size_t Aggregator::PieceIndexOf(int64_t x) const {
  const auto& pieces = summary_.pieces();
  const auto it = std::upper_bound(
      pieces.begin(), pieces.end(), x,
      [](int64_t value, const HistogramPiece& piece) {
        return value < piece.interval.begin;
      });
  return static_cast<size_t>(it - pieces.begin()) - 1;
}

double Aggregator::MassBelow(int64_t x) const {
  if (x <= 0) return 0.0;
  if (x >= summary_.domain_size()) return total_mass_;
  const size_t index = PieceIndexOf(x);
  const HistogramPiece& piece = summary_.pieces()[index];
  return prefix_mass_[index] +
         piece.value * static_cast<double>(x - piece.interval.begin);
}

double Aggregator::Cdf(int64_t x) const {
  if (x < 0) return 0.0;
  if (x >= summary_.domain_size() - 1) return 1.0;
  return std::clamp(MassBelow(x + 1) / total_mass_, 0.0, 1.0);
}

int64_t Aggregator::Quantile(double q) const {
  // Explicit clamp so NaN lands at 0 instead of flowing through std::clamp
  // (which passes NaN along) into a UB double->int64 cast below.
  if (!(q >= 0.0)) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * total_mass_;
  // First piece whose inclusive cumulative mass reaches the target (Create
  // guarantees prefix_mass_ is non-decreasing).  Zero-mass pieces are
  // naturally skipped: their cumulative equals their predecessor's, so
  // lower_bound lands on the earliest piece that reaches the target.
  const auto it =
      std::lower_bound(prefix_mass_.begin() + 1, prefix_mass_.end(), target);
  if (it == prefix_mass_.end()) return summary_.domain_size() - 1;
  const size_t index = static_cast<size_t>(it - prefix_mass_.begin()) - 1;
  const HistogramPiece& piece = summary_.pieces()[index];
  if (!(piece.value > 0.0)) return piece.interval.begin;
  const double need = target - prefix_mass_[index];
  // Smallest t >= 1 with piece.value * t >= need; x covers t points of the
  // piece when x = begin + t - 1.
  const int64_t steps = std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(need / piece.value)), 1,
      piece.interval.length());
  return piece.interval.begin + steps - 1;
}

Aggregator::RangeMass Aggregator::RangeMassQuery(int64_t begin,
                                                 int64_t end) const {
  begin = std::clamp<int64_t>(begin, 0, summary_.domain_size());
  end = std::clamp<int64_t>(end, 0, summary_.domain_size());
  RangeMass result;
  result.error_bound = error_budget_;
  if (end <= begin) return result;
  result.mass = (MassBelow(end) - MassBelow(begin)) / total_mass_;

  // Resolution slack: for each piece the query cuts (rather than covers or
  // skips), the summary asserts only the piece's total mass, not where it
  // sits inside the piece.  The true covered share lies in [0, piece mass]
  // against our flat-split estimate, so the worst case is the larger of the
  // estimated-in and estimated-out parts.
  const auto piece_slack = [&](size_t index) {
    const HistogramPiece& piece = summary_.pieces()[index];
    const int64_t covered_begin = std::max(begin, piece.interval.begin);
    const int64_t covered_end = std::min(end, piece.interval.end);
    if (covered_begin <= piece.interval.begin &&
        covered_end >= piece.interval.end) {
      return 0.0;  // fully covered: no within-piece attribution needed
    }
    const double piece_mass =
        piece.value * static_cast<double>(piece.interval.length());
    const double covered =
        piece.value * static_cast<double>(covered_end - covered_begin);
    return std::max(covered, piece_mass - covered);
  };
  const size_t first = PieceIndexOf(begin);  // begin < end <= domain here
  const size_t last = PieceIndexOf(end - 1);
  result.error_bound += piece_slack(first) / total_mass_;
  if (last != first) result.error_bound += piece_slack(last) / total_mass_;
  return result;
}

}  // namespace fasthist
