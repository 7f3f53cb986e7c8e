#include "core/hierarchical.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace fasthist {

double HierarchicalHistogram::IntervalError(int64_t begin, int64_t end) const {
  end = std::min(end, domain_size_);
  if (end - begin < 2) return 0.0;
  const double sum = prefix_sum_[static_cast<size_t>(end)] -
                     prefix_sum_[static_cast<size_t>(begin)];
  const double sumsq = prefix_sumsq_[static_cast<size_t>(end)] -
                       prefix_sumsq_[static_cast<size_t>(begin)];
  return std::max(0.0, sumsq - sum * sum / static_cast<double>(end - begin));
}

double HierarchicalHistogram::IntervalMean(int64_t begin, int64_t end) const {
  end = std::min(end, domain_size_);
  if (end <= begin) return 0.0;
  const double sum = prefix_sum_[static_cast<size_t>(end)] -
                     prefix_sum_[static_cast<size_t>(begin)];
  return sum / static_cast<double>(end - begin);
}

StatusOr<HierarchicalHistogram> HierarchicalHistogram::Build(
    const SparseFunction& q) {
  if (q.domain_size() <= 0) {
    return Status::Invalid("HierarchicalHistogram: empty domain");
  }
  HierarchicalHistogram h;
  h.domain_size_ = q.domain_size();
  h.padded_size_ = 1;
  h.num_levels_ = 1;
  while (h.padded_size_ < h.domain_size_) {
    h.padded_size_ <<= 1;
    ++h.num_levels_;
  }

  const size_t n = static_cast<size_t>(h.domain_size_);
  h.prefix_sum_.assign(n + 1, 0.0);
  h.prefix_sumsq_.assign(n + 1, 0.0);
  {
    const std::vector<double> dense = q.ToDense();
    for (size_t i = 0; i < n; ++i) {
      h.prefix_sum_[i + 1] = h.prefix_sum_[i] + dense[i];
      h.prefix_sumsq_[i + 1] = h.prefix_sumsq_[i] + dense[i] * dense[i];
    }
  }

  // Per-level error of the uniform dyadic partition (intervals clipped to
  // the real domain).  Each level is summed in blocks of kLevelBlock
  // intervals, and the block sums are added in block order, so a level
  // that fits in one block gets the plain running sum.
  constexpr int64_t kLevelBlock = 4096;
  h.level_err_.resize(static_cast<size_t>(h.num_levels_));
  for (int64_t level = 0; level < h.num_levels_; ++level) {
    const int64_t width = int64_t{1} << level;
    const int64_t num_intervals = (h.domain_size_ + width - 1) / width;
    double err_squared = 0.0;
    for (int64_t first = 0; first < num_intervals; first += kLevelBlock) {
      const int64_t last = std::min(first + kLevelBlock, num_intervals);
      double block_err_squared = 0.0;
      for (int64_t j = first; j < last; ++j) {
        block_err_squared += h.IntervalError(j * width, (j + 1) * width);
      }
      err_squared += block_err_squared;
    }
    h.level_err_[static_cast<size_t>(level)] = std::sqrt(err_squared);
  }
  return h;
}

std::vector<HierarchicalHistogram::ParetoPoint>
HierarchicalHistogram::ParetoCurve() const {
  std::vector<ParetoPoint> curve;
  curve.reserve(static_cast<size_t>(num_levels_));
  for (int level = 0; level < num_levels_; ++level) {
    const int64_t width = int64_t{1} << level;
    curve.push_back({level, (domain_size_ + width - 1) / width,
                     level_err_[static_cast<size_t>(level)]});
  }
  return curve;
}

StatusOr<HierarchicalHistogram::Selection> HierarchicalHistogram::SelectForK(
    int64_t k) const {
  if (k < 1) return Status::Invalid("SelectForK: k must be >= 1");

  struct Leaf {
    int64_t begin;
    int64_t width;  // dyadic width (may overhang the domain; error clips)
    double err_squared;
  };
  const auto smaller_error = [](const Leaf& a, const Leaf& b) {
    return a.err_squared < b.err_squared;
  };
  std::priority_queue<Leaf, std::vector<Leaf>, decltype(smaller_error)> heap(
      smaller_error);
  heap.push({0, padded_size_, IntervalError(0, padded_size_)});

  const int64_t target = std::min(8 * k, domain_size_);
  std::vector<Leaf> done;
  while (!heap.empty() &&
         static_cast<int64_t>(heap.size() + done.size()) < target) {
    const Leaf top = heap.top();
    if (top.err_squared <= 0.0) break;  // already exact everywhere
    heap.pop();
    const int64_t half = top.width / 2;
    for (const int64_t begin : {top.begin, top.begin + half}) {
      if (begin >= domain_size_) continue;  // fully in the padding
      Leaf child{begin, half, IntervalError(begin, begin + half)};
      if (half == 1) {
        done.push_back(child);  // cannot split further
      } else {
        heap.push(child);
      }
    }
  }
  while (!heap.empty()) {
    done.push_back(heap.top());
    heap.pop();
  }

  std::sort(done.begin(), done.end(),
            [](const Leaf& a, const Leaf& b) { return a.begin < b.begin; });
  Selection selection;
  std::vector<HistogramPiece> pieces;
  pieces.reserve(done.size());
  for (const Leaf& leaf : done) {
    const int64_t end = std::min(leaf.begin + leaf.width, domain_size_);
    pieces.push_back({{leaf.begin, end}, IntervalMean(leaf.begin, end)});
    selection.error_estimate += leaf.err_squared;
  }
  selection.error_estimate = std::sqrt(selection.error_estimate);
  selection.num_pieces = static_cast<int64_t>(pieces.size());
  auto histogram = Histogram::Create(domain_size_, std::move(pieces));
  if (!histogram.ok()) return histogram.status();
  selection.histogram = std::move(histogram).value();
  return selection;
}

}  // namespace fasthist
