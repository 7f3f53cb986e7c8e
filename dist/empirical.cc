#include "dist/empirical.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace fasthist {

StatusOr<Distribution> Distribution::FromWeights(
    const std::vector<double>& weights) {
  if (weights.empty()) {
    return Status::Invalid("Distribution: empty weight vector");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) return Status::Invalid("Distribution: negative weight");
    total += w;
  }
  if (total <= 0.0) {
    return Status::Invalid("Distribution: weights sum to zero");
  }
  Distribution p;
  p.pmf_.resize(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) p.pmf_[i] = weights[i] / total;
  return p;
}

double Distribution::L2DistanceTo(const Histogram& h) const {
  double total = 0.0;
  size_t x = 0;
  for (const HistogramPiece& piece : h.pieces()) {
    const size_t end = std::min(static_cast<size_t>(piece.interval.end),
                                pmf_.size());
    for (; x < end; ++x) {
      const double d = pmf_[x] - piece.value;
      total += d * d;
    }
  }
  // Any domain tail not covered by the histogram counts at full mass.
  for (; x < pmf_.size(); ++x) total += pmf_[x] * pmf_[x];
  return std::sqrt(total);
}

double Distribution::L2DistanceTo(const std::vector<double>& q) const {
  const size_t n = std::max(pmf_.size(), q.size());
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double a = i < pmf_.size() ? pmf_[i] : 0.0;
    const double b = i < q.size() ? q[i] : 0.0;
    total += (a - b) * (a - b);
  }
  return std::sqrt(total);
}

StatusOr<Distribution> NormalizeToDistribution(
    const std::vector<double>& data) {
  std::vector<double> clamped(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    clamped[i] = data[i] > 0.0 ? data[i] : 0.0;
  }
  return Distribution::FromWeights(clamped);
}

namespace {

// The counting pass scans one bitmap word per 64 domain points, so it runs
// only when the domain is small relative to the window — at most one word
// per sample, or kCountingMinWords, which costs about what the sort path's
// allocation alone does — and at most kCountingMaxDomain, which caps its
// per-thread scratch (a 4-byte count per domain point plus the bitmap) at
// 66 KB; 4.1 KB at domain 1024.  Larger domains sort.
constexpr int64_t kCountingMaxDomain = int64_t{1} << 14;
constexpr uint64_t kCountingMinWords = 16;

// Per-thread counting scratch, all zero between calls: the emit pass
// clears every count and bitmap word it reads.
struct CountingScratch {
  std::vector<uint32_t> counts;
  std::vector<uint64_t> seen;
};

int LowestSetBit(uint64_t bits) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_ctzll(bits);
#else
  int bit = 0;
  while ((bits & 1) == 0) {
    bits >>= 1;
    ++bit;
  }
  return bit;
#endif
}

}  // namespace

StatusOr<SparseFunction> EmpiricalDistribution(int64_t domain_size,
                                               Span<const int64_t> samples) {
  if (domain_size <= 0) {
    return Status::Invalid("EmpiricalDistribution: domain must be positive");
  }
  if (samples.empty()) {
    return Status::Invalid("EmpiricalDistribution: no samples");
  }
  for (const int64_t x : samples) {
    if (x < 0 || x >= domain_size) {
      return Status::Invalid("EmpiricalDistribution: sample out of domain");
    }
  }
  // Mass unit * count at each distinct sample, support in ascending order.
  // (unit * count, not count / m: the two can round differently.)
  const size_t m = samples.size();
  const double unit = 1.0 / static_cast<double>(m);
  SparseFunction f;
  f.domain_size_ = domain_size;
  const uint64_t scan_words = (static_cast<uint64_t>(domain_size) + 63) / 64;
  if (domain_size <= kCountingMaxDomain &&
      scan_words <= std::max<uint64_t>(m, kCountingMinWords) &&
      m <= UINT32_MAX) {
    thread_local CountingScratch scratch;
    const auto domain = static_cast<size_t>(domain_size);
    const auto words = static_cast<size_t>(scan_words);
    if (scratch.counts.size() < domain) scratch.counts.resize(domain, 0);
    if (scratch.seen.size() < words) scratch.seen.resize(words, 0);
    size_t distinct = 0;
    for (const int64_t x : samples) {
      const auto i = static_cast<size_t>(x);
      if (scratch.counts[i]++ == 0) {
        scratch.seen[i / 64] |= uint64_t{1} << (i % 64);
        ++distinct;
      }
    }
    f.indices_.reserve(distinct);
    f.values_.reserve(distinct);
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = scratch.seen[w]; bits != 0; bits &= bits - 1) {
        const size_t i = w * 64 + static_cast<size_t>(LowestSetBit(bits));
        f.indices_.push_back(static_cast<int64_t>(i));
        f.values_.push_back(unit * static_cast<double>(scratch.counts[i]));
        scratch.counts[i] = 0;
      }
      scratch.seen[w] = 0;
    }
    return f;
  }
  std::vector<int64_t> sorted(samples.begin(), samples.end());
  std::sort(sorted.begin(), sorted.end());
  size_t distinct = 1;
  for (size_t i = 1; i < m; ++i) distinct += sorted[i] != sorted[i - 1];
  f.indices_.reserve(distinct);
  f.values_.reserve(distinct);
  for (size_t i = 0; i < m;) {
    size_t j = i;
    while (j < m && sorted[j] == sorted[i]) ++j;
    f.indices_.push_back(sorted[i]);
    f.values_.push_back(unit * static_cast<double>(j - i));
    i = j;
  }
  return f;
}

StatusOr<int64_t> RequiredSampleSize(double eps, double fail_prob) {
  if (!(eps > 0.0) || !(fail_prob > 0.0) || fail_prob >= 1.0) {
    return Status::Invalid(
        "RequiredSampleSize: need eps > 0 and fail_prob in (0, 1)");
  }
  // E||p_hat - p||_2^2 <= 1/m, and ||p_hat - p||_2 concentrates within
  // sqrt(2 ln(1/delta) / m) of its mean (McDiarmid with 2/m-bounded
  // differences), so m = ceil((1 + sqrt(2 ln(1/delta)))^2 / eps^2) suffices.
  const double root = 1.0 + std::sqrt(2.0 * std::log(1.0 / fail_prob));
  const double m = std::ceil(root * root / (eps * eps));
  if (!(m < 9.0e18)) {  // would overflow int64_t (or be NaN)
    return Status::Invalid("RequiredSampleSize: eps too small, m overflows");
  }
  return static_cast<int64_t>(m);
}

}  // namespace fasthist
