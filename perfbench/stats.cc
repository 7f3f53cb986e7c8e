#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace fasthist {
namespace perfbench {

namespace {

constexpr size_t kMinSamplesBeyondTail = 10;

// Nearest-rank percentile of `sorted` (ascending, non-empty), p in (0, 100].
double NearestRank(const std::vector<double>& sorted, double p) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double TailPercentileFor(size_t count) {
  static constexpr double kLadder[] = {99.99, 99.95, 99.9, 99.5,
                                       99.0,  95.0,  90.0, 50.0};
  for (const double p : kLadder) {
    const size_t rank =
        static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(count)));
    if (count >= rank && count - rank >= kMinSamplesBeyondTail) return p;
  }
  return 0.0;
}

}  // namespace

TimingSummary Summarize(std::vector<double> samples) {
  TimingSummary t;
  t.count = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  t.p50 = NearestRank(samples, 50.0);
  t.tail_percentile = TailPercentileFor(samples.size());
  if (t.tail_percentile > 0.0) t.tail = NearestRank(samples, t.tail_percentile);
  return t;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<size_t> QuietIndices(const std::vector<double>& steal_shares) {
  if (steal_shares.empty()) return {};
  std::vector<double> sorted = steal_shares;
  std::sort(sorted.begin(), sorted.end());
  const size_t quarter = std::max<size_t>(1, (sorted.size() + 3) / 4);
  const double cut = std::max(0.0, sorted[quarter - 1]);
  std::vector<size_t> kept;
  for (size_t i = 0; i < steal_shares.size(); ++i) {
    if (steal_shares[i] <= cut) kept.push_back(i);
  }
  return kept;
}

double QuietMedian(const std::vector<double>& steal_shares,
                   const std::vector<double>& values) {
  std::vector<double> kept;
  for (const size_t i : QuietIndices(steal_shares)) kept.push_back(values[i]);
  return Median(std::move(kept));
}

std::string FormatTiming(const TimingSummary& t, const char* unit) {
  char buffer[160];
  if (t.tail_percentile > 0.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f %s p50, %.2f %s p%g (n=%zu)",
                  t.p50, unit, t.tail, unit, t.tail_percentile, t.count);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f %s p50 (n=%zu)", t.p50, unit,
                  t.count);
  }
  return buffer;
}

ExactCdf ExactCdf::FromCounts(const std::vector<int64_t>& counts) {
  ExactCdf cdf;
  cdf.below.assign(counts.size() + 1, 0);
  for (size_t v = 0; v < counts.size(); ++v) {
    cdf.below[v + 1] = cdf.below[v] + counts[v];
  }
  cdf.total = cdf.below.back();
  return cdf;
}

double RankError(const ExactCdf& cdf, int64_t served, double q) {
  const int64_t domain = static_cast<int64_t>(cdf.below.size()) - 1;
  const int64_t v = std::min(std::max<int64_t>(served, 0), domain - 1);
  const double n = static_cast<double>(cdf.total);
  const double step_low = static_cast<double>(cdf.below[v]) / n;
  const double step_high = static_cast<double>(cdf.below[v + 1]) / n;
  if (q < step_low) return step_low - q;
  if (q > step_high) return q - step_high;
  return 0.0;
}

bool AckFailed(const IngestAck& ack, size_t offered) {
  return ack.shed != 0 || ack.rejected != 0 || ack.accepted != offered;
}

bool SnapshotsMatch(const ShardSnapshot& served, const ShardSnapshot& offline) {
  return EncodeShardSnapshot(served) == EncodeShardSnapshot(offline);
}

}  // namespace perfbench
}  // namespace fasthist
