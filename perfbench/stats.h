#ifndef FASTHIST_PERFBENCH_STATS_H_
#define FASTHIST_PERFBENCH_STATS_H_

// The benchmark's own arithmetic: timing summaries, the served-quantile
// rank error, failure accounting, and the snapshot replay comparison.  Kept
// apart from the load generator so perfbench_test can pin each rule down on
// hand-worked inputs.

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "service/wire_format.h"

namespace fasthist {
namespace perfbench {

// A timing reported the way the benchmark prints it: the median, the
// highest percentile of {50, 90, 95, 99, 99.5, 99.9, 99.95, 99.99} that
// still has at least 10 samples beyond its rank (0 when none has), and the
// sample count.
struct TimingSummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;
  double tail = 0.0;
};

// Summarizes `samples` (any order) by nearest rank.
TimingSummary Summarize(std::vector<double> samples);

// Median of `values` (the mean of the middle two for an even count); 0 when
// empty.
double Median(std::vector<double> values);

// The quiet measurements among a run's timed windows (or setups), given the
// host steal share of each: the share of the guest's CPU time the
// hypervisor gave to other guests.  Steal slows every timed number, and on
// a shared virtual machine it comes in episodes of seconds to minutes.  The
// measurements without steal are kept when they are at least a quarter of
// all; otherwise the quarter with the least steal is, with every
// measurement tied at the cut.  Returns the kept indices, ascending.
std::vector<size_t> QuietIndices(const std::vector<double>& steal_shares);

// Median of `values` over QuietIndices(steal_shares); both have one entry
// per measurement.  0 when empty.
double QuietMedian(const std::vector<double>& steal_shares,
                   const std::vector<double>& values);

// "12.3 us p50, 45.6 us p99.9 (n=1234)".
std::string FormatTiming(const TimingSummary& t, const char* unit);

// Exact value counts of one key's accepted samples over [0, domain).
struct ExactCdf {
  std::vector<int64_t> below;  // below[v] = #samples < v, size domain + 1
  int64_t total = 0;
  static ExactCdf FromCounts(const std::vector<int64_t>& counts);
};

// Rank error of one served quantile: the empirical CDF steps at `served`
// from F(served - 1) to F(served); the error is the distance from q to that
// step (0 when q lies on it).
double RankError(const ExactCdf& cdf, int64_t served, double q);

// One failed-operation rule: an ACK fails its batch when it reports shed or
// rejected samples, or accepted fewer samples than were offered.
bool AckFailed(const IngestAck& ack, size_t offered);

// Failure tally of a run: attempted client operations and failed ones
// (non-OK calls, failed ACKs, replay mismatches).
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpTally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// The replay check: a served snapshot matches when its wire encoding is
// byte-identical to the offline replay's.
bool SnapshotsMatch(const ShardSnapshot& served, const ShardSnapshot& offline);

}  // namespace perfbench
}  // namespace fasthist

#endif  // FASTHIST_PERFBENCH_STATS_H_
