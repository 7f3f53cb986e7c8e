// The benchmark's own arithmetic, on inputs worked out by hand.

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "perfbench/stats.h"
#include "store/summary_store.h"
#include "tests/fasthist_test.h"

namespace fasthist {
namespace perfbench {
namespace {

TEST(PercentileIsReportedWithItsSampleCount) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // unsorted on purpose
  const TimingSummary t = Summarize(samples);
  CHECK(t.count == 1000);
  CHECK(t.p50 == 500.0);
  // p99.5 leaves 5 samples beyond its rank, p99 leaves 10: p99 is the
  // highest percentile the sample supports.
  CHECK(t.tail_percentile == 99.0);
  CHECK(t.tail == 990.0);
  CHECK(FormatTiming(t, "us") == "500.00 us p50, 990.00 us p99 (n=1000)");

  // Nine samples support no tail at all: only the median, with its count.
  const TimingSummary few = Summarize({5, 1, 4, 2, 3, 9, 8, 7, 6});
  CHECK(few.count == 9);
  CHECK(few.p50 == 5.0);
  CHECK(few.tail_percentile == 0.0);
  CHECK(FormatTiming(few, "us") == "5.00 us p50 (n=9)");
  CHECK(Summarize({}).count == 0);
}

TEST(RankErrorStepRuleOnAHandWorkedKey) {
  // Samples {0, 1, 1, 3} over domain 4: F(0) = 0.25, F(1) = 0.75,
  // F(2) = 0.75, F(3) = 1.
  const ExactCdf cdf = ExactCdf::FromCounts({1, 2, 0, 1});
  CHECK(cdf.total == 4);
  // A q on the step at the served value costs nothing.
  CHECK_NEAR(RankError(cdf, 1, 0.5), 0.0, 1e-12);
  CHECK_NEAR(RankError(cdf, 1, 0.25), 0.0, 1e-12);
  CHECK_NEAR(RankError(cdf, 1, 0.75), 0.0, 1e-12);
  CHECK_NEAR(RankError(cdf, 0, 0.01), 0.0, 1e-12);
  // Above the step: the distance to its top.
  CHECK_NEAR(RankError(cdf, 1, 0.9), 0.15, 1e-12);
  // Below the step: the distance to its bottom.
  CHECK_NEAR(RankError(cdf, 3, 0.5), 0.25, 1e-12);
  // A value holding no sample has a flat step.
  CHECK_NEAR(RankError(cdf, 2, 0.7), 0.05, 1e-12);
  CHECK_NEAR(RankError(cdf, 2, 0.8), 0.05, 1e-12);
}

TEST(FailureAccountingCountsAnAckThatShedSamples) {
  IngestAck clean;
  clean.accepted = 1024;
  clean.partitions.push_back({0, 0, 512, 0, 0});
  clean.partitions.push_back({1, 0, 512, 0, 0});
  CHECK(!AckFailed(clean, 1024));

  // Partition 1 thinned its slice to every other sample.
  IngestAck shed = clean;
  shed.partitions[1] = {1, 1, 256, 256, 0};
  shed.accepted = 768;
  shed.shed = 256;
  shed.keep_shift = 1;
  CHECK(AckFailed(shed, 1024));

  IngestAck rejected = clean;
  rejected.partitions[0] = {0, 0, 0, 0, 512};
  rejected.accepted = 512;
  rejected.rejected = 512;
  CHECK(AckFailed(rejected, 1024));

  OpTally tally;
  tally.Add(!AckFailed(clean, 1024));
  tally.Add(!AckFailed(shed, 1024));
  tally.Add(true);  // a successful query
  CHECK(tally.attempted == 3);
  CHECK(tally.failed == 1);
  CHECK_NEAR(tally.failed_share(), 1.0 / 3.0, 1e-12);
}

TEST(ReplayCheckCatchesOneFlippedSample) {
  constexpr uint64_t kKey = 7;
  std::vector<KeyedSample> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back({kKey, static_cast<int64_t>((i * 37) % 1024)});
  }
  std::vector<KeyedSample> flipped = samples;
  flipped[123].value = (flipped[123].value + 512) % 1024;

  auto offline = SummaryStore::Create(ArchetypeConfig());
  auto same = SummaryStore::Create(ArchetypeConfig());
  auto served = SummaryStore::Create(ArchetypeConfig());
  CHECK(offline.ok() && same.ok() && served.ok());
  CHECK(offline->AddBatch(samples).ok());
  CHECK(same->AddBatch(samples).ok());
  CHECK(served->AddBatch(flipped).ok());
  auto expected = offline->ExportKeyedSnapshot(kKey, 0);
  auto identical = same->ExportKeyedSnapshot(kKey, 0);
  auto differs = served->ExportKeyedSnapshot(kKey, 0);
  CHECK(expected.ok() && identical.ok() && differs.ok());
  CHECK(SnapshotsMatch(*identical, *expected));
  CHECK(!SnapshotsMatch(*differs, *expected));
}

TEST(MedianOfOddAndEvenCounts) {
  CHECK(Median({3, 1, 2}) == 2.0);
  CHECK(Median({4, 1, 3, 2}) == 2.5);
  CHECK(Median({}) == 0.0);
}

TEST(QuietWindowsAreTheUnstolenOnesOrTheLeastStolenQuarter) {
  // Four of eight windows saw no steal: at least a quarter, so exactly
  // those are kept.
  const std::vector<double> mostly_quiet = {0, 0.02, 0, 0.05, 0.01, 0, 0.1, 0};
  CHECK(QuietIndices(mostly_quiet) == std::vector<size_t>({0, 2, 5, 7}));
  const std::vector<double> values = {10, 50, 12, 90, 30, 14, 99, 16};
  CHECK(QuietMedian(mostly_quiet, values) == 13.0);

  // A steal episode: no window is free of it.  The two least stolen of
  // eight are kept, and a window tied with the second one too.
  const std::vector<double> episode = {0.03, 0.01, 0.02, 0.04,
                                       0.05, 0.02, 0.06, 0.07};
  CHECK(QuietIndices(episode) == std::vector<size_t>({1, 2, 5}));
  CHECK(QuietMedian(episode, values) == 14.0);

  // One unstolen window of eight is fewer than a quarter.
  const std::vector<double> one_quiet = {0.03, 0.01, 0.02, 0.04,
                                         0.05, 0.0,  0.06, 0.07};
  CHECK(QuietIndices(one_quiet) == std::vector<size_t>({1, 5}));
  CHECK(QuietIndices({0.5}) == std::vector<size_t>({0}));
  CHECK(QuietIndices({}).empty());
  CHECK(QuietMedian({}, {}) == 0.0);
}

}  // namespace
}  // namespace perfbench
}  // namespace fasthist
