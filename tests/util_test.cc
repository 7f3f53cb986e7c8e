#include <algorithm>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "tests/fasthist_test.h"
#include "util/clock.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/span.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace fasthist {
namespace {

TEST(TimerIsMonotonic) {
  WallTimer timer;
  double last = timer.ElapsedMillis();
  CHECK(last >= 0.0);
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double now = timer.ElapsedMillis();
  CHECK(now >= last);
  timer.Restart();
  CHECK(timer.ElapsedMillis() <= now);
}

TEST(ClockMonotonicNanosAdvances) {
  // Monotone under rapid-fire reads (the request-path usage: two reads
  // bracketing an operation must never subtract negative)...
  const uint64_t start = MonotonicNanos();
  uint64_t last = start;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t now = MonotonicNanos();
    CHECK(now >= last);
    last = now;
  }
  // ...and it actually advances with wall time, at nanosecond granularity.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const uint64_t after = MonotonicNanos();
  CHECK(after > start);
  CHECK(after - start >= 1000000);  // the 2 ms sleep shows up as >= 1 ms

  // The readout struct net/ fills from these timestamps defaults to the
  // all-zero "no samples yet" state.
  LatencyStats stats;
  CHECK(stats.count == 0);
  CHECK_NEAR(stats.p50_us + stats.p99_us + stats.p995_us, 0.0, 0.0);
}

TEST(RunningStatsMatchesClosedForm) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  CHECK(stats.Count() == 8);
  CHECK_NEAR(stats.Mean(), 5.0, 1e-12);
  // Sample variance of the set is 32/7.
  CHECK_NEAR(stats.StdDev(), std::sqrt(32.0 / 7.0), 1e-12);
  CHECK_NEAR(stats.Min(), 2.0, 0.0);
  CHECK_NEAR(stats.Max(), 9.0, 0.0);
  CHECK_NEAR(Mean({1.0, 2.0, 3.0}), 2.0, 1e-12);
  CHECK_NEAR(StdDev({1.0, 2.0, 3.0}), 1.0, 1e-12);
}

TEST(RngIsDeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool all_equal_c = true;
  for (int i = 0; i < 100; ++i) {
    const double x = a.UniformDouble();
    CHECK_NEAR(x, b.UniformDouble(), 0.0);
    CHECK(x >= 0.0 && x < 1.0);
    if (x != c.UniformDouble()) all_equal_c = false;
  }
  CHECK(!all_equal_c);
  // Gaussian moments, loosely.
  Rng g(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(g.Gaussian());
  CHECK_NEAR(stats.Mean(), 0.0, 0.05);
  CHECK_NEAR(stats.StdDev(), 1.0, 0.05);
}

TEST(TablePrinterFormatsAndPrints) {
  CHECK(TablePrinter::FormatDouble(3.14159, 2) == "3.14");
  CHECK(TablePrinter::FormatDouble(2.0, 0) == "2");
  CHECK(TablePrinter::FormatInt(-42) == "-42");

  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", TablePrinter::FormatInt(1)});
  table.AddRow({"beta"});  // short rows pad
  std::ostringstream pretty, csv;
  table.Print(pretty);
  table.Dump(csv);
  CHECK(pretty.str().find("alpha") != std::string::npos);
  CHECK(pretty.str().find("name") != std::string::npos);
  CHECK(csv.str() == "name,value\nalpha,1\nbeta,\n");
}

TEST(SpanViewsAndSubspans) {
  const std::vector<int64_t> v = {10, 20, 30, 40, 50};
  Span<const int64_t> span = v;  // implicit from vector
  CHECK(span.size() == 5);
  CHECK(!span.empty());
  CHECK(span[0] == 10 && span[4] == 50);
  CHECK(span.data() == v.data());  // a view, not a copy
  int64_t sum = 0;
  for (const int64_t x : span) sum += x;
  CHECK(sum == 150);

  // Pointer+length and C-array construction.
  CHECK(Span<const int64_t>(v.data() + 1, 3)[0] == 20);
  const int64_t raw[] = {7, 8};
  CHECK(Span<const int64_t>(raw).size() == 2);

  // Subspans clamp instead of overrunning.
  CHECK(span.subspan(1, 2).size() == 2);
  CHECK(span.subspan(1, 2)[0] == 20);
  CHECK(span.subspan(3, 100).size() == 2);
  CHECK(span.subspan(100, 1).empty());
  CHECK(Span<const int64_t>().empty());
}

TEST(HardwareParallelismClampsRequests) {
  // The override steers both accessors, so the clamp is testable on any
  // container.  EffectiveParallelism clamps a request to the hardware and
  // never returns less than 1.
  SetHardwareParallelismForTesting(6);
  CHECK(HardwareParallelism() == 6);
  CHECK(EffectiveParallelism(8) == 6);
  CHECK(EffectiveParallelism(2) == 2);

  SetHardwareParallelismForTesting(4);
  CHECK(EffectiveParallelism(8) == 4);
  CHECK(EffectiveParallelism(4) == 4);
  CHECK(EffectiveParallelism(2) == 2);
  CHECK(EffectiveParallelism(0) == 1);

  SetHardwareParallelismForTesting(0);
  CHECK(HardwareParallelism() >= 0);
  CHECK(EffectiveParallelism(1) == 1);
}

}  // namespace
}  // namespace fasthist
