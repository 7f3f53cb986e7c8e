#ifndef FASTHIST_PERFBENCH_TRACED_RUN_H_
#define FASTHIST_PERFBENCH_TRACED_RUN_H_

// The traced run: a single-threaded, in-process replay of the operations a
// live run sent, through the same public functions the server calls, in the
// order it calls them.  It reports per-layer self times, counts and
// allocations, and sets them against the live run's own counters.

#include <string>
#include <vector>

#include "perfbench/live_run.h"
#include "perfbench/workload.h"
#include "util/status.h"

namespace fasthist {
namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedResult {
  std::vector<Metric> metrics;
  // The decomposition pass rebuilt every tracked key's summary bit for bit.
  bool decomposition_matches = false;
  uint64_t replayed_ops = 0;
  uint64_t replayed_samples = 0;
  double empty_span_ns = 0.0;
  size_t spans_written = 0;
  uint64_t spans_dropped = 0;
};

// Replays the last timed phase's operations (a bounded prefix of them)
// after an untraced replay of setup, then the probe phase.  Writes the spans
// to `spans_path` when it is not empty.
StatusOr<TracedResult> RunTraced(const WorkloadInputs& inputs,
                                 const LiveResult& live,
                                 const std::string& spans_path);

}  // namespace perfbench
}  // namespace fasthist

#endif  // FASTHIST_PERFBENCH_TRACED_RUN_H_
