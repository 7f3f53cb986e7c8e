#ifndef FASTHIST_PERFBENCH_LIVE_RUN_H_
#define FASTHIST_PERFBENCH_LIVE_RUN_H_

// The live run: a ShardedIngestServer in a forked child process, driven over
// loopback by closed-loop IngestClient connections, with the server's
// outputs checked against an offline replay of what the ACKs accepted.

#include <sys/types.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"
#include "perfbench/stats.h"
#include "perfbench/workload.h"
#include "util/status.h"

namespace fasthist {
namespace perfbench {

// Server children, forked before any input is generated (so the server's
// peak RSS holds none of the generator's memory) and before any thread
// exists.  Each child idles until launched, then serves until stopped.
class ServerChildren {
 public:
  static StatusOr<ServerChildren> Fork(int count);

  ServerChildren(ServerChildren&& other) noexcept;
  ServerChildren& operator=(ServerChildren&&) = delete;
  ServerChildren(const ServerChildren&) = delete;
  ServerChildren& operator=(const ServerChildren&) = delete;
  // Stops every child still running and waits for it.
  ~ServerChildren();

  int count() const { return static_cast<int>(children_.size()); }
  // Makes child i build and start its server; returns the bound port.
  StatusOr<uint16_t> Launch(int i);
  // Gracefully shuts child i's server down and reaps the process.
  Status Stop(int i);
  pid_t pid(int i) const { return children_[static_cast<size_t>(i)].pid; }

 private:
  struct Child {
    pid_t pid = -1;
    int control_fd = -1;  // parent -> child commands
    int port_fd = -1;     // child -> parent bound port
  };
  ServerChildren() = default;

  std::vector<Child> children_;
};

// Timed phases per run, and setups per run: every kSetupsPerPhase-th setup
// is followed by a timed phase, the others only time the setup, so the
// setups sample the host over the whole run.
constexpr int kTimedPhases = 4;
constexpr int kSetupsPerPhase = 3;
constexpr int kSetupRepeats = kTimedPhases * kSetupsPerPhase;

// The end-to-end metrics computed per window of a timed phase.
enum WindowMetric {
  kSamplesPerS,
  kRequestsPerS,
  kIngestP50,
  kCommitP50,
  kQueryP50,
  kPullP50,
  kCpuNsPerSample,
  kCpuUsPerRequest,
  kNumWindowMetrics
};

// One window of a timed phase.
struct Window {
  double steal_share = 0.0;  // host steal over the window
  // One value per WindowMetric; NaN where the window measured no such
  // thing (a round-trip class it saw no call of, or the load metrics of a
  // read-timing window).
  std::array<double, kNumWindowMetrics> value;
};

// Everything one timed phase measured.
struct TimedRun {
  double wall_s = 0.0;
  uint64_t samples_accepted = 0;
  uint64_t requests = 0;
  double steal_share = 0.0;  // host steal over the loaded part of the phase
  double quiet_wait_s = 0.0;  // waited for a quiet host before the phase
  double probe_steal = 0.0;   // host steal of the last probe before it
  size_t windows_measured = 0;  // loaded windows
  // The loaded windows, then (ingest workloads) the read-timing windows.
  std::vector<Window> windows;
  // Whole-phase round trips, printed with their tails as context.
  TimingSummary ingest;      // Ingest() round trips
  TimingSummary commit;      // whole commit barriers
  TimingSummary query;       // Quantile() round trips outside barriers
  TimingSummary pull;        // PullSnapshot() round trips
  TimingSummary timed_read;  // every read call, barrier queries included
  // Read timing after the load (ingest workloads), quiescent server.
  TimingSummary probe_query;
  TimingSummary probe_pull;
  uint64_t voluntary_switches = 0;  // server threads, timed phase
  uint64_t involuntary_switches = 0;
  double server_rss_mb = 0.0;
  ServerStats stats_before;  // kStats at the start of the timed phase
  ServerStats stats_after;   // kStats at its end
  double rank_error = 0.0;
  OpTally tally;
  uint64_t replay_mismatches = 0;
  std::string first_error;
  std::array<uint64_t, kConnections> ops_done{};  // timed ops per connection
};

struct LiveResult {
  std::vector<double> setup_s;      // one per setup
  std::vector<double> setup_steal;  // host steal over each setup
  double setup_median_s = 0.0;      // over the quiet setups
  std::vector<TimedRun> runs;
};

// Median of one window metric over the quiet windows (QuietIndices) among
// those of every timed phase that measured it.
double WindowMedian(const LiveResult& live, WindowMetric metric);

// Runs setup on every child; every kSetupsPerPhase-th child then runs a
// timed phase (together `seconds` long), the probe phase and the replay
// check.
StatusOr<LiveResult> RunLive(ServerChildren& children,
                             const WorkloadInputs& inputs, double seconds);

}  // namespace perfbench
}  // namespace fasthist

#endif  // FASTHIST_PERFBENCH_LIVE_RUN_H_
