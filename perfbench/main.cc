// perfbench: the repository benchmark.  One load-generator process forks a
// ShardedIngestServer child (2 worker loops, default options), drives it
// over loopback with 2 closed-loop IngestClient connections, and checks the
// server's outputs against an offline replay.  With --trace 1 it then
// replays the same operations in-process and reports per-layer costs.
//
//   perfbench --workload <ingest_hot|ingest_wide|query_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--spans-out <path>]
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end (--trace 0) or per-layer (--trace 1) metrics.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/live_run.h"
#include "perfbench/stats.h"
#include "perfbench/traced_run.h"
#include "perfbench/workload.h"

namespace fasthist {
namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kIngestHot;
  uint64_t seed = 1;
  double seconds = 5.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0.0;
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

void PrintJson(bool correct, const OpTally& tally,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// The end-to-end metrics (see README.md for their definitions).  Timed
// metrics are medians over the quiet windows of all timed phases, the
// others medians over the phases (setup_s: over the quiet setups).
// ingest_hot and ingest_wide send no reads under load; their read round
// trips come from the read-timing windows on the quiescent server.
std::vector<Metric> EndToEnd(const LiveResult& live) {
  const auto phase_median = [&live](double (*field)(const TimedRun&)) {
    std::vector<double> values;
    for (const TimedRun& run : live.runs) values.push_back(field(run));
    return Median(values);
  };
  return {
      {"ingest_msamples_per_s", WindowMedian(live, kSamplesPerS) / 1e6,
       "Msamples/s"},
      {"ingest_rtt_p50_us", WindowMedian(live, kIngestP50), "us"},
      {"commit_rtt_p50_us", WindowMedian(live, kCommitP50), "us"},
      {"query_rtt_p50_us", WindowMedian(live, kQueryP50), "us"},
      {"pull_rtt_p50_us", WindowMedian(live, kPullP50), "us"},
      {"requests_per_s", WindowMedian(live, kRequestsPerS), "req/s"},
      {"server_cpu_ns_per_sample", WindowMedian(live, kCpuNsPerSample), "ns"},
      {"server_cpu_us_per_request", WindowMedian(live, kCpuUsPerRequest),
       "us"},
      {"server_rss_mb",
       phase_median([](const TimedRun& r) { return r.server_rss_mb; }), "MB"},
      {"setup_s", live.setup_median_s, "s"},
      {"quantile_rank_error",
       phase_median([](const TimedRun& r) { return r.rank_error; }),
       "fraction"},
  };
}

void PrintContext(const Args& args, const LiveResult& live) {
  std::printf("perfbench %s seed=%llu: %zu timed phases of %g s\n",
              WorkloadName(args.workload),
              static_cast<unsigned long long>(args.seed), live.runs.size(),
              args.seconds / static_cast<double>(live.runs.size()));
  std::printf("  setups (s, host steal)");
  for (size_t i = 0; i < live.setup_s.size(); ++i) {
    std::printf(" %.4f (%.0f%%)", live.setup_s[i], 100.0 * live.setup_steal[i]);
  }
  std::printf("\n");
  for (size_t i = 0; i < live.runs.size(); ++i) {
    const TimedRun& run = live.runs[i];
    std::printf("  phase %zu: %.3f s, %zu loaded windows measured, "
                "after %.1f s waiting for a quiet host (probe steal %.1f%%)\n",
                i, run.wall_s, run.windows_measured, run.quiet_wait_s,
                100.0 * run.probe_steal);
    std::printf("    window steal (%%)");
    for (const Window& w : run.windows) {
      std::printf(" %.0f", 100.0 * w.steal_share);
    }
    std::printf("\n");
    std::printf("    ingest rtt  %s\n", FormatTiming(run.ingest, "us").c_str());
    std::printf("    commit rtt  %s\n", FormatTiming(run.commit, "us").c_str());
    std::printf("    query rtt   %s\n", FormatTiming(run.query, "us").c_str());
    std::printf("    pull rtt    %s\n", FormatTiming(run.pull, "us").c_str());
    std::printf("    any read    %s\n",
                FormatTiming(run.timed_read, "us").c_str());
    std::printf("    idle query  %s\n",
                FormatTiming(run.probe_query, "us").c_str());
    std::printf("    idle pull   %s\n",
                FormatTiming(run.probe_pull, "us").c_str());
    std::printf("    whole-phase totals: %.0f req/s, %.4f Msamples/s\n",
                Ratio(static_cast<double>(run.requests), run.wall_s),
                Ratio(static_cast<double>(run.samples_accepted), run.wall_s) /
                    1e6);
    const ServerStats& a = run.stats_after;
    const ServerStats& b = run.stats_before;
    std::printf(
        "    context: host steal %.1f%%, server context switches %llu "
        "voluntary / %llu involuntary, flushes %llu size / %llu deadline, "
        "max partition depth %llu, shed %llu\n",
        100.0 * run.steal_share,
        static_cast<unsigned long long>(run.voluntary_switches),
        static_cast<unsigned long long>(run.involuntary_switches),
        static_cast<unsigned long long>(a.flushes_size - b.flushes_size),
        static_cast<unsigned long long>(a.flushes_deadline -
                                        b.flushes_deadline),
        static_cast<unsigned long long>(a.max_queue_depth),
        static_cast<unsigned long long>(a.samples_shed - b.samples_shed));
    std::printf("    failed_op_share = %.6g fraction (%llu of %llu "
                "operations); replay check: %llu mismatching keys%s%s\n",
                run.tally.failed_share(),
                static_cast<unsigned long long>(run.tally.failed),
                static_cast<unsigned long long>(run.tally.attempted),
                static_cast<unsigned long long>(run.replay_mismatches),
                run.first_error.empty() ? "" : "; first error: ",
                run.first_error.c_str());
  }
  std::vector<double> loaded_steal;
  for (const TimedRun& run : live.runs) {
    for (const Window& w : run.windows) {
      if (!std::isnan(w.value[kSamplesPerS])) {
        loaded_steal.push_back(w.steal_share);
      }
    }
  }
  std::printf("  load metrics taken over the %zu quiet windows of %zu loaded "
              "ones; setup_s over %zu quiet setups of %zu\n",
              QuietIndices(loaded_steal).size(), loaded_steal.size(),
              QuietIndices(live.setup_steal).size(), live.setup_s.size());
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <ingest_hot|ingest_wide|"
                 "query_mix> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n");
    return 2;
  }
  // Fork the servers first: before any input exists and before any thread.
  auto children = ServerChildren::Fork(kSetupRepeats);
  if (!children.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", children.status().message().c_str());
    return 1;
  }
  const WorkloadInputs inputs = WorkloadInputs::Generate(args.workload, args.seed);
  auto live = RunLive(*children, inputs, args.seconds);
  if (!live.ok()) {
    std::fprintf(stderr, "perfbench: live run failed: %s\n",
                 live.status().message().c_str());
    return 1;
  }
  PrintContext(args, *live);
  const std::vector<Metric> end_to_end = EndToEnd(*live);
  PrintMetrics("end-to-end metrics", end_to_end);
  OpTally tally;
  bool correct = true;
  for (const TimedRun& run : live->runs) {
    tally.Merge(run.tally);
    correct = correct && run.replay_mismatches == 0 && run.first_error.empty();
  }

  if (!args.trace) {
    std::fflush(stdout);
    PrintJson(correct, tally, end_to_end);
    return correct ? 0 : 1;
  }
  auto traced = RunTraced(inputs, *live, args.spans_out);
  if (!traced.ok()) {
    std::fprintf(stderr, "perfbench: traced run failed: %s\n",
                 traced.status().message().c_str());
    return 1;
  }
  std::printf(
      "traced replay: %llu ops, %llu timed samples; empty span %.1f ns "
      "subtracted; %zu spans kept (%llu not kept)%s%s; decomposition %s\n",
      static_cast<unsigned long long>(traced->replayed_ops),
      static_cast<unsigned long long>(traced->replayed_samples),
      traced->empty_span_ns, traced->spans_written,
      static_cast<unsigned long long>(traced->spans_dropped),
      args.spans_out.empty() ? "" : " -> ", args.spans_out.c_str(),
      traced->decomposition_matches ? "matches the store bit for bit"
                                    : "DIFFERS from the store");
  PrintMetrics("per-layer metrics", traced->metrics);
  correct = correct && traced->decomposition_matches;
  std::fflush(stdout);
  PrintJson(correct, tally, traced->metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace fasthist

int main(int argc, char** argv) {
  return fasthist::perfbench::Main(argc, argv);
}
