#include "perfbench/live_run.h"

#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>

#include "net/client.h"
#include "net/sharded_ingest_server.h"
#include "util/clock.h"

namespace fasthist {
namespace perfbench {
namespace {

constexpr int kCommandTimeoutMs = 60 * 1000;

// --- /proc readers ----------------------------------------------------------

// Sums `field` lines ("name:   value") of /proc/<pid>/task/*/status, or the
// first number of /proc/<pid>/task/*/schedstat when field is empty.
uint64_t SumOverTasks(pid_t pid, const char* file, const char* field) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = opendir(dir.c_str());
  if (tasks == nullptr) return 0;
  uint64_t sum = 0;
  while (struct dirent* entry = readdir(tasks)) {
    if (entry->d_name[0] == '.') continue;
    const std::string path = dir + "/" + entry->d_name + "/" + file;
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) continue;
    char line[256];
    const size_t field_len = std::strlen(field);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (field_len == 0) {
        sum += std::strtoull(line, nullptr, 10);
        break;
      }
      if (std::strncmp(line, field, field_len) == 0) {
        sum += std::strtoull(line + field_len, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
  }
  closedir(tasks);
  return sum;
}

uint64_t TaskCpuNanos(pid_t pid) { return SumOverTasks(pid, "schedstat", ""); }

double PeakRssMb(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/status";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

// (steal ticks, all ticks) of the host-wide "cpu" line of /proc/stat.
std::pair<uint64_t, uint64_t> StealTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  unsigned long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  uint64_t all = 0;
  for (const unsigned long long x : v) all += x;
  return {v[7], all};
}

// --- CPU placement ----------------------------------------------------------

// The server child and each client connection get CPUs of their own, the
// same in every phase: the first two CPUs this process may use run the
// server's threads, the next two one client connection each.  Unpinned, a
// fresh server places its threads anew in every phase, and how far a
// client sits from its loop moved every round trip by up to 10 % from one
// phase to the next.  With fewer than 4 usable CPUs nothing is pinned.
constexpr size_t kPinnedCpus = 4;

// The first kPinnedCpus CPUs of this process's affinity mask (empty when
// it has fewer).  Computed once, before the first fork.
const std::vector<int>& Placement() {
  static const std::vector<int> cpus = [] {
    std::vector<int> usable;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return usable;
    for (int cpu = 0; cpu < CPU_SETSIZE && usable.size() < kPinnedCpus; ++cpu) {
      if (CPU_ISSET(cpu, &set)) usable.push_back(cpu);
    }
    if (usable.size() < kPinnedCpus) usable.clear();
    return usable;
  }();
  return cpus;
}

// Pins the calling thread (and the threads it creates afterwards) to
// Placement()[first, first + count).
void PinCallingThread(size_t first, size_t count) {
  const std::vector<int>& cpus = Placement();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (size_t i = first; i < first + count; ++i) CPU_SET(cpus[i], &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

void PinServer() { PinCallingThread(0, 2); }
void PinClient(int conn) { PinCallingThread(2 + static_cast<size_t>(conn), 1); }

// --- The server child -------------------------------------------------------

bool WaitReadable(int fd, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = POLLIN;
  p.revents = 0;
  return poll(&p, 1, timeout_ms) == 1;
}

[[noreturn]] void ChildMain(int control_fd, int port_fd, pid_t parent) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(1);
  char command = 0;
  if (read(control_fd, &command, 1) != 1 || command != 'g') _exit(0);
  PinServer();

  ShardedIngestServerOptions options;  // default IngestServerOptions
  options.num_loops = static_cast<int>(kLoops);
  std::unique_ptr<ShardedIngestServer> server;
  uint16_t port = 0;
  if (auto created = ShardedIngestServer::Create(options); created.ok()) {
    server = std::move(created).value();
    if (server->Start().ok()) port = server->port();
  }
  if (write(port_fd, &port, sizeof(port)) != sizeof(port)) _exit(1);
  (void)read(control_fd, &command, 1);  // 'q', or EOF if the parent died
  if (server != nullptr) (void)server->Shutdown();
  server.reset();
  _exit(0);
}

void Reap(pid_t pid) {
  // A graceful shutdown takes milliseconds; give it a generous bound, then
  // make sure the child is gone.
  for (int i = 0; i < 2000; ++i) {
    if (waitpid(pid, nullptr, WNOHANG) == pid) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
}

// On a shared virtual machine, host steal (time the hypervisor gives the
// guest's CPUs to others) comes in episodes of seconds to minutes, and
// during one every timed number of a run moves by 10-50 % (4-vCPU KVM guest
// on a Xeon host).  Before each timed phase the benchmark therefore spins
// every CPU for kStealProbeNanos and reads the steal share; above
// kQuietSteal it sleeps a second and probes again, for at most
// kMaxQuietWaitSeconds over the whole run, then measures regardless.  The
// metrics are then taken over the quiet windows only (QuietIndices).
constexpr uint64_t kStealProbeNanos = 200 * 1000 * 1000;
constexpr double kQuietSteal = 0.02;
constexpr double kMaxQuietWaitSeconds = 10.0;

double StealShare(const std::pair<uint64_t, uint64_t>& before,
                  const std::pair<uint64_t, uint64_t>& after) {
  const uint64_t ticks = after.second - before.second;
  return ticks == 0 ? 0.0
                    : static_cast<double>(after.first - before.first) /
                          static_cast<double>(ticks);
}

// Host steal share while one thread per CPU spins for kStealProbeNanos.
double ProbeSteal() {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<bool> stop{false};
  const auto before = StealTicks();
  std::vector<std::thread> spinners;
  for (unsigned i = 0; i < cpus; ++i) {
    spinners.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(kStealProbeNanos));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners) t.join();
  return StealShare(before, StealTicks());
}

// Waits (at most *budget_s, which it reduces) for a probe that sees little
// host steal.
void WaitForQuietHost(double* budget_s, double* waited_s,
                      double* probe_steal) {
  const uint64_t start = MonotonicNanos();
  for (;;) {
    *probe_steal = ProbeSteal();
    *waited_s = static_cast<double>(MonotonicNanos() - start) / 1e9;
    if (*probe_steal <= kQuietSteal || *waited_s >= *budget_s) break;
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  *budget_s = std::max(0.0, *budget_s - *waited_s);
}

// --- Client side ------------------------------------------------------------

// Each timed phase is cut into windows of this length.  Every timed
// end-to-end metric is first computed per window; the run reports the
// median over the quiet windows of all its phases, so the seconds in which
// the host took the CPU away move it little.  At 4 vCPUs a window spans
// 100 ticks of /proc/stat, so its steal share has a resolution of 1 %.
constexpr uint64_t kWindowNanos = 250 * 1000 * 1000;
// Read-timing windows after each loaded phase of the ingest workloads.
constexpr size_t kReadWindows = 4;

enum class OpClass : uint8_t { kIngest, kCommit, kQuery, kPull, kBarrierRead };

// One completed client call of the timed phase.
struct OpRecord {
  float rtt_us;
  uint16_t window;  // the window it ended in
  uint16_t samples;   // accepted samples (ingests)
  uint8_t requests;   // client calls it took (a barrier takes one per partition)
  OpClass op_class;
};

struct ClientLog {
  std::vector<OpRecord> records;
  uint64_t ops_done = 0;
  uint64_t stop_ns = 0;  // when the connection's last operation ended
  OpTally tally;
  // ACKs that did not accept their whole batch, by ingest index.
  std::unordered_map<uint64_t, IngestAck> partial_acks;
  std::string error;
};

class WindowClock {
 public:
  explicit WindowClock(uint64_t start_ns) : start_ns_(start_ns) {}
  uint16_t WindowOf(uint64_t t_ns) const {
    const uint64_t window = (t_ns - start_ns_) / kWindowNanos;
    return static_cast<uint16_t>(std::min<uint64_t>(window, 0xffff));
  }

 private:
  uint64_t start_ns_;
};

void Record(ClientLog* log, const WindowClock& clock, OpClass op_class,
            uint64_t start_ns, uint64_t samples, uint8_t requests) {
  const uint64_t end_ns = MonotonicNanos();
  log->records.push_back(OpRecord{
      static_cast<float>(static_cast<double>(end_ns - start_ns) / 1e3),
      clock.WindowOf(end_ns), static_cast<uint16_t>(samples), requests,
      op_class});
}

// One commit barrier: a Quantile on each partition's barrier key, which
// drains and flushes that partition.  Returns false on a failed call.
bool Barrier(IngestClient& client, const std::vector<uint64_t>& keys,
             const WindowClock* clock, ClientLog* log) {
  for (const uint64_t key : keys) {
    const uint64_t start = MonotonicNanos();
    auto reply = client.Quantile(key, 0.5);
    if (log != nullptr) {
      log->tally.Add(reply.ok());
      if (!reply.ok()) log->error = reply.status().message();
      if (reply.ok()) Record(log, *clock, OpClass::kBarrierRead, start, 0, 0);
    }
    if (!reply.ok()) return false;
  }
  return true;
}

Status RunSetupConnection(IngestClient& client, const WorkloadInputs& inputs,
                          int conn) {
  for (const std::vector<KeyedSample>& batch : inputs.setup_batches(conn)) {
    auto result = client.Ingest(batch);
    if (!result.ok()) return result.status();
    if (result->rejected || AckFailed(result->ack, batch.size())) {
      return Status::Invalid("perfbench: setup batch not fully accepted");
    }
    if (!Barrier(client, inputs.barrier_keys(conn), nullptr, nullptr)) {
      return Status::Invalid("perfbench: setup barrier failed");
    }
  }
  return Status::Ok();
}

// Connects both clients and runs every connection's setup in parallel.
StatusOr<std::vector<IngestClient>> ConnectAndSetup(
    uint16_t port, const WorkloadInputs& inputs) {
  std::vector<IngestClient> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = IngestClient::Connect("127.0.0.1", port);
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client).value());
  }
  std::vector<Status> results(kConnections, Status::Ok());
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PinClient(c);
      results[static_cast<size_t>(c)] =
          RunSetupConnection(clients[static_cast<size_t>(c)], inputs, c);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return clients;
}

void ClientLoop(IngestClient& client, const WorkloadInputs& inputs, int conn,
                const WindowClock& clock, uint64_t deadline_ns, ClientLog* log) {
  WorkloadInputs::Stream stream = inputs.TimedStream(conn);
  std::vector<KeyedSample> batch;
  batch.reserve(kBatchSamples);
  Op op;
  while (MonotonicNanos() < deadline_ns && stream.Next(&op, &batch)) {
    const uint64_t start = MonotonicNanos();
    switch (op.kind) {
      case OpKind::kIngest: {
        auto result = client.Ingest(batch);
        if (!result.ok()) {
          log->tally.Add(false);
          log->error = result.status().message();
          return;
        }
        const bool failed =
            result->rejected || AckFailed(result->ack, batch.size());
        log->tally.Add(!failed);
        Record(log, clock, OpClass::kIngest, start,
               result->rejected ? 0 : result->ack.accepted, 1);
        if (failed) {
          IngestAck ack = result->ack;
          // A kRejected reply accepted nothing: mark every partition so, for
          // ReconstructAccepted.
          for (uint32_t p = 0; result->rejected && p < kLoops; ++p) {
            ack.partitions.push_back({p, 0, 0, 0, 1});
          }
          log->partial_acks.emplace(stream.ingests() - 1, std::move(ack));
        }
        break;
      }
      case OpKind::kBarrier: {
        const std::vector<uint64_t>& keys = inputs.barrier_keys(conn);
        if (!Barrier(client, keys, &clock, log)) return;
        Record(log, clock, OpClass::kCommit, start, 0,
               static_cast<uint8_t>(keys.size()));
        break;
      }
      case OpKind::kQuery: {
        auto reply = client.Quantile(op.key, op.q);
        log->tally.Add(reply.ok());
        if (!reply.ok()) {
          log->error = reply.status().message();
          return;
        }
        Record(log, clock, OpClass::kQuery, start, 0, 1);
        break;
      }
      case OpKind::kPull: {
        auto snapshot = client.PullSnapshot(op.key);
        log->tally.Add(snapshot.ok());
        if (!snapshot.ok()) {
          log->error = snapshot.status().message();
          return;
        }
        Record(log, clock, OpClass::kPull, start, 0, 1);
        break;
      }
    }
    log->ops_done = stream.ops();
    log->stop_ns = MonotonicNanos();
  }
}

// Read timing on the quiescent server: one connection cycles over the read
// keys, one pull and the 9 probe quantiles each, until the deadline.
void ReadLoop(IngestClient& client, const std::vector<uint64_t>& keys,
              const WindowClock& clock, uint64_t deadline_ns,
              ClientLog* log) {
  for (size_t k = 0; MonotonicNanos() < deadline_ns;
       k = (k + 1) % keys.size()) {
    uint64_t start = MonotonicNanos();
    auto snapshot = client.PullSnapshot(keys[k]);
    log->tally.Add(snapshot.ok());
    if (!snapshot.ok()) {
      log->error = snapshot.status().message();
      return;
    }
    Record(log, clock, OpClass::kPull, start, 0, 1);
    for (const double q : kProbeQs) {
      start = MonotonicNanos();
      auto reply = client.Quantile(keys[k], q);
      log->tally.Add(reply.ok());
      if (!reply.ok()) {
        log->error = reply.status().message();
        return;
      }
      Record(log, clock, OpClass::kQuery, start, 0, 1);
    }
  }
}

// What the main thread reads at every window boundary while the client
// threads run: the server's CPU time and the host's steal ticks.
struct WindowMarks {
  uint64_t t0 = 0;
  std::vector<uint64_t> cpu_ns;
  std::vector<std::pair<uint64_t, uint64_t>> steal;

  double StealShareOf(size_t window) const {
    return StealShare(steal[window], steal[window + 1]);
  }
};

// Runs each of `bodies` on its own thread for `num_windows` windows and
// marks every window boundary.  A body gets the window clock and the
// deadline.
WindowMarks MeasureWindows(
    pid_t server, size_t num_windows,
    const std::vector<std::function<void(const WindowClock&, uint64_t)>>&
        bodies) {
  WindowMarks marks;
  marks.cpu_ns.reserve(num_windows + 1);
  marks.steal.reserve(num_windows + 1);
  marks.cpu_ns.push_back(TaskCpuNanos(server));
  marks.steal.push_back(StealTicks());
  marks.t0 = MonotonicNanos();
  const WindowClock clock(marks.t0);
  const uint64_t deadline = marks.t0 + num_windows * kWindowNanos;
  std::vector<std::thread> threads;
  for (const auto& body : bodies) {
    threads.emplace_back([&body, &clock, deadline] { body(clock, deadline); });
  }
  for (size_t w = 1; w <= num_windows; ++w) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(marks.t0 + w * kWindowNanos)));
    marks.cpu_ns.push_back(TaskCpuNanos(server));
    marks.steal.push_back(StealTicks());
  }
  for (std::thread& t : threads) t.join();
  return marks;
}

Window EmptyWindow(double steal_share) {
  Window w;
  w.steal_share = steal_share;
  w.value.fill(std::numeric_limits<double>::quiet_NaN());
  return w;
}

}  // namespace

// --- ServerChildren ---------------------------------------------------------

StatusOr<ServerChildren> ServerChildren::Fork(int count) {
  ServerChildren children;
  std::fflush(nullptr);  // the children must not inherit buffered output
  (void)Placement();
  const pid_t parent = getpid();
  for (int i = 0; i < count; ++i) {
    int control[2];
    int port[2];
    if (pipe(control) != 0) return Status::Invalid("perfbench: pipe failed");
    if (pipe(port) != 0) {
      close(control[0]);
      close(control[1]);
      return Status::Invalid("perfbench: pipe failed");
    }
    const pid_t pid = fork();
    if (pid < 0) {
      close(control[0]);
      close(control[1]);
      close(port[0]);
      close(port[1]);
      return Status::Invalid("perfbench: fork failed");
    }
    if (pid == 0) {
      // Keep only this child's own pipe ends.
      for (const Child& other : children.children_) {
        close(other.control_fd);
        close(other.port_fd);
      }
      close(control[1]);
      close(port[0]);
      ChildMain(control[0], port[1], parent);
    }
    close(control[0]);
    close(port[1]);
    children.children_.push_back(Child{pid, control[1], port[0]});
  }
  return children;
}

ServerChildren::ServerChildren(ServerChildren&& other) noexcept
    : children_(std::move(other.children_)) {
  other.children_.clear();
}

ServerChildren::~ServerChildren() {
  for (Child& child : children_) {
    if (child.pid <= 0) continue;
    // EOF on the control pipe stops an idle or serving child.
    close(child.control_fd);
    close(child.port_fd);
    Reap(child.pid);
    child.pid = -1;
  }
}

StatusOr<uint16_t> ServerChildren::Launch(int i) {
  Child& child = children_[static_cast<size_t>(i)];
  const char command = 'g';
  if (write(child.control_fd, &command, 1) != 1) {
    return Status::Invalid("perfbench: cannot launch the server child");
  }
  uint16_t port = 0;
  if (!WaitReadable(child.port_fd, kCommandTimeoutMs) ||
      read(child.port_fd, &port, sizeof(port)) != sizeof(port) || port == 0) {
    return Status::Invalid("perfbench: the server child did not start");
  }
  return port;
}

Status ServerChildren::Stop(int i) {
  Child& child = children_[static_cast<size_t>(i)];
  if (child.pid <= 0) return Status::Ok();
  const char command = 'q';
  (void)write(child.control_fd, &command, 1);
  close(child.control_fd);
  close(child.port_fd);
  Reap(child.pid);
  child.pid = -1;
  return Status::Ok();
}

// --- The run ----------------------------------------------------------------

namespace {

// Launches child `i` and runs the whole setup on it; returns the connected
// clients and adds the setup time and its host steal share to `live`.
StatusOr<std::vector<IngestClient>> LaunchAndSetup(
    ServerChildren& children, int i, const WorkloadInputs& inputs,
    LiveResult* live) {
  const auto steal_before = StealTicks();
  const uint64_t start = MonotonicNanos();
  auto port = children.Launch(i);
  if (!port.ok()) return port.status();
  auto clients = ConnectAndSetup(*port, inputs);
  if (!clients.ok()) return clients.status();
  live->setup_s.push_back(static_cast<double>(MonotonicNanos() - start) / 1e9);
  live->setup_steal.push_back(StealShare(steal_before, StealTicks()));
  return clients;
}

// Per-window p50 of each round-trip class over all `logs`, by the window an
// operation ended in, into (*windows)[first..]; windows at or past
// `num_windows` are not measured.
void AddRoundTrips(const std::vector<ClientLog>& logs, size_t num_windows,
                   std::vector<Window>* windows, size_t first) {
  std::vector<std::array<std::vector<double>, 4>> rtts(num_windows);
  for (const ClientLog& log : logs) {
    for (const OpRecord& r : log.records) {
      if (r.window >= num_windows || r.op_class == OpClass::kBarrierRead) {
        continue;
      }
      rtts[r.window][static_cast<size_t>(r.op_class)].push_back(r.rtt_us);
    }
  }
  constexpr WindowMetric kMetricOf[] = {kIngestP50, kCommitP50, kQueryP50,
                                        kPullP50};
  for (size_t w = 0; w < num_windows; ++w) {
    for (size_t cls = 0; cls < 4; ++cls) {
      if (rtts[w][cls].empty()) continue;
      (*windows)[first + w].value[kMetricOf[cls]] =
          Summarize(std::move(rtts[w][cls])).p50;
    }
  }
}

// One timed phase on a set-up server, then its probe phase, the replay
// check and (ingest workloads) the read timing.  `wait_budget_s` is what is
// left of the run's wait for a quiet host.
StatusOr<TimedRun> RunTimed(pid_t server, std::vector<IngestClient>& clients,
                            const WorkloadInputs& inputs, double seconds,
                            double* wait_budget_s) {
  TimedRun result;
  WaitForQuietHost(wait_budget_s, &result.quiet_wait_s, &result.probe_steal);

  auto before = clients[0].Stats();
  if (!before.ok()) return before.status();
  result.stats_before = *before;
  const uint64_t vol_before =
      SumOverTasks(server, "status", "voluntary_ctxt_switches:");
  const uint64_t invol_before =
      SumOverTasks(server, "status", "nonvoluntary_ctxt_switches:");
  std::vector<ClientLog> logs(kConnections);
  for (ClientLog& log : logs) log.records.reserve(1 << 18);

  const size_t num_windows = std::max<size_t>(
      1, static_cast<size_t>(seconds * 1e9 / static_cast<double>(kWindowNanos)));
  std::vector<std::function<void(const WindowClock&, uint64_t)>> bodies;
  for (int c = 0; c < kConnections; ++c) {
    bodies.push_back([&, c](const WindowClock& clock, uint64_t deadline) {
      PinClient(c);
      ClientLoop(clients[static_cast<size_t>(c)], inputs, c, clock, deadline,
                 &logs[static_cast<size_t>(c)]);
    });
  }
  const WindowMarks marks = MeasureWindows(server, num_windows, bodies);
  const uint64_t t0 = marks.t0;
  const uint64_t t1 = MonotonicNanos();
  result.voluntary_switches =
      SumOverTasks(server, "status", "voluntary_ctxt_switches:") - vol_before;
  result.involuntary_switches =
      SumOverTasks(server, "status", "nonvoluntary_ctxt_switches:") -
      invol_before;
  result.wall_s = static_cast<double>(t1 - t0) / 1e9;
  result.steal_share = StealShare(marks.steal.front(), marks.steal.back());

  // A bounded stream (ingest_wide) may run dry before the deadline; only
  // the windows that ended before the first connection stopped measured a
  // loaded server.
  uint64_t first_stop = t1;
  for (const ClientLog& log : logs) first_stop = std::min(first_stop, log.stop_ns);
  size_t full_windows = 0;
  while (full_windows < num_windows &&
         t0 + (full_windows + 1) * kWindowNanos <= first_stop) {
    ++full_windows;
  }
  full_windows = std::max<size_t>(full_windows, 1);

  for (size_t i = 0; i < full_windows; ++i) {
    result.windows.push_back(EmptyWindow(marks.StealShareOf(i)));
  }
  std::vector<uint64_t> samples(full_windows, 0);
  std::vector<uint64_t> requests(full_windows, 0);
  std::array<std::vector<double>, 5> rtts;
  std::vector<double> reads;
  for (int c = 0; c < kConnections; ++c) {
    const ClientLog& log = logs[static_cast<size_t>(c)];
    for (const OpRecord& r : log.records) {
      result.samples_accepted += r.samples;
      result.requests += r.requests;
      rtts[static_cast<size_t>(r.op_class)].push_back(r.rtt_us);
      if (r.op_class == OpClass::kQuery || r.op_class == OpClass::kPull ||
          r.op_class == OpClass::kBarrierRead) {
        reads.push_back(r.rtt_us);
      }
      if (r.window >= full_windows) continue;
      samples[r.window] += r.samples;
      requests[r.window] += r.requests;
    }
    result.ops_done[static_cast<size_t>(c)] = log.ops_done;
    result.tally.Merge(log.tally);
    if (result.first_error.empty()) result.first_error = log.error;
  }
  AddRoundTrips(logs, full_windows, &result.windows, 0);
  const double window_s = static_cast<double>(kWindowNanos) / 1e9;
  for (size_t i = 0; i < full_windows; ++i) {
    auto& v = result.windows[i].value;
    const double cpu =
        static_cast<double>(marks.cpu_ns[i + 1] - marks.cpu_ns[i]);
    v[kSamplesPerS] = static_cast<double>(samples[i]) / window_s;
    v[kRequestsPerS] = static_cast<double>(requests[i]) / window_s;
    if (samples[i] > 0) {
      v[kCpuNsPerSample] = cpu / static_cast<double>(samples[i]);
    }
    if (requests[i] > 0) {
      v[kCpuUsPerRequest] = cpu / 1e3 / static_cast<double>(requests[i]);
    }
  }
  result.windows_measured = full_windows;
  result.ingest = Summarize(std::move(rtts[0]));
  result.commit = Summarize(std::move(rtts[1]));
  result.query = Summarize(std::move(rtts[2]));
  result.pull = Summarize(std::move(rtts[3]));
  result.timed_read = Summarize(std::move(reads));

  auto after = clients[0].Stats();
  if (!after.ok()) return after.status();
  result.stats_after = *after;

  // Probe phase, on the now quiescent server: pull every probe key and ask
  // its quantiles.  The check keys (a subset) keep their pulled snapshots
  // for the replay check.
  IngestClient& prober = clients[0];
  const std::vector<uint64_t>& checks = inputs.check_keys();
  const std::vector<uint64_t>& probes = inputs.probe_keys();
  std::unordered_map<uint64_t, ShardSnapshot> served;
  for (const uint64_t key : checks) served[key] = ShardSnapshot();
  std::vector<std::vector<int64_t>> served_quantiles(probes.size());
  for (size_t k = 0; k < probes.size(); ++k) {
    auto snapshot = prober.PullSnapshot(probes[k]);
    result.tally.Add(snapshot.ok());
    if (snapshot.ok()) {
      auto it = served.find(probes[k]);
      if (it != served.end()) it->second = std::move(snapshot).value();
    } else if (result.first_error.empty()) {
      result.first_error = snapshot.status().message();
    }
    for (const double q : kProbeQs) {
      auto reply = prober.Quantile(probes[k], q);
      result.tally.Add(reply.ok());
      if (!reply.ok()) {
        if (result.first_error.empty()) {
          result.first_error = reply.status().message();
        }
        break;
      }
      served_quantiles[k].push_back(reply->value);
    }
  }

  // The ingest workloads send no reads under load; their read round trips
  // are timed here, on the quiescent server, in windows of their own.
  if (inputs.workload() != Workload::kQueryMix) {
    std::vector<ClientLog> read_logs(1);
    ClientLog& log = read_logs[0];
    const WindowMarks read_marks = MeasureWindows(
        server, kReadWindows,
        {[&](const WindowClock& clock, uint64_t deadline) {
          PinClient(0);
          ReadLoop(prober, inputs.read_keys(), clock, deadline, &log);
        }});
    const size_t first = result.windows.size();
    for (size_t i = 0; i < kReadWindows; ++i) {
      result.windows.push_back(EmptyWindow(read_marks.StealShareOf(i)));
    }
    AddRoundTrips(read_logs, kReadWindows, &result.windows, first);
    std::array<std::vector<double>, 4> read_rtts;
    for (const OpRecord& r : log.records) {
      read_rtts[static_cast<size_t>(r.op_class)].push_back(r.rtt_us);
    }
    result.probe_query = Summarize(std::move(read_rtts[2]));
    result.probe_pull = Summarize(std::move(read_rtts[3]));
    result.tally.Merge(log.tally);
    if (result.first_error.empty()) result.first_error = log.error;
  }
  result.server_rss_mb = PeakRssMb(server);

  // Offline replay of the accepted samples: the check keys' snapshots must
  // match it byte for byte, and the scored keys' exact CDFs come from it.
  struct Slot {
    int check = -1;
    int score = -1;
  };
  std::unordered_map<uint64_t, Slot> slots;
  for (size_t k = 0; k < checks.size(); ++k) {
    slots[checks[k]].check = static_cast<int>(k);
  }
  for (size_t k = 0; k < probes.size(); ++k) {
    if (inputs.MayCondense(probes[k])) slots[probes[k]].score = static_cast<int>(k);
  }
  auto offline = SummaryStore::Create(ArchetypeConfig());
  if (!offline.ok()) return offline.status();
  const int64_t domain = ArchetypeConfig().domain_size;
  std::vector<std::vector<int64_t>> counts(
      probes.size(), std::vector<int64_t>(static_cast<size_t>(domain), 0));
  std::vector<KeyedSample> kept;
  const auto take = [&](Span<const KeyedSample> samples) -> Status {
    kept.clear();
    for (const KeyedSample& s : samples) {
      auto it = slots.find(s.key);
      if (it == slots.end()) continue;
      if (it->second.check >= 0) kept.push_back(s);
      if (it->second.score >= 0) {
        ++counts[static_cast<size_t>(it->second.score)]
                [static_cast<size_t>(s.value)];
      }
    }
    return kept.empty() ? Status::Ok() : offline->AddBatch(kept);
  };
  for (int c = 0; c < kConnections; ++c) {
    for (const std::vector<KeyedSample>& batch : inputs.setup_batches(c)) {
      if (Status s = take(batch); !s.ok()) return s;
    }
    const ClientLog& log = logs[static_cast<size_t>(c)];
    WorkloadInputs::Stream stream = inputs.TimedStream(c);
    std::vector<KeyedSample> batch;
    Op op;
    while (stream.ops() < log.ops_done && stream.Next(&op, &batch)) {
      if (op.kind != OpKind::kIngest) continue;
      auto partial = log.partial_acks.find(stream.ingests() - 1);
      Status s = partial == log.partial_acks.end()
                     ? take(batch)
                     : take(ReconstructAccepted(batch, partial->second, kLoops));
      if (!s.ok()) return s;
    }
  }
  for (size_t k = 0; k < checks.size(); ++k) {
    auto expected = offline->ExportKeyedSnapshot(checks[k], 0);
    const bool match =
        expected.ok() && SnapshotsMatch(served[checks[k]], *expected);
    result.tally.Add(match);
    if (!match) ++result.replay_mismatches;
  }
  double rank_error_sum = 0.0;
  size_t rank_error_n = 0;
  for (size_t k = 0; k < probes.size(); ++k) {
    if (!inputs.MayCondense(probes[k])) continue;
    const ExactCdf cdf = ExactCdf::FromCounts(counts[k]);
    if (cdf.total == 0) continue;
    for (size_t qi = 0; qi < served_quantiles[k].size(); ++qi) {
      rank_error_sum += RankError(cdf, served_quantiles[k][qi], kProbeQs[qi]);
      ++rank_error_n;
    }
  }
  result.rank_error =
      rank_error_n == 0 ? 0.0
                        : rank_error_sum / static_cast<double>(rank_error_n);
  return result;
}

}  // namespace

double WindowMedian(const LiveResult& live, WindowMetric metric) {
  std::vector<double> steal;
  std::vector<double> values;
  for (const TimedRun& run : live.runs) {
    for (const Window& w : run.windows) {
      if (std::isnan(w.value[metric])) continue;
      steal.push_back(w.steal_share);
      values.push_back(w.value[metric]);
    }
  }
  return QuietMedian(steal, values);
}

StatusOr<LiveResult> RunLive(ServerChildren& children,
                             const WorkloadInputs& inputs, double seconds) {
  LiveResult result;
  double wait_budget_s = kMaxQuietWaitSeconds;
  for (int i = 0; i < children.count(); ++i) {
    auto clients = LaunchAndSetup(children, i, inputs, &result);
    if (!clients.ok()) return clients.status();
    if (i % kSetupsPerPhase == kSetupsPerPhase - 1) {
      auto timed = RunTimed(children.pid(i), *clients, inputs,
                            seconds / kTimedPhases, &wait_budget_s);
      if (!timed.ok()) return timed.status();
      result.runs.push_back(std::move(timed).value());
    }
    for (IngestClient& client : *clients) client.Close();
    if (Status s = children.Stop(i); !s.ok()) return s;
  }
  result.setup_median_s = QuietMedian(result.setup_steal, result.setup_s);
  return result;
}

}  // namespace perfbench
}  // namespace fasthist
