#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace fasthist {
namespace {

// Test-only override of the hardware concurrency (0 = use the real value).
std::atomic<int> hardware_parallelism_override{0};

// Best-effort cgroup CPU quota (Linux): in a quota-limited container (e.g.
// a Kubernetes cpu limit of 1.5 on a 16-core node) hardware_concurrency()
// still reports the host's 16 logical cores, but the quota is the real
// bound on useful parallelism — more workers than quota time-slice the
// allowance, the exact oversubscription EffectiveParallelism exists to
// prevent.  Returns ceil(quota / period), or 0 when no quota applies (no
// cgroup, "max", or a non-Linux host where the files don't exist).
int CgroupCpuQuota() {
  // cgroup v2: /sys/fs/cgroup/cpu.max holds "<quota-us|max> <period-us>".
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu.max", "r")) {
    char quota_text[32];
    long long period = 0;
    const int fields = std::fscanf(f, "%31s %lld", quota_text, &period);
    std::fclose(f);
    if (fields == 2 && std::strcmp(quota_text, "max") != 0 && period > 0) {
      const long long quota = std::atoll(quota_text);
      if (quota > 0) {
        return static_cast<int>((quota + period - 1) / period);
      }
    }
  }
  // cgroup v1: cpu.cfs_quota_us (-1 = unlimited) over cpu.cfs_period_us.
  long long quota = -1, period = 0;
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "r")) {
    if (std::fscanf(f, "%lld", &quota) != 1) quota = -1;
    std::fclose(f);
  }
  if (std::FILE* f = std::fopen("/sys/fs/cgroup/cpu/cpu.cfs_period_us", "r")) {
    if (std::fscanf(f, "%lld", &period) != 1) period = 0;
    std::fclose(f);
  }
  if (quota > 0 && period > 0) {
    return static_cast<int>((quota + period - 1) / period);
  }
  return 0;
}

}  // namespace

int HardwareParallelism() {
  const int override_value =
      hardware_parallelism_override.load(std::memory_order_relaxed);
  if (override_value > 0) return override_value;
  // The quota is read once: it cannot change for a running process without
  // the whole cgroup being reconfigured.
  static const int hardware = [] {
    int cores = static_cast<int>(std::thread::hardware_concurrency());
    const int quota = CgroupCpuQuota();
    if (quota > 0 && (cores <= 0 || quota < cores)) cores = quota;
    return std::max(cores, 0);
  }();
  return hardware;
}

int EffectiveParallelism(int requested) {
  requested = std::max(requested, 1);
  const int hardware = HardwareParallelism();
  if (hardware <= 0) return requested;  // unknown hardware: trust the caller
  return std::min(requested, hardware);
}

void SetHardwareParallelismForTesting(int value) {
  hardware_parallelism_override.store(value, std::memory_order_relaxed);
}

}  // namespace fasthist
