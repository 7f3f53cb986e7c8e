#ifndef FASTHIST_UTIL_PARALLEL_H_
#define FASTHIST_UTIL_PARALLEL_H_

namespace fasthist {

// The machine's usable parallelism, for reporting how many threads a
// measurement actually had (bench_service's `threads_effective`).  Every
// library call runs on its caller's thread; the server's event loops are
// the only threads the library starts.

// min(requested, hardware concurrency, cgroup CPU quota), at least 1.  A
// thread count above what the machine (or the container's CPU limit —
// hardware_concurrency reports the *host's* cores under a quota) can
// actually run only adds context switching, never speed, so it is treated
// as "all cores".  When both are unknown the request is trusted as-is.
int EffectiveParallelism(int requested);

// The machine's usable parallelism as EffectiveParallelism sees it —
// hardware concurrency clamped by any cgroup CPU quota, and by the test
// override when set.  0 when the hardware is unknown (EffectiveParallelism
// then trusts requests as-is).
int HardwareParallelism();

// Test-only override of the hardware concurrency EffectiveParallelism
// sees (0 restores the real value), so the clamp is testable on any
// machine; never used outside tests.
void SetHardwareParallelismForTesting(int value);

}  // namespace fasthist

#endif  // FASTHIST_UTIL_PARALLEL_H_
