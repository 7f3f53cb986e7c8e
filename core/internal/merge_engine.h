#ifndef FASTHIST_CORE_INTERNAL_MERGE_ENGINE_H_
#define FASTHIST_CORE_INTERNAL_MERGE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/merging.h"
#include "dist/sparse_function.h"
#include "poly/poly_merging.h"
#include "util/status.h"

namespace fasthist {
namespace internal {

// How each round finds the m pairs with the largest merged error.  kSort is
// the textbook O(s log s) formulation; kSelect uses nth_element (the
// Theorem 3.4 trick) for O(s) per round and — thanks to the strict
// (error, index) tie-break order — selects exactly the same pair set, so
// the two strategies produce identical outputs.
enum class SelectionStrategy { kSort, kSelect };

// The round loop itself (RunRounds in merge_engine.cc) is generic over a
// policy-owned structure-of-arrays store: the histogram store keeps
// len[]/sum[]/sumsq[] planes and merges statistics with streaming SIMD
// kernels (util/simd.h), the piecewise-polynomial store keeps interval and
// coefficient planes and refits a Gram-basis least-squares projection per
// merged pair.  Each round past the first is one fused streaming pass
// (CommitAndEvaluate): committing round r's survivors produces round
// r+1's candidate statistics and errors while the planes are still hot, so
// a round reads and writes every plane exactly once.  Candidate and
// next-generation buffers persist across rounds (no per-round allocation)
// — for histograms across runs too (kWorkspaceRetainedAtoms) — and the
// fused pass is data-parallel over MergingOptions::num_threads
// (util/parallel.h, clamped to the hardware by EffectiveParallelism) with
// bit-identical output at any thread count.  The entry points below share
// the selection strategies, the (error, index) total order, the delta/gamma
// round schedule, and the termination argument — which is what makes the
// sqrt(1 + delta) guarantee a single proof and the engine a single
// SIMD/threading target.

// Test-only visibility into the engine's pass structure (thread-local, so
// concurrent constructions — e.g. merge-tree groups on pool workers —
// never race).  A "plane pass" is one sweep over the partition planes:
// evaluate_passes counts stand-alone EvaluatePairs sweeps (the cold start),
// fused_passes counts CommitAndEvaluate sweeps (commit + next-round
// evaluate in one), commit_passes counts final-round Commit sweeps.  The
// fused engine's invariant, asserted by tests/perf_smoke_test.cc, is
// evaluate_passes + fused_passes + commit_passes == rounds + 1.
//
// The workspace fields report the calling thread's histogram workspace
// (see kWorkspaceRetainedAtoms) at the end of its last run, in elements of
// its largest buffer: workspace_peak_elements before the end-of-run
// release, workspace_retained_elements after it.
struct EngineCounters {
  long long evaluate_passes = 0;
  long long fused_passes = 0;
  long long commit_passes = 0;
  long long rounds = 0;
  long long workspace_peak_elements = 0;
  long long workspace_retained_elements = 0;
};
EngineCounters& EngineCountersForTesting();
void ResetEngineCountersForTesting();

// Upper bound on the piece count any engine construction or merge can
// produce with these knobs: the round loop only terminates once at most
// 2*gamma*m + 1 intervals survive (m = max(k, floor(k*(1 + 1/delta))),
// both products clamped exactly like the engine's internal schedule), and
// a partition that starts at or below that threshold is returned as-is —
// so every output satisfies pieces <= min(this bound, domain_size).
// Callers that pre-size fixed-capacity buffers for engine outputs (the
// striped ingestor's lock-free summary planes) size them with this.
int64_t MaxSurvivingPieces(int64_t k, const MergingOptions& options);

// The histogram rounds run in a per-thread workspace: the partition
// planes and the round scratch live in a thread_local object that every
// run on the thread refills, so a warm run allocates only its output
// Histogram.  A run that grows a workspace buffer past this many elements
// (about 70 bytes per atom across all buffers) frees that buffer when it
// ends, so one huge construction does not pin its planes to the thread.
//
// Thread-local reuse is safe because no engine call starts on a thread
// between a run's fill and its Finish: the round loop calls nothing that
// re-enters the engine, a ParallelFor nested inside a pool task runs inline
// on that task's thread, and a pool serializes its dispatches (the caller
// runs its own chunk and then only waits — no work stealing).
constexpr size_t kWorkspaceRetainedAtoms = size_t{1} << 18;

// Runs the merging rounds over the support partition of q — alternating
// zero-run intervals and singleton support intervals covering [0, domain),
// each carrying q's moments — and returns the flat-value histogram of the
// surviving partition.  Backs
// ConstructHistogram (kSort) and ConstructHistogramFast (kSelect).
StatusOr<MergingResult> RunMergingRounds(const SparseFunction& q, int64_t k,
                                         const MergingOptions& options,
                                         SelectionStrategy strategy);

// Runs the kSelect rounds over the boundary union of w1*h1 + w2*h2: the
// combined function is flat on each union segment, so its statistics there
// are exact and the rounds start from at most p1 + p2 intervals, however
// large the domain.  h1 and h2 must share a domain, and w1, w2 are the
// already-normalized weights — the engine half of MergeHistograms.
StatusOr<Histogram> RunUnionMergingRounds(const Histogram& h1, double w1,
                                          const Histogram& h2, double w2,
                                          int64_t k,
                                          const MergingOptions& options);

// Runs the same rounds over PolyFit atoms with the degree-`degree`
// least-squares projection as the merge oracle, starting from the support
// partition of q.  Backs ConstructPiecewisePolynomial (kSort) and
// ConstructPiecewisePolynomialFast (kSelect) in poly/poly_merging.h.
StatusOr<PiecewisePolyResult> RunPolyMergingRounds(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options, SelectionStrategy strategy);

}  // namespace internal
}  // namespace fasthist

#endif  // FASTHIST_CORE_INTERNAL_MERGE_ENGINE_H_
