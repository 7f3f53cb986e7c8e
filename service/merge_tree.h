#ifndef FASTHIST_SERVICE_MERGE_TREE_H_
#define FASTHIST_SERVICE_MERGE_TREE_H_

#include <cstdint>
#include <vector>

#include "core/merging.h"
#include "dist/histogram.h"
#include "service/wire_format.h"
#include "util/status.h"

namespace fasthist {

// The reduction layer of the service: folds N per-shard summaries into one
// aggregate with weighted MergeHistograms (Lemma 4.2 — the merge is
// weighted and associative up to re-approximation, which is exactly what
// lets shards be reduced in a tree instead of a chain).
//
// Determinism is the load-bearing contract.  The tree shape is a pure
// function of (N, fan_in): level by level, consecutive groups of `fan_in`
// summaries fold left-to-right into one node, until one summary remains,
// and each merge is a deterministic histogram run on the calling thread.
// ReduceSnapshots additionally canonicalizes input order (by shard id), so
// the aggregate is bit-identical regardless of the order snapshots arrived
// in.  Different `fan_in` values produce different (all valid) tree shapes
// and therefore different — but equally accurate, see `error_levels` —
// aggregates.

// A decoded shard summary: the histogram plus its merge weight (the
// number of samples it condenses) and the Lemma-4.2 error levels already
// spent producing it (condenses + merges upstream of the reducer; 1 for a
// plain one-condense summary).
struct ShardSummary {
  Histogram histogram;
  double weight = 0.0;
  int error_levels = 1;
};

struct MergeTreeOptions {
  // Children folded into each internal node; >= 2.  Larger fan-in means a
  // shallower tree (fewer lossy condensations, see error_levels).
  int fan_in = 2;
  // Knobs (delta/gamma) for every internal MergeHistograms.
  MergingOptions merging;
};

struct MergeTreeResult {
  Histogram aggregate;
  double total_weight = 0.0;
  // Number of reduction levels the tree ran (= ceil(log_fan_in(N)) for N
  // non-empty shards; 0 when a single summary passes through untouched).
  int depth = 0;
  // Total pairwise MergeHistograms calls across all levels.
  int64_t num_merges = 0;
  // Additive error accounting (Lemma 4.2): the L2 error of `aggregate`
  // against the pooled empirical distribution is bounded by the weighted
  // mean of the per-shard summary errors plus one k-piece condensation
  // error per tree level — `error_levels = depth + max(input error_levels)`
  // additive terms in total, where each input's own count covers its
  // upstream condenses (a plain one-condense summary reports 1; a
  // long-running shard reports its dyadic-ladder depth, see
  // StreamingHistogramBuilder::error_levels, so the end-to-end count stays
  // O(log stream length + log shards)).  Deeper trees spend more of the
  // error budget; this field is the number a caller multiplies its
  // per-condense bound by (Aggregator::Create's per-level overload does
  // exactly that).
  int error_levels = 0;
};

// Reduces `summaries` (all sharing one domain, all with positive weight)
// to a single aggregate.  The input order is the tree's leaf order;
// callers who need arrival-order invariance should go through
// ReduceSnapshots, which canonicalizes it.
StatusOr<MergeTreeResult> ReduceSummaries(
    std::vector<ShardSummary> summaries, int64_t k,
    const MergeTreeOptions& options = MergeTreeOptions());

// Decodes wire snapshots and reduces them.  Snapshots are first sorted by
// (shard_id, num_samples, error_levels, bytes) — a canonical leaf order,
// so the result is bit-identical regardless of arrival order.  Snapshots
// sharing a shard_id are then deduplicated: byte-identical duplicates are
// retransmits and all but one copy is dropped (idempotent delivery — a
// retried push cannot double-count a shard), while same-id snapshots with
// differing payloads are rejected as Invalid (two distinct claims about
// one shard means an upstream bug; silently merging both would
// double-count).  Shards with zero samples carry no mass and are skipped
// before their payload is even decoded (an idle fleet costs nothing per
// empty shard); if every shard is empty the aggregate is the first empty
// shard's decoded (uniform) summary with total_weight 0 — a caller must
// check total_weight (or use Aggregator::Create's MergeTreeResult
// overload, which rejects it) before serving quantiles from it.
StatusOr<MergeTreeResult> ReduceSnapshots(
    std::vector<ShardSnapshot> snapshots, int64_t k,
    const MergeTreeOptions& options = MergeTreeOptions());

}  // namespace fasthist

#endif  // FASTHIST_SERVICE_MERGE_TREE_H_
