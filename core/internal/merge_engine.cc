#include "core/internal/merge_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "poly/fit_poly.h"

namespace fasthist {
namespace internal {

EngineCounters& EngineCountersForTesting() {
  // Thread-local so constructions running at the same time on the server's
  // event loops never race; tests reset and read on one thread.
  thread_local EngineCounters counters;
  return counters;
}

void ResetEngineCountersForTesting() {
  EngineCountersForTesting() = EngineCounters();
}

namespace {

// The selection threshold's three tiers (SelectThreshold): up to
// kNetworkSelectWidth kept pairs it comes from a sorted top-8 register
// buffer (TopEightThreshold), up to kHeapSelectCutoff from a sequential
// top-k heap scan, and above that from copy + nth_element.  With the
// paper's settings keep ~ k, which is tiny against the pairs of a large
// partition, so the two scan tiers touch the error plane exactly once.
constexpr size_t kNetworkSelectWidth = 8;
constexpr size_t kHeapSelectCutoff = 2048;

// Clamp bound applied before double -> int64 casts of the keep/stop
// schedule.  k * (1 + 1/delta) overflows int64 for huge k and tiny delta,
// and casting an out-of-range double is UB; 2^62 is exactly representable,
// castable, and far beyond any real partition size, so clamping there
// preserves the "keep everything" semantics without the UB.
constexpr double kScheduleClamp = 4611686018427387904.0;  // 2^62

int64_t PairsKeptPerRound(int64_t k, const MergingOptions& options) {
  const double raw = static_cast<double>(k) * (1.0 + 1.0 / options.delta);
  return std::max(k, static_cast<int64_t>(std::min(raw, kScheduleClamp)));
}

// gamma stops the rounds early (Corollary 3.1): at most ~2*gamma*keep+1
// pieces survive, in exchange for fewer rounds over the large partitions.
// The inner product is clamped like the keep count (gamma is unbounded).
int64_t StopThreshold(int64_t keep, const MergingOptions& options) {
  const double inner = options.gamma * static_cast<double>(keep);
  return 2 * static_cast<int64_t>(std::min(inner, kScheduleClamp / 2.0)) + 1;
}

Status ValidateRoundArgs(int64_t domain_size, int64_t k,
                         const MergingOptions& options) {
  if (domain_size <= 0) {
    return Status::Invalid("merging: domain must be positive");
  }
  if (k < 1) return Status::Invalid("merging: k must be >= 1");
  return ValidateMergingOptions(options);
}

// The support partition of q, in order: fn(interval, &value) for the
// singleton at each support point, fn(interval, nullptr) for each zero run
// between (and around) them.
template <typename Fn>
void ForEachSupportInterval(const SparseFunction& q, Fn&& fn) {
  const std::vector<int64_t>& indices = q.indices();
  const std::vector<double>& values = q.values();
  int64_t cursor = 0;
  for (size_t s = 0; s < indices.size(); ++s) {
    if (indices[s] > cursor) fn(Interval{cursor, indices[s]}, nullptr);
    fn(Interval{indices[s], indices[s] + 1}, &values[s]);
    cursor = indices[s] + 1;
  }
  if (cursor < q.domain_size()) {
    fn(Interval{cursor, q.domain_size()}, nullptr);
  }
}

// The support partition as a list (the polynomial store's starting point).
std::vector<Interval> SupportPartition(const SparseFunction& q) {
  std::vector<Interval> intervals;
  intervals.reserve(2 * q.support_size() + 1);
  ForEachSupportInterval(q, [&intervals](Interval interval, const double*) {
    intervals.push_back(interval);
  });
  if (intervals.empty()) intervals.push_back({0, q.domain_size()});
  return intervals;
}

// The two histogram fills: each walks its input once and hands every atom
// to push(length, sum, sumsq), in order.

// The support partition of q with q's moments on each interval: a zero
// run carries (0, 0), the singleton at support point s carries (v, v*v).
template <typename Push>
void ForEachSupportAtom(const SparseFunction& q, Push&& push) {
  ForEachSupportInterval(q, [&push](Interval interval, const double* value) {
    const double length = static_cast<double>(interval.length());
    if (value == nullptr) {
      push(length, 0.0, 0.0);
    } else {
      const double v = *value;
      push(length, v, v * v);
    }
  });
}

// The boundary union of w1*h1 + w2*h2: flat on each union segment, so
// value * length and value * value * length are its exact moments there.
template <typename Push>
void ForEachUnionAtom(const Histogram& h1, double w1, const Histogram& h2,
                      double w2, Push&& push) {
  size_t i1 = 0, i2 = 0;
  int64_t cursor = 0;
  while (cursor < h1.domain_size()) {
    const HistogramPiece& p1 = h1.pieces()[i1];
    const HistogramPiece& p2 = h2.pieces()[i2];
    const int64_t end = std::min(p1.interval.end, p2.interval.end);
    const double value = w1 * p1.value + w2 * p2.value;
    const double length = static_cast<double>(end - cursor);
    push(length, value * length, value * value * length);
    cursor = end;
    if (p1.interval.end == end) ++i1;
    if (p2.interval.end == end) ++i2;
  }
}

// Raw views of one partition's three planes.
struct PlaneView {
  double* len;
  double* sum;
  double* sumsq;
};

// Flat-value histogram of a surviving partition of n atoms and its summed
// error.  Endpoints come back from the length plane by an exact integer
// prefix sum from 0 (both fills tile the domain from its origin).
StatusOr<MergingResult> FinishPartition(const PlaneView& planes, size_t n,
                                        int64_t domain_size,
                                        long long num_rounds) {
  MergingResult result;
  result.num_rounds = num_rounds;
  result.err_squared = 0.0;
  std::vector<HistogramPiece> pieces;
  pieces.reserve(n);
  int64_t cursor = 0;
  for (size_t i = 0; i < n; ++i) {
    const double length = planes.len[i];
    const int64_t end = cursor + static_cast<int64_t>(length);
    pieces.push_back({{cursor, end}, planes.sum[i] / length});
    const double residual =
        planes.sumsq[i] - planes.sum[i] * planes.sum[i] / length;
    result.err_squared += residual > 0.0 ? residual : 0.0;
    cursor = end;
  }
  auto histogram = Histogram::Create(domain_size, std::move(pieces));
  if (!histogram.ok()) return histogram.status();
  result.histogram = std::move(histogram).value();
  return result;
}

// ---------------------------------------------------------------------------
// The polynomial round loop.  RunRounds (below) drives PolyStore, which owns
// the current partition as parallel planes plus the candidate and
// next-generation buffers.  Every buffer persists across rounds — a round
// only resize()s within capacity reserved up front, so the steady state
// allocates nothing.  The store supplies
//   size_t size();                       current number of atoms
//   void EvaluatePairs(n, err);          refits + errors of the n adjacent
//                                        pairs into the candidate planes
//                                        (the cold start: only the first
//                                        round needs a stand-alone
//                                        evaluation pass)
//   void CommitAndEvaluate(keep_split, n, err);
//                                        THE fused round kernel: build the
//                                        next generation (kept pairs stay
//                                        split, the rest become their
//                                        candidate, an odd tail survives)
//                                        and, while those planes are hot,
//                                        produce the *next* round's
//                                        candidate refits and errors — one
//                                        streaming pass instead of a commit
//                                        sweep plus an evaluate sweep.
//                                        `err` carries the current
//                                        candidate errors in and the next
//                                        generation's out.
//   void Commit(keep_split, n, err);     the last round's commit, when no
//                                        further evaluation is needed
// and the loop owns everything the guarantee proof depends on: pairing, the
// strict (error desc, index asc) total order, the keep/stop schedule, and
// the round recursion s -> ceil(s/2) + keep (strictly decreasing while
// s > stop >= 2*keep + 1, so termination is structural).
// ---------------------------------------------------------------------------

// Piecewise-polynomial store: merging refits the degree-d least-squares
// projection on the union interval (coefficients are not additive across a
// boundary, so unlike the histogram moments the merged fit is recomputed
// from q's support — O(support-in-interval * degree) per merge, which keeps
// the whole construction sample-near-linear).  Coefficients live in a flat
// plane of stride degree+1, zero-padded past each interval's effective
// degree; bases are length-keyed cache entries shared by pointer.
class PolyStore {
 public:
  PolyStore(const SparseFunction& q, GramBasisCache* cache, int degree)
      : q_(&q), cache_(cache), stride_(static_cast<size_t>(degree) + 1) {}

  // Fits the support partition of q.
  void InitFromSupportPartition() {
    const std::vector<Interval> initial = SupportPartition(*q_);
    const size_t n = initial.size();
    begin_.resize(n);
    end_.resize(n);
    err_.resize(n);
    basis_.resize(n);
    coeff_.resize(n * stride_);
    for (size_t i = 0; i < n; ++i) {
      begin_[i] = initial[i].begin;
      end_[i] = initial[i].end;
      basis_[i] = &cache_->For(initial[i].length());
      err_[i] = Refit(begin_[i], end_[i], *basis_[i], &coeff_[i * stride_]);
    }
    cand_coeff_.reserve((n / 2) * stride_);
    cand_basis_.reserve(n / 2);
    next_begin_.reserve(n);
    next_end_.reserve(n);
    next_err_.reserve(n);
    next_basis_.reserve(n);
    next_coeff_.reserve(n * stride_);
  }

  size_t size() const { return begin_.size(); }

  void EvaluatePairs(size_t num_pairs, std::vector<double>& err) {
    ++EngineCountersForTesting().evaluate_passes;
    err.resize(num_pairs);
    cand_coeff_.resize(num_pairs * stride_);
    cand_basis_.resize(num_pairs);
    // Each merged length gets its cache entry and the pair its refit.
    for (size_t p = 0; p < num_pairs; ++p) {
      cand_basis_[p] = &cache_->For(end_[2 * p + 1] - begin_[2 * p]);
      err[p] = Refit(begin_[2 * p], end_[2 * p + 1], *cand_basis_[p],
                     &cand_coeff_[p * stride_]);
    }
  }

  // The fused sweep: commit pair p, and refit each output pair's candidate
  // as soon as both atoms exist.  Candidate writes land at index i <= p
  // (equality only for kept pairs, whose candidate slot is dead), so the
  // candidate planes and error vector are reused in place.
  void CommitAndEvaluate(const std::vector<char>& keep_split,
                         size_t num_pairs, std::vector<double>& err) {
    ++EngineCountersForTesting().fused_passes;
    next_begin_.clear();
    next_end_.clear();
    next_err_.clear();
    next_basis_.clear();
    next_coeff_.clear();
    size_t ci = 0;
    const auto emit_ready = [&] {
      const size_t ready = next_begin_.size() / 2;
      for (; ci < ready; ++ci) {
        const int64_t b = next_begin_[2 * ci];
        const int64_t e = next_end_[2 * ci + 1];
        const GramBasis& basis = cache_->For(e - b);
        cand_basis_[ci] = &basis;
        err[ci] = Refit(b, e, basis, &cand_coeff_[ci * stride_]);
      }
    };
    for (size_t p = 0; p < num_pairs; ++p) {
      if (keep_split[p]) {
        AppendAtom(2 * p);
        AppendAtom(2 * p + 1);
      } else {
        AppendMerged(p, err[p]);
      }
      emit_ready();
    }
    if (size() % 2 == 1) {
      AppendAtom(size() - 1);
      emit_ready();
    }
    err.resize(ci);
    cand_basis_.resize(ci);
    cand_coeff_.resize(ci * stride_);
    SwapInNextGeneration();
  }

  void Commit(const std::vector<char>& keep_split, size_t num_pairs,
              const std::vector<double>& candidate_err) {
    ++EngineCountersForTesting().commit_passes;
    next_begin_.clear();
    next_end_.clear();
    next_err_.clear();
    next_basis_.clear();
    next_coeff_.clear();
    for (size_t p = 0; p < num_pairs; ++p) {
      if (keep_split[p]) {
        AppendAtom(2 * p);
        AppendAtom(2 * p + 1);
      } else {
        AppendMerged(p, candidate_err[p]);
      }
    }
    if (size() % 2 == 1) AppendAtom(size() - 1);
    SwapInNextGeneration();
  }

  // Piecewise polynomial of the surviving partition and its summed error.
  StatusOr<PiecewisePolyResult> Finish(long long num_rounds) const {
    PiecewisePolyResult result;
    result.num_rounds = num_rounds;
    result.err_squared = 0.0;
    std::vector<PolyFit> fits(size());
    for (size_t i = 0; i < size(); ++i) {
      PolyFit& fit = fits[i];
      fit.interval = {begin_[i], end_[i]};
      fit.basis = *basis_[i];
      const auto first =
          coeff_.begin() + static_cast<ptrdiff_t>(i * stride_);
      fit.coefficients.assign(first, first + basis_[i]->degree() + 1);
      fit.err_squared = err_[i];
      result.err_squared += err_[i];
    }
    auto function =
        PiecewisePolynomial::Create(q_->domain_size(), std::move(fits));
    if (!function.ok()) return function.status();
    result.function = std::move(function).value();
    return result;
  }

 private:
  void AppendAtom(size_t i) {
    next_begin_.push_back(begin_[i]);
    next_end_.push_back(end_[i]);
    next_err_.push_back(err_[i]);
    next_basis_.push_back(basis_[i]);
    next_coeff_.insert(
        next_coeff_.end(),
        coeff_.begin() + static_cast<ptrdiff_t>(i * stride_),
        coeff_.begin() + static_cast<ptrdiff_t>((i + 1) * stride_));
  }

  void AppendMerged(size_t p, double merged_err) {
    next_begin_.push_back(begin_[2 * p]);
    next_end_.push_back(end_[2 * p + 1]);
    next_err_.push_back(merged_err);
    next_basis_.push_back(cand_basis_[p]);
    next_coeff_.insert(next_coeff_.end(),
                       cand_coeff_.begin() +
                           static_cast<ptrdiff_t>(p * stride_),
                       cand_coeff_.begin() +
                           static_cast<ptrdiff_t>((p + 1) * stride_));
  }

  void SwapInNextGeneration() {
    begin_.swap(next_begin_);
    end_.swap(next_end_);
    err_.swap(next_err_);
    basis_.swap(next_basis_);
    coeff_.swap(next_coeff_);
  }

  // ProjectOntoBasis (poly/fit_poly.h) on the planes — the exact same
  // inner loop FitPolyWithBasis and the DP baseline use, so the engine can
  // never drift from them numerically.  The slots past the basis's
  // effective degree are zeroed here so plane copies never carry stale
  // values.
  double Refit(int64_t begin, int64_t end, const GramBasis& basis,
               double* coeff) {
    for (size_t j = static_cast<size_t>(basis.degree()) + 1; j < stride_;
         ++j) {
      coeff[j] = 0.0;
    }
    return ProjectOntoBasis(*q_, {begin, end}, basis, coeff, &scratch_);
  }

  const SparseFunction* q_;
  GramBasisCache* cache_;
  size_t stride_;  // degree + 1 coefficient slots per atom

  // Current partition planes.
  std::vector<int64_t> begin_, end_;
  std::vector<double> err_;
  std::vector<const GramBasis*> basis_;
  std::vector<double> coeff_;  // size() * stride_
  // Candidate planes.
  std::vector<double> cand_coeff_;
  std::vector<const GramBasis*> cand_basis_;
  // Next-generation double buffers.
  std::vector<int64_t> next_begin_, next_end_;
  std::vector<double> next_err_;
  std::vector<const GramBasis*> next_basis_;
  std::vector<double> next_coeff_;
  std::vector<double> scratch_;  // Refit's basis evaluations
};

}  // namespace

int64_t MaxSurvivingPieces(int64_t k, const MergingOptions& options) {
  return StopThreshold(PairsKeptPerRound(k, options), options);
}

// Algorithm 1's round skeleton: the polynomial loop (RunRounds) and the
// histogram loop (HistogramRun) below.  Both selection strategies rank
// under the same strict (error desc, index asc) total order, so they pick
// identical pair sets and the engine's two speeds are bit-for-bit
// interchangeable.
namespace {

// RunRounds' scratch: sized once per run, then only resized downward as
// the partition shrinks.
struct RoundScratch {
  std::vector<double> candidate_err;
  std::vector<size_t> order;   // kSort ranking permutation
  std::vector<double> select;  // kSelect threshold scratch
  std::vector<char> keep_split;
};

// The num_keep-th largest of err[0, n), duplicates counted, for
// 1 <= num_keep <= kNetworkSelectWidth and num_keep < n: the value the
// heap tier would return.  Eight registers hold the largest errors seen so
// far, b0 >= ... >= b7.  An error enters only when it beats b7 and then
// shifts into place without a branch, each slot taking
// min(its upper neighbour, max(e, itself)).  On the served path a
// partition has tens of pairs and keep is 8, where a heap's sift decisions
// are coin flips for the branch predictor; here the one branch left is
// the entry test, which a scan mostly fails.
//
// Exactness needs an error plane without NaN, and both loops guarantee
// it: every error is clamped into [0, +inf] — the histogram loop with
// r > 0 ? r : 0, the poly store with std::max(0.0, ...).  So the strict
// entry test and the heap's e > front() reject exactly the same values (an
// equal error changes neither the top-8 multiset nor the heap).  The -inf
// sentinels never come back: every error beats them, and there are more
// than num_keep errors.
double TopEightThreshold(const double* err, size_t n, size_t num_keep) {
  static_assert(kNetworkSelectWidth == 8, "one register per slot below");
  constexpr double kEmpty = -std::numeric_limits<double>::infinity();
  double b0 = kEmpty, b1 = kEmpty, b2 = kEmpty, b3 = kEmpty;
  double b4 = kEmpty, b5 = kEmpty, b6 = kEmpty, b7 = kEmpty;
  for (size_t p = 0; p < n; ++p) {
    const double e = err[p];
    if (e > b7) {
      b7 = std::min(b6, std::max(e, b7));
      b6 = std::min(b5, std::max(e, b6));
      b5 = std::min(b4, std::max(e, b5));
      b4 = std::min(b3, std::max(e, b4));
      b3 = std::min(b2, std::max(e, b3));
      b2 = std::min(b1, std::max(e, b2));
      b1 = std::min(b0, std::max(e, b1));
      b0 = std::max(e, b0);
    }
  }
  // A switch, not an indexed array: an array makes the compiler pack the
  // slots into vector pairs and shuffle them inside the loop.
  switch (num_keep) {
    case 1: return b0;
    case 2: return b1;
    case 3: return b2;
    case 4: return b3;
    case 5: return b4;
    case 6: return b5;
    case 7: return b6;
    default: return b7;
  }
}

// kSelect's threshold: the num_keep-th largest of err[0, num_pairs),
// duplicates counted — a value, never an index — for
// 1 <= num_keep < num_pairs.  One of three tiers finds it: the top-8
// register network for keep <= 8, a top-k heap scan up to
// kHeapSelectCutoff, nth_element on a scratch copy above it.  `scratch`
// has room for num_pairs doubles.  Both round loops call this.
double SelectThreshold(const double* err, size_t num_pairs, size_t num_keep,
                       double* scratch) {
  if (num_keep <= kNetworkSelectWidth) {
    return TopEightThreshold(err, num_pairs, num_keep);
  }
  if (num_keep <= kHeapSelectCutoff) {
    // One sequential pass: a min-heap of the num_keep largest values seen
    // (only strictly-greater values displace the root, which is exactly
    // the k-th-largest-with-duplicates semantics nth_element gives).
    double* const heap_end = scratch + num_keep;
    std::copy(err, err + num_keep, scratch);
    std::make_heap(scratch, heap_end, std::greater<double>());
    for (size_t p = num_keep; p < num_pairs; ++p) {
      if (err[p] > scratch[0]) {
        std::pop_heap(scratch, heap_end, std::greater<double>());
        heap_end[-1] = err[p];
        std::push_heap(scratch, heap_end, std::greater<double>());
      }
    }
    return scratch[0];
  }
  std::copy(err, err + num_pairs, scratch);
  std::nth_element(scratch, scratch + (num_keep - 1), scratch + num_pairs,
                   std::greater<double>());
  return scratch[num_keep - 1];
}

// kSort's threshold in the histogram loop: Algorithm 1's sort, on a copy
// of the errors.  Sorted descending, the num_keep-th largest sits at
// num_keep - 1 — the value SelectThreshold returns — so the loop's shared
// mark keeps the pairs an index sort's (error desc, index asc) prefix
// holds.  `scratch` has room for num_pairs doubles.
double SortThreshold(const double* err, size_t num_pairs, size_t num_keep,
                     double* scratch) {
  std::copy(err, err + num_pairs, scratch);
  std::sort(scratch, scratch + num_pairs, std::greater<double>());
  return scratch[num_keep - 1];
}

// Marks the top `num_keep` pairs under the strict (error desc, index asc)
// total order, for the polynomial loop.  kSort is the reference
// formulation: sort an index permutation and mark the prefix.  kSelect is
// value-based: after SelectThreshold, a sequential mark pass keeps
// everything strictly above the threshold plus the first
// (num_keep - #above) threshold ties in index order — the same set the
// sorted prefix contains, without ever chasing an index indirection.  The
// mark pass is branch-free.
void MarkKeepSplit(SelectionStrategy strategy,
                   const std::vector<double>& candidate_err, size_t num_pairs,
                   size_t num_keep, std::vector<size_t>& order,
                   std::vector<double>& scratch,
                   std::vector<char>& keep_split) {
  keep_split.resize(num_pairs);
  if (num_keep >= num_pairs) {
    std::fill(keep_split.begin(), keep_split.end(), 1);
    return;
  }
  if (strategy == SelectionStrategy::kSort) {
    std::fill(keep_split.begin(), keep_split.end(), 0);
    order.resize(num_pairs);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      if (candidate_err[a] != candidate_err[b]) {
        return candidate_err[a] > candidate_err[b];
      }
      return a < b;
    });
    for (size_t i = 0; i < num_keep; ++i) keep_split[order[i]] = 1;
    return;
  }

  scratch.resize(num_pairs);
  const double threshold = SelectThreshold(candidate_err.data(), num_pairs,
                                           num_keep, scratch.data());

  // Raw views: a char store may alias any object, so through the vectors
  // every iteration would reload both data pointers.
  const double* err = candidate_err.data();
  char* marks = keep_split.data();
  size_t above = 0, at_least = 0;
  for (size_t p = 0; p < num_pairs; ++p) {
    above += err[p] > threshold;
    at_least += err[p] >= threshold;
  }
  // Every flag below comes from comparisons, not branches: on tiny
  // partitions each keep decision is a coin flip for the predictor.
  // Every slot is written, so no zero-fill sweep is needed.
  if (at_least == num_keep) {  // all threshold ties kept, the usual case
    for (size_t p = 0; p < num_pairs; ++p) marks[p] = err[p] >= threshold;
    return;
  }
  // More ties than slots: keep the first tie_quota of them in index order.
  const size_t tie_quota = num_keep - above;  // >= 1: the threshold ties
  size_t tie_rank = 0;
  for (size_t p = 0; p < num_pairs; ++p) {
    const bool gt = err[p] > threshold;
    const bool eq = err[p] == threshold;
    marks[p] = static_cast<char>(gt | (eq & (tie_rank < tie_quota)));
    tie_rank += eq;
  }
}

long long RunRounds(PolyStore& store, int64_t k, const MergingOptions& options,
                    SelectionStrategy strategy, RoundScratch& scratch) {
  const int64_t keep = PairsKeptPerRound(k, options);
  const int64_t stop = StopThreshold(keep, options);
  long long num_rounds = 0;
  if (static_cast<int64_t>(store.size()) <= stop) return num_rounds;

  // Capacity is never released mid-run.
  std::vector<double>& candidate_err = scratch.candidate_err;
  std::vector<char>& keep_split = scratch.keep_split;
  candidate_err.reserve(store.size() / 2);
  keep_split.reserve(store.size() / 2);
  if (strategy == SelectionStrategy::kSort) {
    scratch.order.reserve(store.size() / 2);
  } else {
    scratch.select.reserve(store.size() / 2);
  }

  // The fused round pipeline: one stand-alone evaluation primes the
  // candidate planes, then every round selects on the finished error plane
  // and commits fused with the next round's evaluation — so each round
  // past the first sweeps the planes exactly once.  The last commit (known
  // in advance from the output-size recursion next = pairs + kept + tail)
  // skips the dead evaluation.
  size_t num_pairs = store.size() / 2;
  store.EvaluatePairs(num_pairs, candidate_err);
  while (true) {
    const size_t num_keep =
        std::min(static_cast<size_t>(keep), num_pairs);
    MarkKeepSplit(strategy, candidate_err, num_pairs, num_keep, scratch.order,
                  scratch.select, keep_split);
    ++num_rounds;
    ++EngineCountersForTesting().rounds;
    const size_t next_size = num_pairs + num_keep + (store.size() & 1);
    if (static_cast<int64_t>(next_size) <= stop) {
      store.Commit(keep_split, num_pairs, candidate_err);
      break;
    }
    store.CommitAndEvaluate(keep_split, num_pairs, candidate_err);
    num_pairs = next_size / 2;
  }
  return num_rounds;
}

// mask ? a : b as a select on the bits, for a mask of all ones or all
// zeros.  Written as a ternary, GCC compiles it into a branch on the flag
// behind the mask — the mispredict HistogramRun's commit exists to remove.
inline double SelectBits(uint64_t mask, double a, double b) {
  uint64_t bits_a, bits_b;
  std::memcpy(&bits_a, &a, sizeof(a));
  std::memcpy(&bits_b, &b, sizeof(b));
  const uint64_t bits = (bits_a & mask) | (bits_b & ~mask);
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

// HistogramRun's evaluate pass: the statistics and error of every adjacent
// pair.  The planes are disjoint, and saying so lets the compiler
// vectorize the pass; the clamp then becomes a compare-and-mask, exact
// like the scalar r > 0 ? r : 0.
void EvaluateHistogramPairs(const double* __restrict len,
                            const double* __restrict sum,
                            const double* __restrict sumsq, size_t num_pairs,
                            double* __restrict cand_len,
                            double* __restrict cand_sum,
                            double* __restrict cand_sumsq,
                            double* __restrict err) {
  for (size_t p = 0; p < num_pairs; ++p) {
    const double l = len[2 * p] + len[2 * p + 1];
    const double s = sum[2 * p] + sum[2 * p + 1];
    const double ss = sumsq[2 * p] + sumsq[2 * p + 1];
    cand_len[p] = l;
    cand_sum[p] = s;
    cand_sumsq[p] = ss;
    const double r = ss - s * s / l;
    err[p] = r > 0.0 ? r : 0.0;
  }
}

// The histogram round loop, which every histogram run takes:
// ConstructHistogram (kSort), ConstructHistogramFast and MergeHistograms
// (kSelect), at any size.  A histogram merge is closed-form — a pair's
// statistics are the sums of its atoms' (length, sum, sumsq) — and the
// planes hold interval *lengths*, not endpoints: atoms tile the domain, so
// Finish recovers endpoints by a prefix sum (exact in a double up to 2^53,
// the limit ValidateHistogramRoundArgs enforces).  Every round is three
// loops over the planes: evaluate every pair, find the threshold, then
// count the pairs above it and commit without a branch.  The strategies
// differ only in the threshold, where the paper's Algorithm 1 and
// Theorem 3.4 differ: SortThreshold or SelectThreshold.  The pairing,
// (error desc, index asc) order, keep/stop schedule and tie rule are the
// polynomial loop's, so both strategies produce the same bits.
//
// The planes are one buffer per thread (ThreadWorkspace), grown to the
// largest run the thread has seen, so a warm run allocates only its
// output histogram; a run whose planes exceed kWorkspaceRetainedAtoms
// frees them when it ends.  Each plane starts a whole number of cache
// lines into the buffer, and no two start a multiple of 4 KiB apart: at
// 512 atoms a plane is exactly 4 KiB, and a load whose address matches an
// in-flight store's in the low 12 bits can be held back as if it depended
// on that store (4K aliasing).
class HistogramRun {
 public:
  // The fills write the run's atoms into the current planes.
  void FillFromSparse(const SparseFunction& q) {
    // The support partition has at most 2 * support + 1 atoms, but a dense
    // input has about half that: when the bound outgrows the planes, they
    // grow to the exact count, so a dense run below the cap stays below it.
    if (2 * q.support_size() + 1 > capacity_) {
      size_t atoms = 0;
      ForEachSupportInterval(q, [&atoms](Interval, const double*) {
        ++atoms;
      });
      Reserve(atoms);
    }
    size_ = 0;
    ForEachSupportAtom(q, [this](double length, double sum, double sumsq) {
      PushAtom(length, sum, sumsq);
    });
  }

  // The union has at most p1 + p2 atoms.
  void FillFromUnion(const Histogram& h1, double w1, const Histogram& h2,
                     double w2) {
    Reserve(static_cast<size_t>(h1.num_pieces() + h2.num_pieces()));
    size_ = 0;
    ForEachUnionAtom(h1, w1, h2, w2,
                     [this](double length, double sum, double sumsq) {
                       PushAtom(length, sum, sumsq);
                     });
  }

  // Runs the rounds over the filled planes and returns the surviving
  // partition's histogram.  Then the cap: planes past
  // kWorkspaceRetainedAtoms are freed (EngineCounters reports the
  // capacity before and after).
  StatusOr<MergingResult> Run(int64_t domain_size, int64_t k,
                              const MergingOptions& options,
                              SelectionStrategy strategy) {
    const long long num_rounds = Rounds(k, options, strategy);
    auto result = FinishPartition(cur_, size_, domain_size, num_rounds);
    EngineCounters& counters = EngineCountersForTesting();
    counters.workspace_peak_elements = static_cast<long long>(capacity_);
    if (capacity_ > kWorkspaceRetainedAtoms) *this = HistogramRun();
    counters.workspace_retained_elements = static_cast<long long>(capacity_);
    return result;
  }

 private:
  static constexpr size_t kLine = 8;   // doubles per 64-byte cache line
  static constexpr size_t kPage = 512;  // doubles per 4 KiB

  long long Rounds(int64_t k, const MergingOptions& options,
                   SelectionStrategy strategy) {
    const int64_t keep = PairsKeptPerRound(k, options);
    const int64_t stop = StopThreshold(keep, options);
    PlaneView cur = cur_;
    PlaneView next = next_;
    const PlaneView cand = cand_;
    double* const err = err_;
    size_t n = size_;
    long long num_rounds = 0;
    while (static_cast<int64_t>(n) > stop) {
      const size_t num_pairs = n / 2;
      EvaluateHistogramPairs(cur.len, cur.sum, cur.sumsq, num_pairs,
                             cand.len, cand.sum, cand.sumsq, err);
      // n > stop >= 2 * keep + 1, so keep < num_pairs (see RunRounds).
      const auto num_keep = static_cast<size_t>(keep);
      // The next generation's planes are dead until the commit below, so
      // the threshold's scratch is one of them.
      const double threshold =
          strategy == SelectionStrategy::kSort
              ? SortThreshold(err, num_pairs, num_keep, next.sumsq)
              : SelectThreshold(err, num_pairs, num_keep, next.sumsq);
      size_t above = 0;
      for (size_t p = 0; p < num_pairs; ++p) above += err[p] > threshold;
      // MarkKeepSplit's set: every pair above the threshold plus the first
      // tie_quota ties.  A kept pair writes its left atom, a merged pair
      // its candidate; both write the right atom one slot on, where the
      // next pair overwrites it unless the pair was kept.
      const size_t tie_quota = num_keep - above;
      size_t out = 0;
      size_t tie_rank = 0;
      for (size_t p = 0; p < num_pairs; ++p) {
        const size_t gt = err[p] > threshold;
        const size_t eq = err[p] == threshold;
        const size_t kept = gt | (eq & (tie_rank < tie_quota));
        tie_rank += eq;
        const uint64_t mask = uint64_t{0} - kept;
        next.len[out] = SelectBits(mask, cur.len[2 * p], cand.len[p]);
        next.sum[out] = SelectBits(mask, cur.sum[2 * p], cand.sum[p]);
        next.sumsq[out] = SelectBits(mask, cur.sumsq[2 * p], cand.sumsq[p]);
        next.len[out + 1] = cur.len[2 * p + 1];
        next.sum[out + 1] = cur.sum[2 * p + 1];
        next.sumsq[out + 1] = cur.sumsq[2 * p + 1];
        out += 1 + kept;
      }
      if (n % 2 == 1) {
        next.len[out] = cur.len[n - 1];
        next.sum[out] = cur.sum[n - 1];
        next.sumsq[out] = cur.sumsq[n - 1];
        ++out;
      }
      std::swap(cur, next);
      n = out;
      ++num_rounds;
    }
    cur_ = cur;
    next_ = next;
    size_ = n;
    return num_rounds;
  }

  // Carves room for a run of up to `atoms` atoms: the current and next
  // generations (atom planes), then the candidate planes and errors (pair
  // planes).  A no-op once the thread has seen a run this large.  The
  // buffer is not zero-filled: a fill writes every atom a round reads, and
  // a round writes every pair slot before reading it.
  void Reserve(size_t atoms) {
    if (atoms <= capacity_) return;
    double** const planes[] = {&cur_.len,  &cur_.sum,   &cur_.sumsq,
                               &next_.len, &next_.sum,  &next_.sumsq,
                               &cand_.len, &cand_.sum,  &cand_.sumsq,
                               &err_};
    constexpr size_t kPlanes = sizeof(planes) / sizeof(planes[0]);
    constexpr size_t kAtomPlanes = 6;
    const size_t atom_plane = (atoms + kLine - 1) / kLine * kLine;
    const size_t pair_plane = (atoms / 2 + kLine - 1) / kLine * kLine;
    size_t offsets[kPlanes];
    size_t end = 0;
    for (size_t i = 0; i < kPlanes; ++i) {
      while (std::any_of(offsets, offsets + i, [end](size_t offset) {
        return (end - offset) % kPage == 0;
      })) {
        end += kLine;
      }
      offsets[i] = end;
      end += i < kAtomPlanes ? atom_plane : pair_plane;
    }
    buffer_.reset();  // the old planes go before the new ones come
    buffer_.reset(new double[end]);
    for (size_t i = 0; i < kPlanes; ++i) {
      *planes[i] = buffer_.get() + offsets[i];
    }
    capacity_ = atoms;
  }

  void PushAtom(double length, double sum, double sumsq) {
    cur_.len[size_] = length;
    cur_.sum[size_] = sum;
    cur_.sumsq[size_] = sumsq;
    ++size_;
  }

  std::unique_ptr<double[]> buffer_;
  size_t capacity_ = 0;  // atoms the planes have room for
  size_t size_ = 0;      // atoms in the current planes
  PlaneView cur_{}, next_{}, cand_{};
  double* err_ = nullptr;
};

// ValidateRoundArgs plus the histogram loop's domain limit.
Status ValidateHistogramRoundArgs(int64_t domain_size, int64_t k,
                                  const MergingOptions& options) {
  if (Status s = ValidateRoundArgs(domain_size, k, options); !s.ok()) return s;
  // The histogram loop tracks interval lengths as exact integral doubles
  // (endpoints come back by prefix sum at Finish), which is exact only up
  // to 2^53 — reject the astronomical domains beyond it explicitly instead
  // of letting piece boundaries drift.
  if (domain_size > (int64_t{1} << 53)) {
    return Status::Invalid(
        "merging: domain above 2^53 not supported (interval lengths are "
        "tracked as exact doubles)");
  }
  return Status::Ok();
}

// The calling thread's histogram loop (kWorkspaceRetainedAtoms in the
// header has the reuse contract and why it is safe).
HistogramRun& ThreadWorkspace() {
  thread_local HistogramRun run;
  return run;
}

}  // namespace

StatusOr<MergingResult> RunMergingRounds(const SparseFunction& q, int64_t k,
                                         const MergingOptions& options,
                                         SelectionStrategy strategy) {
  if (Status s = ValidateHistogramRoundArgs(q.domain_size(), k, options);
      !s.ok()) {
    return s;
  }
  HistogramRun& run = ThreadWorkspace();
  run.FillFromSparse(q);
  return run.Run(q.domain_size(), k, options, strategy);
}

StatusOr<Histogram> RunUnionMergingRounds(const Histogram& h1, double w1,
                                          const Histogram& h2, double w2,
                                          int64_t k,
                                          const MergingOptions& options) {
  if (Status s = ValidateHistogramRoundArgs(h1.domain_size(), k, options);
      !s.ok()) {
    return s;
  }
  HistogramRun& run = ThreadWorkspace();
  run.FillFromUnion(h1, w1, h2, w2);
  // The selection path: identical output to kSort (the engine's strict
  // total order) at linear per-round cost — this is a serving primitive.
  auto merged =
      run.Run(h1.domain_size(), k, options, SelectionStrategy::kSelect);
  if (!merged.ok()) return merged.status();
  return std::move(merged->histogram);
}

StatusOr<PiecewisePolyResult> RunPolyMergingRounds(
    const SparseFunction& q, int64_t k, int degree,
    const MergingOptions& options, SelectionStrategy strategy) {
  if (Status s = ValidateRoundArgs(q.domain_size(), k, options); !s.ok()) {
    return s;
  }
  if (degree < 0) {
    return Status::Invalid("poly merging: degree must be >= 0");
  }
  // Every refit evaluates its basis at each support offset as a double
  // (ProjectOntoBasis), exact only up to 2^53 — the same explicit limit as
  // the histogram path's length planes.
  if (q.domain_size() > (int64_t{1} << 53)) {
    return Status::Invalid(
        "poly merging: domain above 2^53 not supported (support offsets are "
        "evaluated as exact doubles)");
  }

  GramBasisCache cache(degree);
  PolyStore store(q, &cache, degree);
  store.InitFromSupportPartition();
  RoundScratch scratch;
  const long long num_rounds =
      RunRounds(store, k, options, strategy, scratch);
  return store.Finish(num_rounds);
}

}  // namespace internal
}  // namespace fasthist
