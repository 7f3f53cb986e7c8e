#include "core/streaming.h"

#include <algorithm>
#include <utility>

#include "core/fast_merging.h"
#include "core/streaming_ladder.h"
#include "dist/empirical.h"

namespace fasthist {

// The streaming_ladder Storage adapter over the builder's own slot vector.
// Load copies the resident summary (the hooks are storage-agnostic, and the
// plane-backed stores must materialize by value anyway); the copies are
// noise next to the MergeHistograms calls they feed.
struct StreamingHistogramBuilder::VectorLadder {
  std::vector<LadderSlot>* slots;

  int levels() const { return static_cast<int>(slots->size()); }
  int64_t count(int level) const {
    return (*slots)[static_cast<size_t>(level)].count;
  }
  StatusOr<Histogram> Load(int level) const {
    return (*slots)[static_cast<size_t>(level)].summary;
  }
  Status Store(int level, Histogram histogram, int64_t count) {
    LadderSlot& slot = (*slots)[static_cast<size_t>(level)];
    slot.summary = std::move(histogram);
    slot.count = count;
    return Status::Ok();
  }
  void Clear(int level) { (*slots)[static_cast<size_t>(level)] = LadderSlot{}; }
  Status PushLevel() {
    slots->emplace_back();
    return Status::Ok();
  }
};

StatusOr<StreamingHistogramBuilder> StreamingHistogramBuilder::Create(
    int64_t domain_size, int64_t k, size_t buffer_capacity,
    const MergingOptions& options) {
  if (domain_size <= 0) {
    return Status::Invalid("StreamingHistogramBuilder: domain must be positive");
  }
  if (k < 1) {
    return Status::Invalid("StreamingHistogramBuilder: k must be >= 1");
  }
  if (buffer_capacity == 0) {
    return Status::Invalid("StreamingHistogramBuilder: buffer must be >= 1");
  }
  if (Status s = ValidateMergingOptions(options); !s.ok()) return s;
  return StreamingHistogramBuilder(domain_size, k, buffer_capacity, options);
}

Status StreamingHistogramBuilder::Add(int64_t sample) {
  if (sample < 0 || sample >= domain_size_) {
    return Status::Invalid("StreamingHistogramBuilder: sample out of domain");
  }
  buffer_.push_back(sample);
  if (buffer_.size() >= buffer_capacity_) return Flush();
  return Status::Ok();
}

Status StreamingHistogramBuilder::AddMany(Span<const int64_t> samples) {
  size_t i = 0;
  while (i < samples.size()) {
    const size_t space = buffer_capacity_ - buffer_.size();
    const size_t take = std::min(space, samples.size() - i);
    // Validate the chunk first, then append it in one bulk insert.  On an
    // out-of-domain sample the valid prefix is still appended — exactly the
    // state an Add loop would have left behind when it hit the bad sample.
    size_t valid = 0;
    while (valid < take) {
      const int64_t sample = samples[i + valid];
      if (sample < 0 || sample >= domain_size_) break;
      ++valid;
    }
    buffer_.insert(buffer_.end(), samples.begin() + static_cast<ptrdiff_t>(i),
                   samples.begin() + static_cast<ptrdiff_t>(i + valid));
    if (valid < take) {
      return Status::Invalid("StreamingHistogramBuilder: sample out of domain");
    }
    i += take;
    if (buffer_.size() >= buffer_capacity_) {
      if (Status s = Flush(); !s.ok()) return s;
    }
  }
  return Status::Ok();
}

StatusOr<Histogram> StreamingHistogramBuilder::FoldBufferIntoSummary(
    const Histogram* summary, int64_t summarized_count,
    Span<const int64_t> buffer, int64_t domain_size, int64_t k,
    const MergingOptions& options) {
  auto empirical = EmpiricalDistribution(domain_size, buffer);
  if (!empirical.ok()) return empirical.status();
  auto batch = ConstructHistogramFast(*empirical, k, options);
  if (!batch.ok()) return batch.status();
  if (summary == nullptr || summarized_count == 0) {
    return std::move(batch->histogram);
  }
  return MergeHistograms(*summary, static_cast<double>(summarized_count),
                         batch->histogram, static_cast<double>(buffer.size()),
                         k, options);
}

int StreamingHistogramBuilder::ladder_depth() const {
  // The const_cast is sound: Depth/Slots/Fold only call the adapter's const
  // operations (levels/count/Load).
  VectorLadder view{const_cast<std::vector<LadderSlot>*>(&ladder_)};
  return streaming_ladder::Depth(view);
}

int StreamingHistogramBuilder::ladder_slots() const {
  VectorLadder view{const_cast<std::vector<LadderSlot>*>(&ladder_)};
  return streaming_ladder::Slots(view);
}

int StreamingHistogramBuilder::error_levels() const {
  return streaming_ladder::ErrorLevels(ladder_depth(), ladder_slots(),
                                       !buffer_.empty());
}

StatusOr<Histogram> StreamingHistogramBuilder::CommittedSummary() const {
  if (summarized_count_ == 0) {
    return Status::Invalid(
        "StreamingHistogramBuilder: no committed summary yet");
  }
  // Fold occupied slots oldest first: the highest level holds the earliest
  // buffers, so a highest-to-lowest chain keeps stream order left to right
  // (streaming_ladder::Fold's contract).
  VectorLadder view{const_cast<std::vector<LadderSlot>*>(&ladder_)};
  return streaming_ladder::Fold(view, k_, options_);
}

StatusOr<Histogram> StreamingHistogramBuilder::FoldedView() const {
  if (summarized_count_ == 0 && buffer_.empty()) {
    return Histogram::Create(
        domain_size_,
        {{{0, domain_size_}, 1.0 / static_cast<double>(domain_size_)}});
  }
  if (summarized_count_ == 0) {
    return FoldBufferIntoSummary(nullptr, 0, buffer_, domain_size_, k_,
                                 options_);
  }
  auto committed = CommittedSummary();
  if (!committed.ok()) return committed.status();
  if (buffer_.empty()) return committed;
  return FoldBufferIntoSummary(&*committed, summarized_count_, buffer_,
                               domain_size_, k_, options_);
}

Status StreamingHistogramBuilder::Flush() {
  if (buffer_.empty()) return Status::Ok();
  // Condense the buffer to a level-0 summary, then carry it upward through
  // the shared dyadic-commit hook (core/streaming_ladder.h).
  auto condensed = FoldBufferIntoSummary(nullptr, 0, buffer_, domain_size_,
                                         k_, options_);
  if (!condensed.ok()) return condensed.status();
  VectorLadder view{&ladder_};
  if (Status s = streaming_ladder::Commit(
          view, std::move(condensed).value(),
          static_cast<int64_t>(buffer_.size()), k_, options_);
      !s.ok()) {
    return s;
  }
  summarized_count_ += static_cast<int64_t>(buffer_.size());
  buffer_.clear();
  ++generation_;
  return Status::Ok();
}

StatusOr<Histogram> StreamingHistogramBuilder::Snapshot() {
  // Compute the Peek-chain value first, then commit the flush: the dyadic
  // carry merges associate differently from the read-side fold, so folding
  // a freshly committed ladder would not be bit-identical to Peek().
  auto view = FoldedView();
  if (!view.ok()) return view.status();
  if (Status s = Flush(); !s.ok()) return s;
  return view;
}

StatusOr<Histogram> StreamingHistogramBuilder::Peek() const {
  return FoldedView();
}

}  // namespace fasthist
