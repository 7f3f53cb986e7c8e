#include "perfbench/tracer.h"

#include <algorithm>
#include <cstdio>

#include "perfbench/alloc_counter.h"
#include "util/clock.h"

namespace fasthist {
namespace perfbench {

Tracer::Tracer(size_t max_raw_spans) : max_raw_(max_raw_spans) {
  stack_.reserve(16);
  raw_.reserve(max_raw_spans);
  Calibrate();
}

int Tracer::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  if (names_.size() >= static_cast<size_t>(kMaxNames)) return -1;
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

void Tracer::Calibrate() {
  // Medians of many empty spans, and of spans holding one empty child.
  constexpr int kRounds = 4001;
  std::vector<double> empty(kRounds);
  std::vector<double> nested(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    const uint64_t a = MonotonicNanos();
    const uint64_t b = MonotonicNanos();
    empty[static_cast<size_t>(i)] = static_cast<double>(b - a);
    const uint64_t c = MonotonicNanos();
    const uint64_t d = MonotonicNanos();
    const uint64_t e = MonotonicNanos();
    const uint64_t f = MonotonicNanos();
    (void)d;
    (void)e;
    nested[static_cast<size_t>(i)] = static_cast<double>(f - c);
  }
  std::nth_element(empty.begin(), empty.begin() + kRounds / 2, empty.end());
  std::nth_element(nested.begin(), nested.begin() + kRounds / 2, nested.end());
  empty_span_ns_ = empty[kRounds / 2];
  child_cost_ns_ = std::max(0.0, nested[kRounds / 2] - empty_span_ns_);
}

void Tracer::Open(int name) {
  if (!recording_) return;
  if (origin_ns_ == 0) origin_ns_ = MonotonicNanos();
  Frame frame;
  frame.name = name;
  frame.raw_index = -1;
  frame.child_ns = 0.0;
  frame.child_allocs = 0;
  frame.children = 0;
  if (raw_.size() < max_raw_) {
    frame.raw_index = static_cast<int64_t>(raw_.size());
    RawSpan span;
    span.request = request_id_;
    span.parent = stack_.empty() ? -1 : stack_.back().raw_index;
    span.name = static_cast<int16_t>(name);
    span.phase = static_cast<int16_t>(phase_);
    span.start_ns = 0;
    span.end_ns = 0;
    span.self_allocs = 0;
    raw_.push_back(span);
  } else {
    ++dropped_;
  }
  stack_.push_back(frame);
  // Last, so the bookkeeping above stays outside the measured interval.
  stack_.back().start_allocs = ThreadAllocations();
  stack_.back().start_ns = MonotonicNanos();
}

void Tracer::Close() {
  if (!recording_) return;
  const uint64_t end_ns = MonotonicNanos();
  const uint64_t end_allocs = ThreadAllocations();
  Frame frame = stack_.back();
  stack_.pop_back();
  const double measured = static_cast<double>(end_ns - frame.start_ns);
  const uint64_t allocs = end_allocs - frame.start_allocs;
  const double self_ns = measured - empty_span_ns_ - frame.child_ns -
                         frame.children * child_cost_ns_;
  const uint64_t self_allocs = allocs - frame.child_allocs;
  Aggregate& agg =
      aggregates_[static_cast<size_t>(phase_)][static_cast<size_t>(frame.name)];
  ++agg.count;
  agg.self_ns += self_ns;
  agg.self_allocs += self_allocs;
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_ns += measured - empty_span_ns_;
    parent.child_allocs += allocs;
    ++parent.children;
  }
  if (frame.raw_index >= 0) {
    RawSpan& span = raw_[static_cast<size_t>(frame.raw_index)];
    span.start_ns = frame.start_ns - origin_ns_;
    span.end_ns = end_ns - origin_ns_;
    span.self_allocs = self_allocs;
  }
}

Tracer::Aggregate Tracer::total(int name) const {
  Aggregate sum;
  for (int phase = 0; phase < kNumPhases; ++phase) {
    const Aggregate& a = aggregate(phase, name);
    sum.count += a.count;
    sum.self_ns += a.self_ns;
    sum.self_allocs += a.self_allocs;
  }
  return sum;
}

Status Tracer::WriteSpans(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Invalid("perfbench: cannot write spans to " + path);
  }
  std::fprintf(file,
               "request\tspan\tparent\tname\tphase\tstart_ns\tend_ns\t"
               "self_allocs\n");
  for (size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& s = raw_[i];
    std::fprintf(file, "%llu\t%zu\t%lld\t%s\t%s\t%llu\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.request), i,
                 static_cast<long long>(s.parent),
                 names_[static_cast<size_t>(s.name)].c_str(),
                 s.phase == 0 ? "timed" : "probe",
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<unsigned long long>(s.self_allocs));
  }
  const bool ok = std::fclose(file) == 0;
  return ok ? Status::Ok()
            : Status::Invalid("perfbench: error writing spans to " + path);
}

}  // namespace perfbench
}  // namespace fasthist
