#ifndef FASTHIST_PERFBENCH_TRACER_H_
#define FASTHIST_PERFBENCH_TRACER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fasthist {
namespace perfbench {

// In-memory span recorder for the single-threaded traced run.  Each span has
// a name, start, end, parent span and the id of the request it belongs to.
// Self time (duration minus the child spans it covers) and self allocations
// are aggregated per (phase, name) as spans close; the raw spans are kept in
// a bounded buffer and written out once, at the end of the run.
//
// Reading the clock costs tens of nanoseconds, which is the same order as
// the cheapest stages timed here (a ring push + pop).  The recorder measures
// what an empty span and an empty child cost at construction and subtracts
// both from every self time.
class Tracer {
 public:
  static constexpr int kMaxNames = 48;
  static constexpr int kNumPhases = 2;

  struct Aggregate {
    uint64_t count = 0;
    double self_ns = 0.0;
    uint64_t self_allocs = 0;
  };

  explicit Tracer(size_t max_raw_spans);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Names are registered before any span opens; ids index the aggregates.
  int Intern(const std::string& name);

  // While recording is off, spans are neither aggregated nor kept.
  void set_recording(bool on) { recording_ = on; }
  void set_phase(int phase) { phase_ = phase; }
  void BeginRequest() { ++request_id_; }

  void Open(int name);
  void Close();

  const Aggregate& aggregate(int phase, int name) const {
    return aggregates_[static_cast<size_t>(phase)][static_cast<size_t>(name)];
  }
  // Sum over both phases.
  Aggregate total(int name) const;

  double empty_span_ns() const { return empty_span_ns_; }
  size_t raw_spans() const { return raw_.size(); }
  uint64_t dropped_spans() const { return dropped_; }

  // One line per kept span: request, span, parent, name, phase, start_ns,
  // end_ns, self allocations.  Start/end are relative to the first span.
  Status WriteSpans(const std::string& path) const;

  // RAII helper.
  class Scope {
   public:
    Scope(Tracer& tracer, int name) : tracer_(tracer) { tracer_.Open(name); }
    ~Scope() { tracer_.Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

 private:
  struct Frame {
    int name;
    int64_t raw_index;  // -1 when not kept
    uint64_t start_ns;
    uint64_t start_allocs;
    double child_ns;
    uint64_t child_allocs;
    uint32_t children;
  };
  struct RawSpan {
    uint64_t request;
    int64_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t self_allocs;
    int16_t name;
    int16_t phase;
  };

  void Calibrate();

  std::vector<std::string> names_;
  std::array<std::array<Aggregate, kMaxNames>, kNumPhases> aggregates_{};
  std::vector<Frame> stack_;
  std::vector<RawSpan> raw_;
  size_t max_raw_;
  uint64_t dropped_ = 0;
  uint64_t request_id_ = 0;
  uint64_t origin_ns_ = 0;
  bool recording_ = true;
  int phase_ = 0;
  // Calibrated clock costs: what an empty span measures, and what one empty
  // child adds to its parent's measured duration.
  double empty_span_ns_ = 0.0;
  double child_cost_ns_ = 0.0;
};

}  // namespace perfbench
}  // namespace fasthist

#endif  // FASTHIST_PERFBENCH_TRACER_H_
