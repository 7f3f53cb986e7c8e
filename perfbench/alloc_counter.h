#ifndef FASTHIST_PERFBENCH_ALLOC_COUNTER_H_
#define FASTHIST_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace fasthist {
namespace perfbench {

// Heap allocations made so far by the calling thread.  alloc_counter.cc
// replaces the global operator new family in the benchmark binary only, so
// the library itself is measured unmodified; the traced run brackets each
// call it times with two reads of this counter.
uint64_t ThreadAllocations();

}  // namespace perfbench
}  // namespace fasthist

#endif  // FASTHIST_PERFBENCH_ALLOC_COUNTER_H_
