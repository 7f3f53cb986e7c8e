// The interface between the one-process store A/B harness's main program
// (ab_store_main.cc) and its two sides, one copy of ab_store_side.cc each,
// compiled against two revisions' headers and linked against their
// libraries with namespace fasthist renamed (see ab_store.sh).  It names no
// fasthist type, so it means the same thing in all three translation units.

#ifndef FASTHIST_BENCH_AB_STORE_H_
#define FASTHIST_BENCH_AB_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace ab_store {

// The served archetype, as in bench_micro's BM_StoreAddBatch.
constexpr int64_t kDomain = 1024;
constexpr int64_t kK = 8;
constexpr size_t kWindow = 64;

struct Sample {
  uint64_t key = 0;
  int64_t value = 0;
};

// One BM_StoreAddBatch shape: a store is built from `setup`, then fed
// `flushes` in a cycle; a sweep is one pass over them.
struct Shape {
  std::vector<Sample> setup;
  std::vector<std::vector<Sample>> flushes;
  // After this many sweeps the store is rebuilt, untimed (0: never).
  int sweeps_before_rebuild = 0;
};

// One revision's store running one shape.
class Side {
 public:
  Side() = default;
  Side(const Side&) = delete;
  Side& operator=(const Side&) = delete;
  virtual ~Side() = default;
  // Feeds the next `count` flushes through SummaryStore::AddBatch and
  // returns the nanoseconds those calls took, or a negative number if one
  // failed.
  virtual double TimeFlushes(int count) = 0;
};

// Defined by each side's copy of ab_store_side.cc, which is compiled with
// -DAB_STORE_FACTORY=MakeBaseSide or MakeHeadSide.
std::unique_ptr<Side> MakeBaseSide(const Shape& shape);
std::unique_ptr<Side> MakeHeadSide(const Shape& shape);

}  // namespace ab_store

#endif  // FASTHIST_BENCH_AB_STORE_H_
