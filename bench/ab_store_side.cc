// One side of the store A/B harness (ab_store.sh): a SummaryStore of one
// revision fed a BM_StoreAddBatch shape.  Compiled once per side, against
// that revision's headers, with -Dfasthist=<the side's namespace> and
// -DAB_STORE_FACTORY=<MakeBaseSide or MakeHeadSide>; it uses only store API
// that every revision being compared has.

#include <chrono>
#include <optional>
#include <vector>

#include "ab_store.h"
#include "store/summary_store.h"

namespace ab_store {
namespace {

class StoreSide : public Side {
 public:
  explicit StoreSide(const Shape& shape)
      : sweeps_before_rebuild_(shape.sweeps_before_rebuild) {
    config_.domain_size = kDomain;
    config_.k = kK;
    config_.window_capacity = kWindow;
    setup_ = Convert(shape.setup);
    for (const std::vector<Sample>& flush : shape.flushes) {
      flushes_.push_back(Convert(flush));
    }
    Rebuild();
  }

  double TimeFlushes(int count) override {
    if (!ok_) return -1.0;
    std::chrono::steady_clock::duration spent{};
    for (int i = 0; i < count; ++i) {
      const auto start = std::chrono::steady_clock::now();
      ok_ = store_->AddBatch(flushes_[next_flush_]).ok();
      spent += std::chrono::steady_clock::now() - start;
      if (!ok_) return -1.0;
      if (++next_flush_ == flushes_.size()) {
        next_flush_ = 0;
        if (++sweeps_ == sweeps_before_rebuild_) Rebuild();
      }
    }
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(spent).count());
  }

 private:
  static std::vector<fasthist::KeyedSample> Convert(
      const std::vector<Sample>& samples) {
    std::vector<fasthist::KeyedSample> converted(samples.size());
    for (size_t i = 0; i < samples.size(); ++i) {
      converted[i].key = samples[i].key;
      converted[i].value = samples[i].value;
    }
    return converted;
  }

  void Rebuild() {
    store_.reset();
    auto created = fasthist::SummaryStore::Create(config_);
    ok_ = created.ok();
    if (!ok_) return;
    store_.emplace(std::move(created).value());
    ok_ = store_->AddBatch(setup_).ok();
    sweeps_ = 0;
  }

  fasthist::ArchetypeConfig config_;
  std::vector<fasthist::KeyedSample> setup_;
  std::vector<std::vector<fasthist::KeyedSample>> flushes_;
  int sweeps_before_rebuild_ = 0;
  std::optional<fasthist::SummaryStore> store_;
  size_t next_flush_ = 0;
  int sweeps_ = 0;
  bool ok_ = false;
};

}  // namespace

std::unique_ptr<Side> AB_STORE_FACTORY(const Shape& shape) {
  return std::make_unique<StoreSide>(shape);
}

}  // namespace ab_store
