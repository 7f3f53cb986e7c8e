// Real-thread coverage of the keyed store's concurrency carve-out:
// AddBatch calls on disjoint key sets running at once, checked bit for bit
// against a serial replay.  The ThreadSanitizer CI job (FASTHIST_TSAN) runs
// this binary, so a racy plane publication fails there with a report.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "store/summary_store.h"
#include "tests/fasthist_test.h"
#include "tests/histogram_testutil.h"
#include "util/random.h"

namespace fasthist {
namespace {

using ::fasthist::testing::BitIdentical;

constexpr int64_t kDomain = 512;
constexpr int64_t kK = 8;

// The summary store's ingest carve-out: once every key exists (serial
// EnsureKeys), AddBatch calls on *disjoint* key sets may run concurrently —
// writers touch disjoint plane slices, and the one shared mutation
// (lazily deepening a chunk's ladder by a level plane) is CAS-published.
// Threads share chunks (keys are interleaved across them round-robin by
// allocation order) and run enough batches that ladders deepen mid-run, so
// TSan sees the plane-publication race window.  Afterwards every key must
// be bit-identical to a serial replay into a second store.
TEST(StoreConcurrentAddBatchDisjointKeys) {
  constexpr int kThreads = 4;
  constexpr size_t kKeysPerThread = 96;  // 384 keys: two chunks, shared
  constexpr int kBatchesPerThread = 12;
  constexpr size_t kBatchSamples = 3000;

  ArchetypeConfig config;
  config.domain_size = kDomain;
  config.k = kK;
  config.window_capacity = 32;

  auto concurrent = SummaryStore::Create(config);
  CHECK_OK(concurrent);
  auto serial = SummaryStore::Create(config);
  CHECK_OK(serial);

  // Key t*1000+i belongs to thread t; creation is serial and interleaved
  // across threads so each chunk's slots mix owners.
  std::vector<uint64_t> all_keys;
  for (size_t i = 0; i < kKeysPerThread; ++i) {
    for (int t = 0; t < kThreads; ++t) {
      all_keys.push_back(static_cast<uint64_t>(t) * 1000 + i);
    }
  }
  CHECK(concurrent->EnsureKeys(all_keys).ok());
  CHECK(serial->EnsureKeys(all_keys).ok());

  // Pre-built batches: thread t ingests only its own keys.
  std::vector<std::vector<std::vector<KeyedSample>>> batches(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    Rng rng(0x5000 + static_cast<uint64_t>(t));
    batches[static_cast<size_t>(t)].resize(kBatchesPerThread);
    for (auto& batch : batches[static_cast<size_t>(t)]) {
      batch.resize(kBatchSamples);
      for (KeyedSample& sample : batch) {
        sample.key = static_cast<uint64_t>(t) * 1000 +
                     static_cast<uint64_t>(
                         rng.UniformInt(static_cast<int64_t>(kKeysPerThread)));
        sample.value = rng.UniformInt(kDomain);
      }
    }
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const auto& batch : batches[static_cast<size_t>(t)]) {
        if (!concurrent->AddBatch(batch).ok()) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  CHECK(!failed.load());

  for (int t = 0; t < kThreads; ++t) {
    for (const auto& batch : batches[static_cast<size_t>(t)]) {
      CHECK(serial->AddBatch(batch).ok());
    }
  }
  for (uint64_t key : all_keys) {
    auto concurrent_view = concurrent->Query(key);
    CHECK_OK(concurrent_view);
    auto serial_view = serial->Query(key);
    CHECK_OK(serial_view);
    CHECK(BitIdentical(*concurrent_view, *serial_view));
    CHECK(concurrent->NumSamples(key).value() ==
          serial->NumSamples(key).value());
  }
}

}  // namespace
}  // namespace fasthist
