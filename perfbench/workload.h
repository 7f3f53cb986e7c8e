#ifndef FASTHIST_PERFBENCH_WORKLOAD_H_
#define FASTHIST_PERFBENCH_WORKLOAD_H_

// The benchmark's three traffic mixes and the inputs they generate from a
// seed.  The live run and the traced run both consume these streams, so
// the server and the in-process replay see exactly the same operations.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "store/summary_store.h"
#include "util/random.h"

namespace fasthist {
namespace perfbench {

enum class Workload { kIngestHot, kIngestWide, kQueryMix };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

// Fixed shape of every run: 2 worker loops (= partitions) and 2 closed-loop
// client connections, 4 threads on a 4-core host.
constexpr int kConnections = 2;
constexpr uint32_t kLoops = 2;
constexpr size_t kBatchSamples = 1024;
// Ingest batches between two commit barriers of one connection.
constexpr int kBarrierEvery = 8;
// Setup sends bigger batches (fewer round trips) and a commit barrier after
// each, which keeps every partition below the soft watermark.
constexpr size_t kSetupBatchSamples = 8192;
// Quantiles scored for the rank error, and asked by query_mix.
constexpr std::array<double, 9> kProbeQs = {0.01, 0.05, 0.1,  0.25, 0.5,
                                            0.75, 0.9,  0.95, 0.99};

enum class OpKind : uint8_t { kIngest, kBarrier, kQuery, kPull };

struct Op {
  OpKind kind = OpKind::kIngest;
  uint64_t key = 0;  // kQuery / kPull
  double q = 0.5;    // kQuery
};

// Every input of one (workload, seed).  Generation is deterministic.
class WorkloadInputs {
 public:
  static WorkloadInputs Generate(Workload workload, uint64_t seed);

  Workload workload() const { return workload_; }

  // Setup batches of one connection, sent in order with a commit barrier
  // after each.
  const std::vector<std::vector<KeyedSample>>& setup_batches(int conn) const {
    return setup_[static_cast<size_t>(conn)];
  }
  // The commit barrier's targets: one key owned by `conn` in each partition.
  const std::vector<uint64_t>& barrier_keys(int conn) const {
    return barrier_keys_[static_cast<size_t>(conn)];
  }
  // After the timed phase every probe key is pulled and asked its
  // quantiles.  The check keys' pulled snapshots must match the offline
  // replay.
  const std::vector<uint64_t>& probe_keys() const { return probe_keys_; }
  const std::vector<uint64_t>& check_keys() const { return check_keys_; }
  // ingest_hot and ingest_wide: the keys the read timing after each loaded
  // phase reads.  Only setup writes them (256-1023 samples each); empty
  // for query_mix, whose load reads.
  const std::vector<uint64_t>& read_keys() const { return read_keys_; }

  // Whether `key` can fill a 64-sample window.  In ingest_wide only the
  // commit keys and the read keys can: every other key holds fewer than 64
  // samples, as many as the phase's speed gave it.  The traced run's
  // decomposition pass tracks only these keys, and only their served
  // quantiles count towards the rank error, which would otherwise follow
  // the host's speed instead of the summaries' accuracy.
  bool MayCondense(uint64_t key) const;

  // The timed phase of one connection: an endless (ingest_wide: bounded)
  // deterministic sequence of operations.  ingest_hot and ingest_wide send
  // ingests only; query_mix repeats 1 ingest, 6 queries and 1 pull on random
  // preloaded keys.  A commit barrier follows every 8th ingest.
  class Stream {
   public:
    // Produces the next operation; ingest operations fill `batch`.  False
    // once a bounded stream is exhausted.
    bool Next(Op* op, std::vector<KeyedSample>* batch);
    uint64_t ops() const { return ops_; }
    uint64_t ingests() const { return ingests_; }

   private:
    friend class WorkloadInputs;
    Stream(const WorkloadInputs* inputs, int conn, uint64_t seed)
        : inputs_(inputs), conn_(conn), rng_(seed) {}

    void FillBatch(std::vector<KeyedSample>* batch);
    Op RandomRead(OpKind kind);

    const WorkloadInputs* inputs_;
    int conn_;
    Rng rng_;
    uint64_t ops_ = 0;
    uint64_t ingests_ = 0;
    uint64_t samples_ = 0;  // uniform samples generated so far
    int cycle_pos_ = 0;     // query_mix position within its 8-op cycle
    bool barrier_due_ = false;
  };
  Stream TimedStream(int conn) const;

  // Key of slot `slot` owned by connection `conn`.
  static uint64_t KeyOf(int conn, uint64_t slot) {
    return (static_cast<uint64_t>(conn + 1) << 40) | slot;
  }

 private:
  struct ConnPools {
    std::vector<int16_t> values;   // sampled values, cycled
    std::vector<uint16_t> slots;   // ingest_hot: own-key slot per sample
    uint64_t value_offset = 0;
    uint64_t start = 0;            // ingest_wide: key-walk offset
    std::vector<uint64_t> commit_keys;  // ingest_wide
  };

  Workload workload_ = Workload::kIngestHot;
  uint64_t seed_ = 0;
  std::array<std::vector<std::vector<KeyedSample>>, kConnections> setup_;
  std::array<std::vector<uint64_t>, kConnections> barrier_keys_;
  std::array<ConnPools, kConnections> pools_;
  std::vector<uint64_t> probe_keys_;
  std::vector<uint64_t> check_keys_;
  std::vector<uint64_t> read_keys_;
};

}  // namespace perfbench
}  // namespace fasthist

#endif  // FASTHIST_PERFBENCH_WORKLOAD_H_
