#include "perfbench/workload.h"

#include <algorithm>

#include "data/generators.h"
#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#include "store/partitioned_store.h"

namespace fasthist {
namespace perfbench {
namespace {

constexpr int64_t kDomain = 1024;
constexpr size_t kValuePool = size_t{1} << 20;
constexpr size_t kSlotPool = size_t{1} << 18;

// ingest_hot: own keys per connection, and setup samples per key (4
// windows, so first condenses and the first ladder planes happen in setup).
constexpr uint64_t kHotKeys = 64;
constexpr int kHotSetupPerKey = 256;

// query_mix: preloaded keys per connection (256..1023 samples each, ladders
// 2-4 levels deep) and the write keys each ingest touches once.
constexpr uint64_t kMixKeys = 1024;
constexpr uint64_t kMixWriteKeys = 64;
constexpr uint64_t kMixWriteBase = 1 << 16;
constexpr int kMixMinPreload = 256;
constexpr int kMixMaxPreload = 1023;
// One ingest, six quantile queries, one pull.
constexpr int kMixCycle = 8;

// ingest_hot and ingest_wide: keys per connection that only the read timing
// after each loaded phase reads.  Setup preloads them like query_mix's
// keys, so what a read costs does not depend on how far the load got.
constexpr uint64_t kReadKeys = 64;
constexpr uint64_t kReadBase = uint64_t{1} << 20;

// ingest_wide: own keys per connection, the samples of each batch that go
// to the two commit keys, and the most sweeps a connection may send before
// some key could reach a full window (each key holds one setup sample; the
// key walk gives every key one sample per sweep).
constexpr uint64_t kWideKeys = 131072;
constexpr size_t kWideCommitSamples = 8;
constexpr uint64_t kWideMaxSweeps = 62;
constexpr uint64_t kWideCommitBase = uint64_t{1} << 24;
constexpr uint64_t kWideStride = 0x9e3779b97f4a7c15ull;  // odd
constexpr uint64_t kWideMaxIngests =
    kWideMaxSweeps * kWideKeys / (kBatchSamples - kWideCommitSamples);

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t SubSeed(uint64_t seed, Workload workload, int conn, uint64_t purpose) {
  return SplitMix(SplitMix(SplitMix(seed) ^ static_cast<uint64_t>(workload)) ^
                  (static_cast<uint64_t>(conn) << 8 | purpose));
}

// First slot at or after `base` whose key lands in partition `p`.
uint64_t KeyInPartition(int conn, uint64_t base, uint32_t p) {
  for (uint64_t slot = base;; ++slot) {
    const uint64_t key = WorkloadInputs::KeyOf(conn, slot);
    if (PartitionOfKey(key, kLoops) == p) return key;
  }
}

// Appends to `setup` a preload of `count` keys of `conn` from slot `base`
// on, each given kMixMinPreload..kMixMaxPreload samples, interleaved.
void Preload(int conn, uint64_t base, uint64_t count,
             const AliasSampler& values, Rng& rng,
             std::vector<KeyedSample>* setup) {
  std::vector<int> preload(count);
  for (int& n : preload) {
    n = kMixMinPreload +
        static_cast<int>(rng.UniformInt(kMixMaxPreload - kMixMinPreload + 1));
  }
  for (int round = 0; round < kMixMaxPreload; ++round) {
    for (uint64_t slot = 0; slot < count; ++slot) {
      if (round < preload[slot]) {
        setup->push_back({WorkloadInputs::KeyOf(conn, base + slot),
                          values.Sample(&rng)});
      }
    }
  }
}

std::vector<std::vector<KeyedSample>> Chunk(
    const std::vector<KeyedSample>& samples, size_t size) {
  std::vector<std::vector<KeyedSample>> batches;
  for (size_t begin = 0; begin < samples.size(); begin += size) {
    const size_t end = std::min(samples.size(), begin + size);
    batches.emplace_back(samples.begin() + static_cast<ptrdiff_t>(begin),
                         samples.begin() + static_cast<ptrdiff_t>(end));
  }
  return batches;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  for (const Workload w :
       {Workload::kIngestHot, Workload::kIngestWide, Workload::kQueryMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kIngestHot:
      return "ingest_hot";
    case Workload::kIngestWide:
      return "ingest_wide";
    case Workload::kQueryMix:
      return "query_mix";
  }
  return "?";
}

WorkloadInputs WorkloadInputs::Generate(Workload workload, uint64_t seed) {
  WorkloadInputs in;
  in.workload_ = workload;
  in.seed_ = seed;

  // The paper's 10-piece "hist" panel over domain 1024, as a distribution.
  HistDatasetOptions hist;
  hist.domain_size = kDomain;
  auto distribution = NormalizeToDistribution(MakeHistDataset(hist));
  auto sampler = AliasSampler::Create(distribution.value());
  const AliasSampler& values = sampler.value();

  for (int c = 0; c < kConnections; ++c) {
    ConnPools& pools = in.pools_[static_cast<size_t>(c)];
    Rng rng(SubSeed(seed, workload, c, 1));
    pools.values.resize(kValuePool);
    for (int16_t& v : pools.values) {
      v = static_cast<int16_t>(values.Sample(&rng));
    }
    pools.value_offset = rng.NextUint64() % kValuePool;

    std::vector<KeyedSample> setup;
    std::vector<uint64_t>& barrier = in.barrier_keys_[static_cast<size_t>(c)];
    switch (workload) {
      case Workload::kIngestHot: {
        pools.slots.resize(kSlotPool);
        for (uint16_t& s : pools.slots) {
          s = static_cast<uint16_t>(rng.UniformInt(kHotKeys));
        }
        for (int round = 0; round < kHotSetupPerKey; ++round) {
          for (uint64_t slot = 0; slot < kHotKeys; ++slot) {
            setup.push_back({KeyOf(c, slot), values.Sample(&rng)});
          }
        }
        for (uint32_t p = 0; p < kLoops; ++p) {
          barrier.push_back(KeyInPartition(c, 0, p));
        }
        for (uint64_t slot = 0; slot < kHotKeys; ++slot) {
          if (slot < 4) in.check_keys_.push_back(KeyOf(c, slot));
          in.probe_keys_.push_back(KeyOf(c, slot));
        }
        break;
      }
      case Workload::kIngestWide: {
        pools.start = rng.NextUint64();
        for (uint32_t p = 0; p < kLoops; ++p) {
          pools.commit_keys.push_back(KeyInPartition(c, kWideCommitBase, p));
          setup.push_back({pools.commit_keys.back(), values.Sample(&rng)});
        }
        barrier = pools.commit_keys;
        for (uint64_t slot = 0; slot < kWideKeys; ++slot) {
          setup.push_back({KeyOf(c, slot), values.Sample(&rng)});
        }
        for (uint64_t i = 0; i < 128; ++i) {
          const uint64_t key = KeyOf(c, i * (kWideKeys / 128));
          if (i % 8 == 0) in.check_keys_.push_back(key);
          in.probe_keys_.push_back(key);
        }
        for (const uint64_t key : pools.commit_keys) {
          in.check_keys_.push_back(key);
          in.probe_keys_.push_back(key);
        }
        break;
      }
      case Workload::kQueryMix: {
        // Write keys exist from the first setup batch on, so the setup
        // barriers can query them.
        for (uint64_t w = 0; w < kMixWriteKeys; ++w) {
          setup.push_back({KeyOf(c, kMixWriteBase + w), values.Sample(&rng)});
        }
        Preload(c, 0, kMixKeys, values, rng, &setup);
        for (uint32_t p = 0; p < kLoops; ++p) {
          barrier.push_back(KeyInPartition(c, kMixWriteBase, p));
        }
        for (uint64_t slot = 0; slot < 128; ++slot) {
          if (slot < 8) in.check_keys_.push_back(KeyOf(c, slot));
          in.probe_keys_.push_back(KeyOf(c, slot));
        }
        for (uint64_t w = 0; w < 8; ++w) {
          if (w < 4) in.check_keys_.push_back(KeyOf(c, kMixWriteBase + w));
          in.probe_keys_.push_back(KeyOf(c, kMixWriteBase + w));
        }
        break;
      }
    }
    if (workload != Workload::kQueryMix) {
      Preload(c, kReadBase, kReadKeys, values, rng, &setup);
      for (uint64_t slot = 0; slot < kReadKeys; ++slot) {
        const uint64_t key = KeyOf(c, kReadBase + slot);
        in.read_keys_.push_back(key);
        // ingest_wide's commit keys alone are too few to score.
        if (workload == Workload::kIngestWide) {
          if (slot < 4) in.check_keys_.push_back(key);
          in.probe_keys_.push_back(key);
        }
      }
    }
    in.setup_[static_cast<size_t>(c)] = Chunk(setup, kSetupBatchSamples);
  }
  return in;
}

bool WorkloadInputs::MayCondense(uint64_t key) const {
  if (workload_ != Workload::kIngestWide) return true;
  for (const ConnPools& pools : pools_) {
    for (const uint64_t k : pools.commit_keys) {
      if (k == key) return true;
    }
  }
  const uint64_t slot = key & ((uint64_t{1} << 40) - 1);
  return slot >= kReadBase && slot < kReadBase + kReadKeys;
}

WorkloadInputs::Stream WorkloadInputs::TimedStream(int conn) const {
  return Stream(this, conn, SubSeed(seed_, workload_, conn, 2));
}

void WorkloadInputs::Stream::FillBatch(std::vector<KeyedSample>* batch) {
  const ConnPools& pools = inputs_->pools_[static_cast<size_t>(conn_)];
  const auto value_at = [&pools](uint64_t j) {
    return static_cast<int64_t>(
        pools.values[(j + pools.value_offset) & (kValuePool - 1)]);
  };
  batch->clear();
  switch (inputs_->workload_) {
    case Workload::kIngestHot:
      for (size_t i = 0; i < kBatchSamples; ++i) {
        const uint64_t j = samples_ + i;
        batch->push_back(
            {KeyOf(conn_, pools.slots[j & (kSlotPool - 1)]), value_at(j)});
      }
      samples_ += kBatchSamples;
      break;
    case Workload::kIngestWide: {
      // An odd multiplier walks all kWideKeys slots once per sweep, so no
      // key gets a second sample before every key has had one.  The
      // multiplier is fixed, so every seed scatters its accesses alike.
      const size_t uniform = kBatchSamples - kWideCommitSamples;
      for (size_t i = 0; i < uniform; ++i) {
        const uint64_t j = samples_ + i;
        const uint64_t slot = (j * kWideStride + pools.start) & (kWideKeys - 1);
        batch->push_back({KeyOf(conn_, slot), value_at(j)});
      }
      for (size_t i = 0; i < kWideCommitSamples; ++i) {
        batch->push_back({pools.commit_keys[i % pools.commit_keys.size()],
                          value_at((kValuePool / 2) + samples_ + i)});
      }
      samples_ += uniform;
      break;
    }
    case Workload::kQueryMix:
      for (uint64_t w = 0; w < kMixWriteKeys; ++w) {
        batch->push_back(
            {KeyOf(conn_, kMixWriteBase + w), value_at(samples_ + w)});
      }
      samples_ += kMixWriteKeys;
      break;
  }
}

// A read of a random preloaded key of either connection.
Op WorkloadInputs::Stream::RandomRead(OpKind kind) {
  Op op;
  op.kind = kind;
  op.key = KeyOf(static_cast<int>(rng_.UniformInt(kConnections)),
                 static_cast<uint64_t>(rng_.UniformInt(kMixKeys)));
  if (kind == OpKind::kQuery) {
    op.q = kProbeQs[static_cast<size_t>(rng_.UniformInt(kProbeQs.size()))];
  }
  return op;
}

bool WorkloadInputs::Stream::Next(Op* op, std::vector<KeyedSample>* batch) {
  if (barrier_due_) {
    barrier_due_ = false;
    *op = Op();
    op->kind = OpKind::kBarrier;
    ++ops_;
    return true;
  }
  const Workload workload = inputs_->workload_;
  if (workload == Workload::kIngestWide && ingests_ >= kWideMaxIngests) {
    return false;
  }
  if (workload == Workload::kQueryMix && cycle_pos_ != 0) {
    *op = RandomRead(cycle_pos_ < kMixCycle - 1 ? OpKind::kQuery
                                                : OpKind::kPull);
  } else {
    *op = Op();
    FillBatch(batch);
    ++ingests_;
    if (ingests_ % kBarrierEvery == 0) barrier_due_ = true;
  }
  if (workload == Workload::kQueryMix) cycle_pos_ = (cycle_pos_ + 1) % kMixCycle;
  ++ops_;
  return true;
}

}  // namespace perfbench
}  // namespace fasthist
