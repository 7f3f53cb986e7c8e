// The sharded socket front-end (net/sharded_ingest_server.h) and its
// building blocks: the key-hash partitioned store, the SPSC hand-off ring,
// multi-loop ingest/query end to end over real loopback sockets, the
// per-partition shed policy with ACK-reconstructed replay bit-identity,
// epoll-vs-poll behavioral equivalence, the scatter-gathered kStats
// reply, and the graceful-shutdown drain.  The multi-loop stress cases are
// the TSan CI job's main target for this layer.

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/sharded_ingest_server.h"
#include "net/spsc_ring.h"
#include "service/wire_format.h"
#include "store/partitioned_store.h"
#include "store/summary_store.h"
#include "tests/fasthist_test.h"
#include "tests/histogram_testutil.h"
#include "util/clock.h"
#include "util/random.h"

namespace fasthist {
namespace {

using ::fasthist::testing::BitIdentical;

// --- Shared helpers ---------------------------------------------------------

std::unique_ptr<ShardedIngestServer> StartSharded(
    const ShardedIngestServerOptions& options) {
  auto server = ShardedIngestServer::Create(options);
  CHECK_OK(server);
  std::unique_ptr<ShardedIngestServer> owned = std::move(server).value();
  CHECK(owned->Start().ok());
  return owned;
}

IngestClient ConnectTo(const ShardedIngestServer& server) {
  auto client = IngestClient::Connect("127.0.0.1", server.port());
  CHECK_OK(client);
  return std::move(client).value();
}

// A batch spread round-robin over `keys`, so with several partitions every
// batch crosses loop boundaries (the hand-off rings are always exercised).
std::vector<KeyedSample> MakeMixedBatch(Rng* rng,
                                        const std::vector<uint64_t>& keys,
                                        size_t n, int64_t domain) {
  std::vector<KeyedSample> batch(n);
  for (size_t i = 0; i < n; ++i) {
    batch[i].key = keys[i % keys.size()];
    batch[i].value = rng->UniformInt(domain);
  }
  return batch;
}

bool SnapshotsBitIdentical(const ShardSnapshot& a, const ShardSnapshot& b) {
  return EncodeShardSnapshot(a) == EncodeShardSnapshot(b);
}

// Every key the replay stores know must agree bit-for-bit with the drained
// server state — both presence and the summary bytes.
void CheckDrainedMatchesReplay(const ShardedIngestServer& server,
                               const SummaryStore& offline,
                               const std::vector<uint64_t>& keys,
                               uint64_t shard_id) {
  for (const uint64_t key : keys) {
    const bool offline_has = offline.Contains(key);
    CHECK(server.store().Contains(key) == offline_has);
    if (!offline_has) continue;
    auto drained = server.ExportKeyedSnapshot(key);
    CHECK_OK(drained);
    auto expected = offline.ExportKeyedSnapshot(key, shard_id);
    CHECK_OK(expected);
    CHECK(SnapshotsBitIdentical(*drained, *expected));
  }
}

// --- Partitioned store ------------------------------------------------------

TEST(PartitionedStoreRoutesAndRollsUpDeterministically) {
  // One partition is the identity map.
  for (const uint64_t key : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    CHECK(PartitionOfKey(key, 1) == 0);
  }
  // The splitmix finalizer spreads adjacent keys: 64 consecutive keys must
  // touch all four partitions (a clustered map would starve workers).
  {
    std::vector<bool> hit(4, false);
    for (uint64_t key = 0; key < 64; ++key) hit[PartitionOfKey(key, 4)] = true;
    CHECK(hit[0] && hit[1] && hit[2] && hit[3]);
  }

  ArchetypeConfig config;
  config.domain_size = 512;
  Rng rng(20150601);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 16; ++k) keys.push_back(700 + k);
  std::vector<KeyedSample> stream(4096);
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].key = keys[static_cast<size_t>(
        rng.UniformInt(static_cast<int64_t>(keys.size())))];
    stream[i].value = rng.UniformInt(config.domain_size);
  }

  auto partitioned = PartitionedSummaryStore::Create(config, 4);
  CHECK_OK(partitioned);
  // Empty store: the cross-partition reduce has nothing to fold.
  CHECK(!partitioned
             ->MergeAllMatching([](uint64_t) { return true; }, config.k)
             .ok());
  CHECK(partitioned->AddBatch(stream).ok());
  auto plain = SummaryStore::Create(config);
  CHECK_OK(plain);
  CHECK(plain->AddBatch(stream).ok());

  CHECK(partitioned->num_keys() == keys.size());
  for (const uint64_t key : keys) {
    // Exactly one partition holds each key, and it is the hash's pick.
    const uint32_t home = partitioned->partition_of(key);
    for (uint32_t p = 0; p < 4; ++p) {
      CHECK(partitioned->partition(p).Contains(key) == (p == home));
    }
    // Partitioning changes which store holds a key, never the computation:
    // per-key state is bit-identical to the unpartitioned store's.
    auto via_partitioned = partitioned->ExportKeyedSnapshot(key, 77);
    CHECK_OK(via_partitioned);
    auto via_plain = plain->ExportKeyedSnapshot(key, 77);
    CHECK_OK(via_plain);
    CHECK(SnapshotsBitIdentical(*via_partitioned, *via_plain));
    auto n_partitioned = partitioned->NumSamples(key);
    auto n_plain = plain->NumSamples(key);
    CHECK_OK(n_partitioned);
    CHECK_OK(n_plain);
    CHECK(*n_partitioned == *n_plain);
  }

  // The cross-partition rollup is a pure function of per-key state: a
  // second store fed the same per-key subsequences in a completely
  // different arrival order (per-key replay, reverse key order) reduces to
  // the identical aggregate, bit for bit.
  auto replayed = PartitionedSummaryStore::Create(config, 4);
  CHECK_OK(replayed);
  for (size_t ki = keys.size(); ki > 0; --ki) {
    std::vector<KeyedSample> only;
    for (const KeyedSample& sample : stream) {
      if (sample.key == keys[ki - 1]) only.push_back(sample);
    }
    CHECK(replayed->AddBatch(only).ok());
  }
  auto rollup_a =
      partitioned->MergeAllMatching([](uint64_t) { return true; }, config.k);
  auto rollup_b =
      replayed->MergeAllMatching([](uint64_t) { return true; }, config.k);
  CHECK_OK(rollup_a);
  CHECK_OK(rollup_b);
  CHECK(BitIdentical(rollup_a->aggregate, rollup_b->aggregate));
  CHECK(rollup_a->total_weight == rollup_b->total_weight);
  CHECK_NEAR(rollup_a->total_weight, static_cast<double>(stream.size()), 0.0);
  CHECK_NEAR(rollup_a->aggregate.TotalMass(), 1.0, 1e-6);
}

// --- SPSC ring --------------------------------------------------------------

TEST(SpscRingStressTransfersAllBatchesInOrder) {
  // Full-ring Push refuses and leaves the value with the caller.
  {
    SpscRing<std::vector<uint64_t>> ring(4);
    for (uint64_t i = 0; i < 4; ++i) {
      std::vector<uint64_t> v{i};
      CHECK(ring.Push(std::move(v)));
    }
    std::vector<uint64_t> extra{99, 100};
    CHECK(!ring.Push(std::move(extra)));
    CHECK(extra.size() == 2 && extra[0] == 99 && extra[1] == 100);
    CHECK(ring.size() == 4 && ring.capacity() == 4);
    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < 4; ++i) {
      CHECK(ring.Pop(&out));
      CHECK(out.size() == 1 && out[0] == i);
    }
    CHECK(!ring.Pop(&out));
  }

  // Two real threads, a deliberately tiny ring, every batch carries its
  // sequence number and a payload derived from it: the consumer must see
  // every batch, in order, with the payload intact — the visibility
  // guarantee the sharded server's hand-off leans on.
  constexpr uint64_t kBatches = 20000;
  SpscRing<std::vector<uint64_t>> ring(8);
  std::thread producer([&ring] {
    for (uint64_t seq = 0; seq < kBatches; ++seq) {
      std::vector<uint64_t> batch{seq, seq * 3 + 1};
      while (!ring.Push(std::move(batch))) std::this_thread::yield();
    }
  });
  uint64_t next = 0;
  std::vector<uint64_t> got;
  while (next < kBatches) {
    if (!ring.Pop(&got)) {
      std::this_thread::yield();
      continue;
    }
    CHECK(got.size() == 2);
    CHECK(got[0] == next);
    CHECK(got[1] == next * 3 + 1);
    ++next;
  }
  producer.join();
  CHECK(!ring.Pop(&got));
}

// --- End to end -------------------------------------------------------------

TEST(ShardedLoopbackIngestQueryEndToEnd) {
  ShardedIngestServerOptions options;
  options.num_loops = 4;
  options.base.shard_id = 7;
  auto server = StartSharded(options);
  CHECK(server->num_loops() == 4);
  const int64_t domain = options.base.archetype.domain_size;

  IngestClient alice = ConnectTo(*server);
  IngestClient bob = ConnectTo(*server);
  std::vector<uint64_t> alice_keys, bob_keys;
  for (uint64_t k = 0; k < 8; ++k) {
    alice_keys.push_back(100 + k);
    bob_keys.push_back(200 + k);
  }

  auto offline = SummaryStore::Create(options.base.archetype);
  CHECK_OK(offline);
  Rng rng(0xabcd);
  uint64_t total = 0;
  const auto ingest_checked = [&](IngestClient& client,
                                  const std::vector<uint64_t>& keys,
                                  size_t n) {
    const std::vector<KeyedSample> batch =
        MakeMixedBatch(&rng, keys, n, domain);
    auto result = client.Ingest(batch);
    CHECK_OK(result);
    CHECK(!result->rejected);
    // Below the soft watermark nothing sheds: the ACK must account for the
    // whole batch, split across the touched partitions.
    CHECK(result->ack.accepted == batch.size());
    CHECK(result->ack.shed == 0 && result->ack.rejected == 0);
    CHECK(result->ack.keep_shift == 0);
    CHECK(!result->ack.partitions.empty());
    uint64_t sum = 0;
    for (const PartitionDisposition& d : result->ack.partitions) {
      CHECK(d.partition < 4);
      CHECK(d.shed == 0 && d.rejected == 0 && d.keep_shift == 0);
      sum += d.accepted;
    }
    CHECK(sum == batch.size());
    // And the reconstruction of "what the server kept" is the whole batch.
    const std::vector<KeyedSample> kept =
        ReconstructAccepted(batch, result->ack, 4);
    CHECK(kept.size() == batch.size());
    CHECK(offline->AddBatch(batch).ok());
    total += batch.size();
  };

  for (int b = 0; b < 20; ++b) ingest_checked(alice, alice_keys, 64);
  for (int b = 0; b < 15; ++b) ingest_checked(bob, bob_keys, 48);

  // Freshness across loops: everything ACKed above is visible to a pull,
  // even though the puller's connection lives on a different loop than the
  // key's owner.
  for (const uint64_t key : {alice_keys[0], alice_keys[5], bob_keys[3]}) {
    auto pulled = alice.PullSnapshot(key);
    CHECK_OK(pulled);
    auto expected = offline->ExportKeyedSnapshot(key, options.base.shard_id);
    CHECK_OK(expected);
    CHECK(SnapshotsBitIdentical(*pulled, *expected));
  }
  {
    auto reply = bob.Quantile(bob_keys[0], 0.5);
    CHECK_OK(reply);
    CHECK(reply->value >= 0 && reply->value < domain);
    auto count = offline->NumSamples(bob_keys[0]);
    CHECK_OK(count);
    CHECK(reply->num_samples == *count);
  }
  CHECK(!alice.PullSnapshot(999999).ok());  // unknown key, connection lives
  {
    auto stats = alice.Stats();
    CHECK_OK(stats);
    CHECK(stats->num_loops == 4);
    CHECK(stats->partitions.size() == 4);
    CHECK(stats->samples_offered == total);
    CHECK(stats->samples_accepted == total);
    CHECK(stats->samples_shed == 0);
    CHECK(stats->batches_ingested == 35);
    CHECK(stats->batches_rejected == 0);
  }

  alice.Close();
  bob.Close();
  CHECK(server->Shutdown().ok());
  std::vector<uint64_t> all_keys = alice_keys;
  all_keys.insert(all_keys.end(), bob_keys.begin(), bob_keys.end());
  CheckDrainedMatchesReplay(*server, *offline, all_keys,
                            options.base.shard_id);
}

// --- Shed storm -------------------------------------------------------------

TEST(ShardedShedStormPerPartitionReplayBitIdentity) {
  // Tiny per-partition watermarks and flushing disabled: depth only grows,
  // so every partition marches through keep-all -> thinned -> rejected, and
  // different partitions cross the tiers at different times (their load is
  // hash-split, not equal).  The ACK-reconstructed replay must land on the
  // drained state bit for bit anyway.
  ShardedIngestServerOptions options;
  options.num_loops = 4;
  options.base.shard_id = 9;
  options.base.soft_watermark = 64;
  options.base.hard_watermark = 256;
  options.base.flush_batch = size_t{1} << 20;
  options.base.flush_deadline_us = uint64_t{60} * 1000 * 1000;
  auto server = StartSharded(options);
  const int64_t domain = options.base.archetype.domain_size;

  constexpr int kClients = 3;
  constexpr int kBatchesPerClient = 150;
  constexpr size_t kBatchSize = 96;
  std::vector<IngestClient> clients;
  for (int c = 0; c < kClients; ++c) clients.push_back(ConnectTo(*server));
  std::vector<std::vector<KeyedSample>> replay(kClients);
  std::vector<uint64_t> shed_seen(kClients, 0);
  std::vector<uint64_t> rejected_seen(kClients, 0);
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<uint64_t> keys;
      for (uint64_t k = 0; k < 8; ++k) {
        keys.push_back(1000 + static_cast<uint64_t>(c) * 16 + k);
      }
      Rng rng(0xfeed + static_cast<uint64_t>(c));
      for (int b = 0; b < kBatchesPerClient; ++b) {
        const std::vector<KeyedSample> batch =
            MakeMixedBatch(&rng, keys, kBatchSize, domain);
        auto result = clients[static_cast<size_t>(c)].Ingest(batch);
        if (!result.ok() || result->rejected) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        const std::vector<KeyedSample> kept =
            ReconstructAccepted(batch, result->ack, 4);
        if (kept.size() != result->ack.accepted) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        auto& mine = replay[static_cast<size_t>(c)];
        mine.insert(mine.end(), kept.begin(), kept.end());
        shed_seen[static_cast<size_t>(c)] += result->ack.shed;
        rejected_seen[static_cast<size_t>(c)] += result->ack.rejected;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK(!failed.load(std::memory_order_relaxed));

  uint64_t shed_total = 0, rejected_total = 0, replayed = 0;
  for (int c = 0; c < kClients; ++c) {
    shed_total += shed_seen[static_cast<size_t>(c)];
    rejected_total += rejected_seen[static_cast<size_t>(c)];
    replayed += replay[static_cast<size_t>(c)].size();
  }
  // Both overload tiers must actually have fired.
  CHECK(shed_total > 0);
  CHECK(rejected_total > 0);

  // The server's own accounting agrees with what the ACKs promised, per
  // partition and in total — and the per-partition depth bound held.
  {
    IngestClient probe = ConnectTo(*server);
    auto stats = probe.Stats();
    CHECK_OK(stats);
    CHECK(stats->num_loops == 4);
    CHECK(stats->partitions.size() == 4);
    CHECK(stats->samples_offered ==
          static_cast<uint64_t>(kClients) * kBatchesPerClient * kBatchSize);
    CHECK(stats->samples_accepted == replayed);
    CHECK(stats->samples_shed == shed_total);
    uint64_t part_rejected = 0;
    const uint64_t producers = std::min<uint64_t>(kClients, 4);
    for (const PartitionStats& part : stats->partitions) {
      part_rejected += part.samples_rejected;
      CHECK(part.max_queue_depth <
            options.base.hard_watermark + producers * kBatchSize);
    }
    CHECK(part_rejected == rejected_total);
    probe.Close();
  }

  for (IngestClient& client : clients) client.Close();
  CHECK(server->Shutdown().ok());

  auto offline = SummaryStore::Create(options.base.archetype);
  CHECK_OK(offline);
  std::vector<uint64_t> all_keys;
  for (int c = 0; c < kClients; ++c) {
    if (!replay[static_cast<size_t>(c)].empty()) {
      CHECK(offline->AddBatch(replay[static_cast<size_t>(c)]).ok());
    }
    for (uint64_t k = 0; k < 16; ++k) {
      all_keys.push_back(1000 + static_cast<uint64_t>(c) * 16 + k);
    }
  }
  CheckDrainedMatchesReplay(*server, *offline, all_keys,
                            options.base.shard_id);
}

// --- Multi-loop stress with concurrent pulls --------------------------------

TEST(ShardedConcurrentPullsUnderMultiLoopStress) {
  // Four writer connections (one per loop, round-robin) interleaving
  // ingests with pulls of their own keys, plus a chaos connection hammering
  // stats/pulls/quantiles across everyone's keys — all while batches hop
  // loops through the rings.  Own-key pulls must be exact (push-before-ACK
  // + drain-on-pull freshness); foreign-key requests may race key creation
  // and are only required not to wedge or crash.  This is the TSan target.
  ShardedIngestServerOptions options;
  options.num_loops = 4;
  options.base.shard_id = 3;
  auto server = StartSharded(options);
  const int64_t domain = options.base.archetype.domain_size;

  constexpr int kWriters = 4;
  constexpr int kIterations = 80;
  std::vector<IngestClient> writers;
  for (int c = 0; c < kWriters; ++c) writers.push_back(ConnectTo(*server));
  IngestClient chaos = ConnectTo(*server);
  std::vector<std::unique_ptr<SummaryStore>> offline(kWriters);
  std::atomic<bool> failed{false};
  std::atomic<bool> writers_done{false};

  std::vector<std::thread> threads;
  for (int c = 0; c < kWriters; ++c) {
    auto store = SummaryStore::Create(options.base.archetype);
    CHECK_OK(store);
    offline[static_cast<size_t>(c)] =
        std::make_unique<SummaryStore>(std::move(store).value());
    threads.emplace_back([&, c] {
      SummaryStore& mine = *offline[static_cast<size_t>(c)];
      IngestClient& client = writers[static_cast<size_t>(c)];
      std::vector<uint64_t> keys;
      for (uint64_t k = 0; k < 4; ++k) {
        keys.push_back(5000 + static_cast<uint64_t>(c) * 8 + k);
      }
      Rng rng(0xc0de + static_cast<uint64_t>(c));
      for (int i = 0; i < kIterations; ++i) {
        const std::vector<KeyedSample> batch =
            MakeMixedBatch(&rng, keys, 32, domain);
        auto result = client.Ingest(batch);
        if (!result.ok() || result->rejected || result->ack.shed != 0) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        if (!mine.AddBatch(batch).ok()) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        if (i % 8 == 7) {
          // Everything this connection has had ACKed must be visible and
          // exact, mid-stream, while the other loops keep writing.
          const uint64_t key = keys[static_cast<size_t>(i / 8) % keys.size()];
          auto pulled = client.PullSnapshot(key);
          auto expected = mine.ExportKeyedSnapshot(key, 3);
          if (!pulled.ok() || !expected.ok() ||
              !SnapshotsBitIdentical(*pulled, *expected)) {
            failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  std::thread chaos_thread([&] {
    Rng rng(0x5eed);
    int spins = 0;
    while (!writers_done.load(std::memory_order_relaxed) && spins < 10000) {
      ++spins;
      auto stats = chaos.Stats();
      if (!stats.ok() || stats->num_loops != 4 ||
          stats->partitions.size() != 4) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      // Foreign keys mid-creation: either a snapshot or a clean typed error.
      const uint64_t key =
          5000 + static_cast<uint64_t>(rng.UniformInt(kWriters)) * 8 +
          static_cast<uint64_t>(rng.UniformInt(4));
      (void)chaos.PullSnapshot(key);
      (void)chaos.Quantile(key, 0.5);
      if (!chaos.connected()) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  writers_done.store(true, std::memory_order_relaxed);
  chaos_thread.join();
  CHECK(!failed.load(std::memory_order_relaxed));

  for (IngestClient& client : writers) client.Close();
  chaos.Close();
  CHECK(server->Shutdown().ok());
  for (int c = 0; c < kWriters; ++c) {
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 4; ++k) {
      keys.push_back(5000 + static_cast<uint64_t>(c) * 8 + k);
    }
    CheckDrainedMatchesReplay(*server, *offline[static_cast<size_t>(c)], keys,
                              options.base.shard_id);
  }
}

// --- epoll vs poll ----------------------------------------------------------

TEST(EpollAndPollBackendsBehaveIdentically) {
  // Part 1: the same fully-sequential scenario driven through each backend
  // must produce the identical event transcript.  Each step triggers the
  // next (no racing timers), so the ordering is deterministic by
  // construction and any divergence is a backend bug.
  const auto run_scenario = [](EventLoopBackend backend) {
    auto loop_or = EventLoop::Create(backend);
    CHECK_OK(loop_or);
    EventLoop& loop = **loop_or;
    int fds[2];
    CHECK(pipe(fds) == 0);
    std::vector<std::string> events;  // loop-thread only until join
    std::thread runner([&loop] { loop.Run(); });
    loop.Post([&] {
      events.push_back("post");
      CHECK(loop
                .Watch(fds[0], /*want_read=*/true, /*want_write=*/false,
                       [&](EventLoop::IoEvent event) {
                         char buffer[8];
                         const ssize_t n = read(fds[0], buffer, sizeof(buffer));
                         CHECK(n > 0 && event.readable);
                         events.push_back(
                             "io:" +
                             std::string(buffer, static_cast<size_t>(n)));
                         if (buffer[0] == 'a') {
                           loop.ScheduleAt(MonotonicNanos() + 2000000, [&] {
                             events.push_back("timer");
                             CHECK(write(fds[1], "b", 1) == 1);
                           });
                         } else {
                           loop.Unwatch(fds[0]);
                           CHECK(loop
                                     .Watch(fds[1], /*want_read=*/false,
                                            /*want_write=*/true,
                                            [&](EventLoop::IoEvent ev) {
                                              CHECK(ev.writable);
                                              events.push_back("writable");
                                              loop.Unwatch(fds[1]);
                                              loop.Quit();
                                            })
                                     .ok());
                         }
                       })
                .ok());
      CHECK(write(fds[1], "a", 1) == 1);
    });
    runner.join();
    close(fds[0]);
    close(fds[1]);
    return events;
  };

  const std::vector<std::string> poll_events =
      run_scenario(EventLoopBackend::kPoll);
  const std::vector<std::string> want = {"post", "io:a", "timer", "io:b",
                                         "writable"};
  CHECK(poll_events == want);
  if (EventLoop::EpollSupported()) {
    CHECK(run_scenario(EventLoopBackend::kEpoll) == want);
  }

  // Part 2: a deterministic single-client workload against a sharded server
  // on each backend lands on identical ACKs, counters, and drained bytes.
  const auto run_workload = [](EventLoopBackend backend) {
    ShardedIngestServerOptions options;
    options.num_loops = 2;
    options.base.shard_id = 13;
    options.backend = backend;
    auto server = StartSharded(options);
    const int64_t domain = options.base.archetype.domain_size;
    IngestClient client = ConnectTo(*server);
    const std::vector<uint64_t> keys = {9100, 9101, 9102};
    Rng rng(0xbeef);
    std::vector<uint8_t> transcript;
    for (int b = 0; b < 20; ++b) {
      const std::vector<KeyedSample> batch =
          MakeMixedBatch(&rng, keys, 40, domain);
      auto result = client.Ingest(batch);
      CHECK_OK(result);
      CHECK(!result->rejected);
      const std::vector<uint8_t> ack = EncodeIngestAck(result->ack);
      transcript.insert(transcript.end(), ack.begin(), ack.end());
    }
    client.Close();
    CHECK(server->Shutdown().ok());
    const ServerStats stats = server->stats();
    CHECK(stats.samples_accepted == 800 && stats.samples_offered == 800);
    for (const uint64_t key : keys) {
      auto snapshot = server->ExportKeyedSnapshot(key);
      CHECK_OK(snapshot);
      const std::vector<uint8_t> bytes = EncodeShardSnapshot(*snapshot);
      transcript.insert(transcript.end(), bytes.begin(), bytes.end());
    }
    return transcript;
  };

  const std::vector<uint8_t> poll_transcript =
      run_workload(EventLoopBackend::kPoll);
  CHECK(!poll_transcript.empty());
  if (EventLoop::EpollSupported()) {
    CHECK(run_workload(EventLoopBackend::kEpoll) == poll_transcript);
  }
}

// --- Stats ------------------------------------------------------------------

TEST(ShardedStatsReportPerPartitionCountersAndMergedLatency) {
  ShardedIngestServerOptions options;
  options.num_loops = 4;
  options.base.shard_id = 5;
  auto server = StartSharded(options);
  const int64_t domain = options.base.archetype.domain_size;

  IngestClient client = ConnectTo(*server);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 16; ++k) keys.push_back(300 + k);
  // What each partition should have accepted is computable client-side:
  // the key -> partition map is the shared pure function.
  std::vector<uint64_t> expected_accepted(4, 0);
  Rng rng(0x57a7);
  constexpr int kBatches = 30;
  for (int b = 0; b < kBatches; ++b) {
    const std::vector<KeyedSample> batch =
        MakeMixedBatch(&rng, keys, 64, domain);
    for (const KeyedSample& sample : batch) {
      ++expected_accepted[PartitionOfKey(sample.key, 4)];
    }
    auto result = client.Ingest(batch);
    CHECK_OK(result);
    CHECK(!result->rejected && result->ack.shed == 0);
  }
  for (int q = 0; q < 5; ++q) {
    CHECK_OK(client.PullSnapshot(keys[static_cast<size_t>(q)]));
    CHECK_OK(client.Quantile(keys[static_cast<size_t>(q)], 0.25 * q));
  }

  auto stats = client.Stats();
  CHECK_OK(stats);
  CHECK(stats->num_loops == 4);
  CHECK(stats->partitions.size() == 4);
  uint64_t sum_accepted = 0;
  for (uint32_t p = 0; p < 4; ++p) {
    const PartitionStats& part = stats->partitions[p];
    CHECK(part.partition == p);  // worker order, stable for dashboards
    CHECK(part.samples_accepted == expected_accepted[p]);
    CHECK(part.samples_shed == 0 && part.samples_rejected == 0);
    sum_accepted += part.samples_accepted;
  }
  CHECK(sum_accepted == static_cast<uint64_t>(kBatches) * 64);
  CHECK(stats->samples_accepted == sum_accepted);
  CHECK(stats->samples_offered == sum_accepted);
  // The latency quantiles are merged across every loop's recorder: the
  // counts must cover every timed request, and a nonzero count comes with
  // nonzero quantiles (the recorder clamps below 100ns, never to zero...
  // a zero would mean the merge dropped a loop's mass).
  CHECK(stats->ingest_count == kBatches);
  CHECK(stats->query_count == 10);
  CHECK(stats->ingest_p50_us > 0.0);
  CHECK(stats->ingest_p99_us >= stats->ingest_p50_us);
  CHECK(stats->query_p50_us > 0.0);

  client.Close();
  CHECK(server->Shutdown().ok());
  // The post-shutdown accessor aggregates the same way the wire path does.
  const ServerStats drained = server->stats();
  CHECK(drained.num_loops == 4);
  CHECK(drained.samples_accepted == sum_accepted);
  CHECK(drained.ingest_count == kBatches);
  for (uint32_t p = 0; p < 4; ++p) {
    CHECK(drained.partitions[p].samples_accepted == expected_accepted[p]);
    CHECK(drained.partitions[p].queue_depth == 0);  // everything flushed
  }
}

// --- Pipelined requests -----------------------------------------------------

// A blocking loopback socket, for a client that writes a whole pipeline of
// requests before it reads any reply (IngestClient waits for each reply).
int ConnectRaw(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  CHECK(fd >= 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  CHECK(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
  CHECK(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0);
  return fd;
}

void WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    CHECK(n > 0);
    sent += static_cast<size_t>(n);
  }
}

// The next frame off `fd`, failing after 10 s without one.
Frame ReadFrame(int fd, FrameParser* parser) {
  const uint64_t deadline = MonotonicNanos() + uint64_t{10} * 1000 * 1000 * 1000;
  Frame frame;
  for (;;) {
    const FrameParser::Result result = parser->Next(&frame);
    CHECK(result != FrameParser::Result::kMalformed);
    if (result == FrameParser::Result::kFrame) return frame;
    const uint64_t now = MonotonicNanos();
    CHECK(now < deadline);
    struct pollfd pfd = {fd, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>((deadline - now) / 1000000) + 1) <= 0) {
      continue;  // re-checks the deadline
    }
    uint8_t buffer[4096];
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    CHECK(n > 0);
    parser->Consume(Span<const uint8_t>(buffer, static_cast<size_t>(n)));
  }
}

// Frames carry no request id, so a client that pipelines requests pairs the
// replies by position.  Queries, pulls and stats are served on other loops
// while ingests are acknowledged inline, yet every connection must get its
// replies in request order, and a read must see exactly the ingests sent
// before it on its connection: a query after an ingest counts that ingest's
// samples, one before it does not.  Each pipeline mixes ingests, a query on
// a key of every partition, pulls and stats, and is written whole before
// any reply is read; it runs at 1, 2 and 4 loops on both backends.
TEST(ShardedPipelinedRepliesKeepRequestOrder) {
  std::vector<EventLoopBackend> backends = {EventLoopBackend::kPoll};
  if (EventLoop::EpollSupported()) backends.push_back(EventLoopBackend::kEpoll);
  for (const EventLoopBackend backend : backends) {
    for (const uint32_t num_loops : {1u, 2u, 4u}) {
      ShardedIngestServerOptions options;
      options.num_loops = static_cast<int>(num_loops);
      options.backend = backend;
      auto server = StartSharded(options);
      const int64_t domain = options.base.archetype.domain_size;
      std::vector<uint64_t> keys;  // keys[p] lives in partition p
      for (uint32_t p = 0; p < num_loops; ++p) {
        uint64_t key = 5000;
        while (PartitionOfKey(key, num_loops) != p) ++key;
        keys.push_back(key);
      }

      // What each reply must say, in request order.
      struct Expected {
        FrameType type;
        size_t key_index = 0;  // queries and pulls
        int64_t count = 0;     // the key's samples (query, pull) or the
                               // batch's (ACK) or all samples (stats)
      };
      std::vector<int64_t> counts(keys.size(), 0);
      int64_t total = 0;
      Rng rng(0x0dde + num_loops);
      const int fd = ConnectRaw(server->port());
      FrameParser parser;
      for (int pipeline = 0; pipeline < 4; ++pipeline) {
        std::vector<uint8_t> bytes;
        std::vector<Expected> expected;
        const auto append = [&bytes](FrameType type,
                                     const std::vector<uint8_t>& payload) {
          const std::vector<uint8_t> frame = EncodeFrame(type, payload);
          bytes.insert(bytes.end(), frame.begin(), frame.end());
        };
        for (int op = 0; op < 24; ++op) {
          // The first request ingests into every key, so reads never meet
          // an empty key.
          const int64_t kind =
              pipeline == 0 && op == 0 ? 0 : rng.UniformInt(4);
          if (kind == 0) {
            std::vector<KeyedSample> batch;
            for (size_t i = 0; i < keys.size(); ++i) {
              const int64_t m = rng.UniformInt(3) + (total == 0 ? 1 : 0);
              for (int64_t j = 0; j < m; ++j) {
                batch.push_back({keys[i], rng.UniformInt(domain)});
              }
              counts[i] += m;
            }
            if (batch.empty()) {
              batch.push_back({keys[0], rng.UniformInt(domain)});
              ++counts[0];
            }
            total += static_cast<int64_t>(batch.size());
            append(FrameType::kIngest, EncodeIngestPayload(batch));
            expected.push_back({FrameType::kIngestAck, 0,
                                static_cast<int64_t>(batch.size())});
          } else if (kind == 1) {
            for (size_t i = 0; i < keys.size(); ++i) {
              append(FrameType::kQuantileQuery,
                     EncodeQuantileQuery(QuantileQuery{keys[i], 0.5}));
              expected.push_back({FrameType::kQuantileReply, i, counts[i]});
            }
          } else if (kind == 2) {
            const auto i = static_cast<size_t>(
                rng.UniformInt(static_cast<int64_t>(keys.size())));
            append(FrameType::kSnapshotPull, EncodeKeyPayload(keys[i]));
            expected.push_back({FrameType::kSnapshotPush, i, counts[i]});
          } else {
            append(FrameType::kStats, {});
            expected.push_back({FrameType::kStatsReply, 0, total});
          }
        }
        WriteAll(fd, bytes);

        for (const Expected& want : expected) {
          const Frame reply = ReadFrame(fd, &parser);
          CHECK(reply.type == want.type);
          switch (want.type) {
            case FrameType::kIngestAck: {
              auto ack = DecodeIngestAck(reply.payload);
              CHECK_OK(ack);
              CHECK(static_cast<int64_t>(ack->accepted) == want.count);
              break;
            }
            case FrameType::kQuantileReply: {
              auto answer = DecodeQuantileReply(reply.payload);
              CHECK_OK(answer);
              CHECK(answer->num_samples == want.count);
              break;
            }
            case FrameType::kSnapshotPush: {
              auto snapshot = DecodeShardSnapshot(reply.payload);
              CHECK_OK(snapshot);
              CHECK(snapshot->key_id == keys[want.key_index]);
              CHECK(snapshot->num_samples == want.count);
              break;
            }
            default: {
              auto stats = DecodeServerStats(reply.payload);
              CHECK_OK(stats);
              CHECK(static_cast<int64_t>(stats->samples_accepted) ==
                    want.count);
              break;
            }
          }
        }
      }
      close(fd);
      CHECK(server->Shutdown().ok());
    }
  }
}

// --- Graceful shutdown ------------------------------------------------------

TEST(ShardedGracefulShutdownDrainsAllPartitions) {
  // Flushing disabled entirely: every accepted sample is still sitting in a
  // hand-off ring or a pending buffer when Shutdown starts, so the final
  // store state is produced by the shutdown barriers alone.
  ShardedIngestServerOptions options;
  options.num_loops = 4;
  options.base.shard_id = 11;
  options.base.flush_batch = size_t{1} << 20;
  options.base.flush_deadline_us = uint64_t{60} * 1000 * 1000;
  auto server = StartSharded(options);
  const int64_t domain = options.base.archetype.domain_size;

  auto offline = SummaryStore::Create(options.base.archetype);
  CHECK_OK(offline);
  std::vector<IngestClient> clients;
  clients.push_back(ConnectTo(*server));
  clients.push_back(ConnectTo(*server));
  std::vector<uint64_t> all_keys;
  Rng rng(0xd1a7);
  for (int c = 0; c < 2; ++c) {
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 6; ++k) {
      keys.push_back(8000 + static_cast<uint64_t>(c) * 8 + k);
      all_keys.push_back(keys.back());
    }
    for (int b = 0; b < 25; ++b) {
      const std::vector<KeyedSample> batch =
          MakeMixedBatch(&rng, keys, 40, domain);
      auto result = clients[static_cast<size_t>(c)].Ingest(batch);
      CHECK_OK(result);
      CHECK(!result->rejected && result->ack.accepted == batch.size());
      CHECK(offline->AddBatch(batch).ok());
    }
  }

  for (IngestClient& client : clients) client.Close();
  CHECK(server->Shutdown().ok());
  CHECK(server->Shutdown().ok());  // idempotent

  CHECK(server->store().num_keys() == all_keys.size());
  for (const uint64_t key : all_keys) {
    auto drained_count = server->store().NumSamples(key);
    auto expected_count = offline->NumSamples(key);
    CHECK_OK(drained_count);
    CHECK_OK(expected_count);
    CHECK(*drained_count == *expected_count);
  }
  CheckDrainedMatchesReplay(*server, *offline, all_keys,
                            options.base.shard_id);
  const ServerStats stats = server->stats();
  CHECK(stats.samples_accepted == uint64_t{2} * 25 * 40);
  for (const PartitionStats& part : stats.partitions) {
    CHECK(part.queue_depth == 0);  // the drain barrier left nothing behind
  }
}

}  // namespace
}  // namespace fasthist
