// End-to-end throughput of the keyed store and of the server.  Two grids,
// each written to its own machine-readable perf trajectory (same schema as
// BENCH_merge.json):
//
//   --net-grid      loops x connections x batch x offered load, over real
//                   loopback sockets: an in-process ShardedIngestServer
//                   (net/sharded_ingest_server.h) with `loops` worker event
//                   loops (= key-hash partitions) driven closed-loop by N
//                   blocking clients on their own threads, written to its
//                   own trajectory file (BENCH_net.json, --net-out=PATH).
//                   Each row reports the saturation (or paced) throughput,
//                   speedup_vs_1loop against the matched single-loop row,
//                   the overload accounting (accepted / shed / rejected
//                   samples, per-partition max queue depth and shed), and
//                   the server's own self-measured ingest P50/P99/P99.5
//                   merged across all loops' recorders and pulled over the
//                   wire via a kStats frame.  Overload cells run
//                   deliberately past saturation against tiny watermarks to
//                   demonstrate the per-partition two-tier policy; every
//                   cell replays its accepted (per-partition
//                   ACK-reconstructed) samples into an offline store and
//                   exits 2 unless the drained server summaries are
//                   bit-identical to the replay.  --require-scaling
//                   additionally exits 2 unless some matched (connections,
//                   batch) pair shows a >= 2.5x l4/l1 saturation ratio —
//                   the multi-core CI gate (meaningless on a 1-core box).
//   --store-grid    keys x samples/key x batch: batched keyed ingest into a
//                   SummaryStore (store/summary_store.h), written to its own
//                   trajectory file (BENCH_store.json, --store-out=PATH).
//                   Each row records the store's own byte accounting
//                   (bytes_per_key_overhead, payload_bytes_per_key), the
//                   process VmRSS after the build, and the ingest slowdown
//                   vs a single StreamingHistogramBuilder fed the identical
//                   value stream.  Two budgets are enforced, not just
//                   reported: overhead <= 150 bytes/key on every cell with
//                   >= 65536 keys, and VmRSS < 2 GB always — a violation
//                   exits 2, so the committed trajectory cannot drift past
//                   the multi-tenancy budget silently.
//
// At least one grid flag is required: with none the binary prints its
// usage and exits 2.  Every JSON row records threads_effective (what the
// machine actually ran, so a 1-core container cannot masquerade as a
// scaling result) and the min-of-R rep count (--reps=N, floor 3).
//
//   bench_service [--store-grid] [--net-grid] [--require-scaling]
//                 [--smoke] [--reps=N] [--store-out=PATH] [--net-out=PATH]
//
// --smoke shrinks the grids for CI; the binary exits non-zero if any store
// or server call fails, a summary loses mass or a replay gate trips, so the
// smoke run doubles as an end-to-end correctness check.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/streaming.h"
#if defined(FASTHIST_HAVE_NET)
#include <chrono>

#include "net/client.h"
#include "net/frame.h"
#include "net/sharded_ingest_server.h"
#endif
#include "service/wire_format.h"
#include "store/summary_store.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/table.h"
#include "util/timer.h"

namespace fasthist {
namespace {

constexpr char kUsage[] =
    "usage: bench_service [--store-grid] [--net-grid] [--require-scaling]\n"
    "                     [--smoke] [--reps=N] [--store-out=PATH]\n"
    "                     [--net-out=PATH]\n"
    "at least one of --store-grid and --net-grid is required\n";

[[noreturn]] void Die(const char* where, const Status& status) {
  std::fprintf(stderr, "bench_service: %s: %s\n", where,
               status.message().c_str());
  std::exit(2);
}

// --- keyed store grid -------------------------------------------------------

// One summary shape for every cell: small domain and k, so the per-key
// payload is a few hundred bytes and a million keys fit the RSS budget the
// store promises (ROADMAP item 3).
constexpr int64_t kStoreDomain = 1024;
constexpr int64_t kStoreK = 8;
constexpr size_t kStoreWindow = 64;
constexpr double kStoreMaxOverheadBytesPerKey = 150.0;
constexpr double kStoreMaxRssMb = 2048.0;
constexpr int64_t kStoreOverheadGateMinKeys = 65536;

struct StoreCell {
  int64_t keys = 0;
  int64_t samples_per_key = 0;
  int64_t batch = 0;
};

// splitmix64: the sample generator for the keyed grid.  Two multiplies per
// sample keeps generation cheap enough to run *inside* the timed region —
// which it must, because pre-materializing the 1M-key cell's stream would
// cost a gigabyte and poison the very RSS number this grid gates on.  The
// store and its single-builder baseline both pay it, so the slowdown ratio
// is apples-to-apples and the absolute throughput is (slightly)
// conservative.
uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Key ids are well-spread 64-bit values (tenants do not hand out dense
// ids); sample s of a cell goes to key slot s % keys, so arrivals
// interleave round-robin across every key — for cells where keys exceed
// the batch size, every batch is all-distinct keys, the worst case for
// AddBatch's run walk (one index probe per sample).
uint64_t StoreKeyOf(int64_t slot) {
  return SplitMix(static_cast<uint64_t>(slot));
}

int64_t StoreValueOf(int64_t s) {
  return static_cast<int64_t>(
      SplitMix(static_cast<uint64_t>(s) ^ 0xc0ffee0ddba11ull) %
      static_cast<uint64_t>(kStoreDomain));
}

void FillKeyedBatch(int64_t keys, int64_t start, int64_t len,
                    std::vector<KeyedSample>* out) {
  out->clear();
  for (int64_t s = start; s < start + len; ++s) {
    out->push_back({StoreKeyOf(s % keys), StoreValueOf(s)});
  }
}

// Builds a store and runs a cell's full batched ingest through it.  Timed
// by the caller; also the memory-pass body (same code path measures bytes
// and throughput, so the committed numbers describe one artifact).
SummaryStore BuildStoreOnce(const StoreCell& cell,
                            std::vector<KeyedSample>& scratch) {
  ArchetypeConfig config;
  config.domain_size = kStoreDomain;
  config.k = kStoreK;
  config.window_capacity = kStoreWindow;
  auto store = SummaryStore::Create(config);
  if (!store.ok()) Die("SummaryStore::Create", store.status());
  if (Status s = store->ReserveKeys(static_cast<size_t>(cell.keys));
      !s.ok()) {
    Die("ReserveKeys", s);
  }
  const int64_t total = cell.keys * cell.samples_per_key;
  for (int64_t off = 0; off < total; off += cell.batch) {
    const int64_t len = std::min(cell.batch, total - off);
    FillKeyedBatch(cell.keys, off, len, &scratch);
    if (Status s = store->AddBatch(scratch); !s.ok()) Die("AddBatch", s);
  }
  return std::move(store).value();
}

// VmRSS from /proc/self/status, in MB (0 when unreadable, e.g. non-Linux —
// the RSS gate is skipped then, the store's own byte accounting still
// gates).
double ReadRssMb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::atof(line + 6);
      break;
    }
  }
  std::fclose(file);
  return kb / 1024.0;
}

// The single-histogram baseline of a store cell (the column keeps its old
// name, slowdown_vs_shard_ingestor): one StreamingHistogramBuilder
// swallowing the identical value stream (same generator, same batch
// rhythm, no keys) with its buffer sized to the store's per-key window —
// the same condensation cadence, so the ratio prices multi-tenancy itself
// (grouping, index probes, slab scatter), not a different summarization
// schedule.  (A 2048-sample buffer baseline is ~2.7x faster per sample but
// produces a different summary: fewer, larger condensations.)
void RunShardBaselineOnce(const StoreCell& cell,
                          std::vector<int64_t>& scratch) {
  auto builder =
      StreamingHistogramBuilder::Create(kStoreDomain, kStoreK, kStoreWindow);
  if (!builder.ok()) {
    Die("StreamingHistogramBuilder::Create", builder.status());
  }
  const int64_t total = cell.keys * cell.samples_per_key;
  for (int64_t off = 0; off < total; off += cell.batch) {
    const int64_t len = std::min(cell.batch, total - off);
    scratch.clear();
    for (int64_t s = off; s < off + len; ++s) {
      scratch.push_back(StoreValueOf(s));
    }
    if (Status s = builder->AddMany(scratch); !s.ok()) Die("AddMany", s);
  }
}

int RunStoreGrid(bool smoke, int reps, bench_util::JsonBenchWriter& writer) {
  // Cells ascend in key count so the million-key build runs last: arena
  // fragments the smaller cells leave behind cannot inflate its VmRSS
  // reading, and a budget violation there fails after the cheap cells have
  // already reported.
  const std::vector<StoreCell> cells =
      smoke ? std::vector<StoreCell>{{1024, 64, 1024},
                                     {1024, 64, 65536},
                                     {1024, 1024, 65536}}
            : std::vector<StoreCell>{{1024, 64, 1024},
                                     {1024, 64, 65536},
                                     {1024, 1024, 65536},
                                     {65536, 64, 65536},
                                     {65536, 256, 65536},
                                     {1048576, 64, 65536}};
  const double threads_effective = 1.0;  // serial end to end

  struct CellMemory {
    double overhead_per_key = 0.0;
    double payload_per_key = 0.0;
    double slack_per_key = 0.0;
    double rss_mb = 0.0;
    int error_levels = 0;
  };
  std::vector<CellMemory> memory(cells.size());
  std::vector<KeyedSample> keyed_scratch;
  std::vector<int64_t> value_scratch;
  for (size_t ci = 0; ci < cells.size(); ++ci) {
    const StoreCell& cell = cells[ci];
    CellMemory& mem = memory[ci];
    keyed_scratch.reserve(static_cast<size_t>(cell.batch));
    value_scratch.reserve(static_cast<size_t>(cell.batch));

    // Memory + correctness pass (untimed): one build, then the store's own
    // byte accounting, the process RSS while the store is live, and
    // spot-checks that the keyed pipeline actually ran — exact per-key
    // counts at both ends of the key range and unit mass on a summary.
    {
      SummaryStore store = BuildStoreOnce(cell, keyed_scratch);
      const StoreMemoryStats stats = store.memory();
      if (stats.num_keys != static_cast<size_t>(cell.keys)) {
        std::fprintf(stderr, "bench_service: store holds %zu keys != %lld\n",
                     stats.num_keys, static_cast<long long>(cell.keys));
        return 2;
      }
      mem.overhead_per_key = stats.overhead_bytes_per_key();
      mem.payload_per_key = static_cast<double>(stats.payload_bytes) /
                            static_cast<double>(stats.num_keys);
      mem.slack_per_key = static_cast<double>(stats.ladder_slack_bytes) /
                          static_cast<double>(stats.num_keys);
      mem.rss_mb = ReadRssMb();
      for (const int64_t slot : {int64_t{0}, cell.keys - 1}) {
        auto count = store.NumSamples(StoreKeyOf(slot));
        if (!count.ok()) Die("NumSamples", count.status());
        if (*count != cell.samples_per_key) {
          std::fprintf(stderr,
                       "bench_service: key slot %lld counted %lld != %lld\n",
                       static_cast<long long>(slot),
                       static_cast<long long>(*count),
                       static_cast<long long>(cell.samples_per_key));
          return 2;
        }
      }
      auto summary = store.Query(StoreKeyOf(0));
      if (!summary.ok()) Die("Query", summary.status());
      if (std::abs(summary->TotalMass() - 1.0) > 1e-6) {
        std::fprintf(stderr, "bench_service: keyed mass drifted to %.9f\n",
                     summary->TotalMass());
        return 2;
      }
      auto levels = store.ErrorLevels(StoreKeyOf(0));
      if (!levels.ok()) Die("ErrorLevels", levels.status());
      mem.error_levels = *levels;
    }

    // Budget gates.  The overhead budget applies where amortization is
    // meant to have kicked in (small-key cells are dominated by fixed
    // chunk bookkeeping and would gate nothing real).
    if (cell.keys >= kStoreOverheadGateMinKeys &&
        mem.overhead_per_key > kStoreMaxOverheadBytesPerKey) {
      std::fprintf(stderr,
                   "bench_service: %.1f overhead bytes/key at %lld keys "
                   "busts the %.0f-byte budget\n",
                   mem.overhead_per_key, static_cast<long long>(cell.keys),
                   kStoreMaxOverheadBytesPerKey);
      return 2;
    }
    if (mem.rss_mb > kStoreMaxRssMb) {
      std::fprintf(stderr,
                   "bench_service: %.0f MB RSS at %lld keys busts the "
                   "%.0f MB budget\n",
                   mem.rss_mb, static_cast<long long>(cell.keys),
                   kStoreMaxRssMb);
      return 2;
    }
  }

  // Timed passes, min-of-R with the reps interleaved and rotated across
  // cells: each rep times every cell's store pass (store create + reserve +
  // generate + AddBatch everything) and its builder baseline back to
  // back, so a swing in host speed hits every cell alike instead of moving
  // one cell against its neighbours.
  // Pass -1 is an uncounted warm-up.
  std::vector<double> store_ms(cells.size(), 0.0);
  std::vector<double> baseline_ms(cells.size(), 0.0);
  for (int rep = -1; rep < reps; ++rep) {
    for (size_t j = 0; j < cells.size(); ++j) {
      const size_t ci = (static_cast<size_t>(rep + 1) + j) % cells.size();
      WallTimer store_timer;
      BuildStoreOnce(cells[ci], keyed_scratch);
      const double store_pass_ms = store_timer.ElapsedMillis();
      WallTimer baseline_timer;
      RunShardBaselineOnce(cells[ci], value_scratch);
      const double baseline_pass_ms = baseline_timer.ElapsedMillis();
      if (rep < 0) continue;
      if (store_ms[ci] == 0.0 || store_pass_ms < store_ms[ci]) {
        store_ms[ci] = store_pass_ms;
      }
      if (baseline_ms[ci] == 0.0 || baseline_pass_ms < baseline_ms[ci]) {
        baseline_ms[ci] = baseline_pass_ms;
      }
    }
  }

  TablePrinter table({"keys", "samples/key", "batch", "ingest Msamp/s",
                      "vs shard", "payload B/key", "slack B/key",
                      "overhead B/key", "rss MB", "err lvls"});
  for (size_t ci = 0; ci < cells.size(); ++ci) {
    const StoreCell& cell = cells[ci];
    const CellMemory& mem = memory[ci];
    const int64_t total = cell.keys * cell.samples_per_key;
    const double msamples_per_s =
        static_cast<double>(total) / (store_ms[ci] * 1e3);
    const double slowdown =
        baseline_ms[ci] > 0.0 ? store_ms[ci] / baseline_ms[ci] : 0.0;

    const std::string name = "store_keys" + std::to_string(cell.keys) +
                             "_spk" + std::to_string(cell.samples_per_key) +
                             "_batch" + std::to_string(cell.batch);
    writer.Add(name,
               {{"keys", static_cast<double>(cell.keys)},
                {"samples_per_key",
                 static_cast<double>(cell.samples_per_key)},
                {"batch", static_cast<double>(cell.batch)},
                {"threads_effective", threads_effective},
                {"reps", static_cast<double>(reps)},
                {"ms", store_ms[ci]},
                {"ingest_msamples_per_s", msamples_per_s},
                {"slowdown_vs_shard_ingestor", slowdown},
                {"payload_bytes_per_key", mem.payload_per_key},
                {"ladder_slack_bytes_per_key", mem.slack_per_key},
                {"bytes_per_key_overhead", mem.overhead_per_key},
                {"rss_mb", mem.rss_mb},
                {"error_levels", static_cast<double>(mem.error_levels)}});
    table.AddRow({TablePrinter::FormatInt(cell.keys),
                  TablePrinter::FormatInt(cell.samples_per_key),
                  TablePrinter::FormatInt(cell.batch),
                  TablePrinter::FormatDouble(msamples_per_s, 2),
                  TablePrinter::FormatDouble(slowdown, 2),
                  TablePrinter::FormatDouble(mem.payload_per_key, 1),
                  TablePrinter::FormatDouble(mem.slack_per_key, 1),
                  TablePrinter::FormatDouble(mem.overhead_per_key, 1),
                  TablePrinter::FormatDouble(mem.rss_mb, 0),
                  TablePrinter::FormatInt(mem.error_levels)});
  }

  table.Print(std::cout);
  return 0;
}

// --- net grid ---------------------------------------------------------------

#if defined(FASTHIST_HAVE_NET)

// One cell of the socket-front-end sweep.  loops is the number of worker
// event loops (= key-hash partitions) in the ShardedIngestServer; 1
// degenerates to the single-loop topology, and matched (connections, batch)
// pairs at loops 1 and 4 give the speedup_vs_1loop column a like-for-like
// denominator.  offered_load is samples/second across all connections (0 =
// closed-loop as fast as the server ACKs, the saturation measurement);
// overload cells shrink the server's watermarks and disable size/deadline
// flushing so the bounded per-partition depths actually fill, tripping
// degrade-to-sampling and then per-partition rejection.
struct NetCell {
  int loops = 1;
  int connections = 1;
  int64_t batch = 0;
  int64_t batches_per_client = 0;
  double offered_load = 0.0;
  bool overload = false;
};

// Each connection owns kNetKeysPerClient keys and sprays every batch across
// all of them round-robin, so with loops > 1 every single batch is
// stable-partitioned into several per-partition slices — the cross-loop
// ring hand-off is on the hot path of every cell, not just of lucky key
// hashes.  Keys stay disjoint across (cell, connection): per-key store
// state depends only on that key's subsequence, so the offline replay below
// is exact regardless of how the loops' flushes interleave live.
constexpr int kNetKeysPerClient = 16;

uint64_t NetKeyOf(size_t cell_index, int client, int slot) {
  return 0x9000 +
         (cell_index * 64 + static_cast<uint64_t>(client)) *
             kNetKeysPerClient +
         static_cast<uint64_t>(slot);
}

// Runs one cell once: server up with cell.loops worker loops, N client
// threads closed-loop (or paced), stats probed over the wire, graceful
// shutdown, then the bit-identical replay gate — every drained partition
// summary must match an offline store fed exactly the accepted
// (per-partition ACK-reconstructed) samples.  Returns false on a
// replay/accounting violation (the caller exits 2); infrastructure
// failures die immediately.
bool RunNetCellOnce(const NetCell& cell, size_t cell_index, bool smoke,
                    double* out_ms, ServerStats* out_stats) {
  ShardedIngestServerOptions options;
  options.base.shard_id = 42;
  options.num_loops = cell.loops;
  if (cell.overload) {
    options.base.soft_watermark = smoke ? 128 : 512;
    options.base.hard_watermark = smoke ? 512 : 2048;
    options.base.flush_batch = size_t{1} << 20;
    options.base.flush_deadline_us = uint64_t{60} * 1000 * 1000;
  }
  auto server = ShardedIngestServer::Create(options);
  if (!server.ok()) Die("ShardedIngestServer::Create", server.status());
  if (Status s = (*server)->Start(); !s.ok()) {
    Die("ShardedIngestServer::Start", s);
  }
  const int64_t domain = options.base.archetype.domain_size;
  const uint32_t num_partitions = static_cast<uint32_t>(cell.loops);

  std::vector<IngestClient> clients;
  clients.reserve(static_cast<size_t>(cell.connections));
  for (int c = 0; c < cell.connections; ++c) {
    auto client = IngestClient::Connect("127.0.0.1", (*server)->port());
    if (!client.ok()) Die("IngestClient::Connect", client.status());
    clients.push_back(std::move(client).value());
  }

  std::vector<std::vector<KeyedSample>> replay(clients.size());
  std::atomic<bool> failed{false};
  const double per_conn_rate =
      cell.offered_load > 0.0
          ? cell.offered_load / static_cast<double>(cell.connections)
          : 0.0;

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (int c = 0; c < cell.connections; ++c) {
    threads.emplace_back([&, c, domain] {
      IngestClient& client = clients[static_cast<size_t>(c)];
      std::vector<KeyedSample>& kept = replay[static_cast<size_t>(c)];
      Rng rng(0xd00d + cell_index * 131 + static_cast<uint64_t>(c));
      std::vector<KeyedSample> batch(static_cast<size_t>(cell.batch));
      const auto start = std::chrono::steady_clock::now();
      for (int64_t b = 0; b < cell.batches_per_client; ++b) {
        for (size_t i = 0; i < batch.size(); ++i) {
          batch[i].key = NetKeyOf(cell_index, c,
                                  static_cast<int>(i % kNetKeysPerClient));
          batch[i].value = rng.UniformInt(domain);
        }
        auto result = client.Ingest(batch);
        if (!result.ok()) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        if (!result->rejected) {
          // Reconstruct the accepted subsequence from the ACK's recorded
          // per-partition dispositions — the replay gate's input, and the
          // client's weight correction.
          std::vector<KeyedSample> kept_now =
              ReconstructAccepted(batch, result->ack, num_partitions);
          kept.insert(kept.end(), kept_now.begin(), kept_now.end());
        }
        if (per_conn_rate > 0.0) {
          const double target_s =
              static_cast<double>((b + 1) * cell.batch) / per_conn_rate;
          std::this_thread::sleep_until(
              start + std::chrono::microseconds(
                          static_cast<int64_t>(target_s * 1e6)));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double ms = timer.ElapsedMillis();
  if (failed.load(std::memory_order_relaxed)) {
    Die("net ingest", Status::Invalid("a client failed mid-stream"));
  }

  // The server reports its own latency SLOs over the wire (dogfood: these
  // quantiles come from the library's streaming histograms).
  auto probe = IngestClient::Connect("127.0.0.1", (*server)->port());
  if (!probe.ok()) Die("IngestClient::Connect(probe)", probe.status());
  auto stats = probe->Stats();
  if (!stats.ok()) Die("Stats", stats.status());

  for (IngestClient& client : clients) client.Close();
  if (Status s = (*server)->Shutdown(); !s.ok()) Die("Shutdown", s);

  // Accounting gate: the server's accepted count must equal what the ACKs
  // told the clients they kept.
  uint64_t replayed = 0;
  for (const auto& kept : replay) replayed += kept.size();
  if (stats->samples_accepted != replayed) {
    std::fprintf(stderr,
                 "bench_service: server accepted %llu != ACK-reconstructed "
                 "%llu\n",
                 static_cast<unsigned long long>(stats->samples_accepted),
                 static_cast<unsigned long long>(replayed));
    return false;
  }
  const uint64_t shed_total = stats->samples_shed;
  const uint64_t rejected_total =
      stats->samples_offered - stats->samples_accepted - stats->samples_shed;
  if (cell.overload &&
      (shed_total == 0 ||
       (stats->batches_rejected == 0 && rejected_total == 0))) {
    std::fprintf(stderr,
                 "bench_service: overload cell shed %llu / rejected %llu "
                 "samples — the per-partition watermarks never tripped\n",
                 static_cast<unsigned long long>(shed_total),
                 static_cast<unsigned long long>(rejected_total));
    return false;
  }
  // Per-partition bounded-queue gate: a partition's accepted-but-unflushed
  // depth never exceeds the hard watermark plus one in-flight batch per
  // producer loop (every producer can race one push past its last depth
  // read; round-robin puts connections on min(connections, loops) loops).
  const uint64_t producers =
      static_cast<uint64_t>(std::min(cell.connections, cell.loops));
  const uint64_t depth_bound =
      options.base.hard_watermark +
      producers * static_cast<uint64_t>(cell.batch);
  if (stats->partitions.size() != static_cast<size_t>(cell.loops)) {
    std::fprintf(stderr,
                 "bench_service: kStats reported %zu partitions, want %d\n",
                 stats->partitions.size(), cell.loops);
    return false;
  }
  for (const PartitionStats& part : stats->partitions) {
    if (part.max_queue_depth >= depth_bound) {
      std::fprintf(
          stderr,
          "bench_service: partition %u depth %llu busts the bound %llu\n",
          part.partition,
          static_cast<unsigned long long>(part.max_queue_depth),
          static_cast<unsigned long long>(depth_bound));
      return false;
    }
  }

  // The replay gate itself: bit-identical per-key summaries across every
  // partition of the drained store.
  auto offline = SummaryStore::Create(options.base.archetype);
  if (!offline.ok()) Die("SummaryStore::Create", offline.status());
  for (const auto& kept : replay) {
    if (kept.empty()) continue;
    if (Status s = offline->AddBatch(kept); !s.ok()) Die("AddBatch", s);
  }
  for (int c = 0; c < cell.connections; ++c) {
    for (int slot = 0; slot < kNetKeysPerClient; ++slot) {
      const uint64_t key = NetKeyOf(cell_index, c, slot);
      const bool offline_has = offline->Contains(key);
      const bool drained_has = (*server)->store().Contains(key);
      if (offline_has != drained_has) {
        std::fprintf(stderr,
                     "bench_service: key %llu present offline=%d drained=%d\n",
                     static_cast<unsigned long long>(key),
                     offline_has ? 1 : 0, drained_has ? 1 : 0);
        return false;
      }
      if (!offline_has) continue;
      auto drained = (*server)->ExportKeyedSnapshot(key);
      if (!drained.ok()) Die("ExportKeyedSnapshot", drained.status());
      auto expected = offline->ExportKeyedSnapshot(key, options.base.shard_id);
      if (!expected.ok()) Die("ExportKeyedSnapshot", expected.status());
      if (EncodeShardSnapshot(*drained) != EncodeShardSnapshot(*expected)) {
        std::fprintf(stderr,
                     "bench_service: key %llu drained partition summary != "
                     "offline replay of ACK-reconstructed samples\n",
                     static_cast<unsigned long long>(key));
        return false;
      }
    }
  }

  *out_ms = ms;
  *out_stats = *stats;
  return true;
}

int RunNetGrid(bool smoke, int reps, bool require_scaling,
               bench_util::JsonBenchWriter& writer) {
  // The saturation sweep over the loops axis — matched (connections, batch)
  // pairs at 1 and 4 worker loops, so speedup_vs_1loop divides
  // like-for-like — plus one paced cell below saturation and overload cells
  // deliberately past it.  Cell order matters only in that every l1 row
  // precedes its l4 twin (the twin lookup below is a backward reference).
  const std::vector<NetCell> cells =
      smoke ? std::vector<NetCell>{{1, 1, 64, 24, 0.0, false},
                                   {1, 2, 64, 20, 0.0, false},
                                   {4, 2, 64, 20, 0.0, false},
                                   {4, 2, 64, 60, 0.0, true}}
            : std::vector<NetCell>{{1, 1, 64, 800, 0.0, false},
                                   {1, 1, 512, 120, 0.0, false},
                                   {1, 2, 64, 400, 0.0, false},
                                   {1, 2, 512, 60, 0.0, false},
                                   {1, 4, 64, 200, 0.0, false},
                                   {1, 4, 512, 30, 0.0, false},
                                   {1, 2, 256, 120, 250000.0, false},
                                   {1, 2, 256, 200, 0.0, true},
                                   {4, 2, 64, 400, 0.0, false},
                                   {4, 2, 512, 60, 0.0, false},
                                   {4, 4, 64, 200, 0.0, false},
                                   {4, 4, 512, 30, 0.0, false},
                                   {4, 8, 512, 24, 0.0, false},
                                   {4, 4, 256, 200, 0.0, true}};

  TablePrinter table({"loops", "conns", "batch", "offered/s", "Msamp/s",
                      "vs l1", "accepted", "shed", "rejected", "p50 us",
                      "p99 us", "max part q"});

  std::map<std::string, double> msamples_by_name;
  double best_scaling = 0.0;
  bool have_scaling_pair = false;
  for (size_t ci = 0; ci < cells.size(); ++ci) {
    const NetCell& cell = cells[ci];
    double best_ms = 0.0;
    ServerStats stats;
    for (int rep = 0; rep < reps; ++rep) {
      double ms = 0.0;
      ServerStats rep_stats;
      if (!RunNetCellOnce(cell, ci, smoke, &ms, &rep_stats)) return 2;
      if (best_ms == 0.0 || ms < best_ms) best_ms = ms;
      stats = rep_stats;  // deterministic counters; latencies from last rep
    }

    const double accepted = static_cast<double>(stats.samples_accepted);
    const double shed = static_cast<double>(stats.samples_shed);
    const double rejected = static_cast<double>(
        stats.samples_offered - stats.samples_accepted - stats.samples_shed);
    const double msamples_per_s = accepted / (best_ms * 1e3);
    // Clients + every worker event-loop thread all want a core; this is
    // what keeps a 1-core container from masquerading as a scaling result.
    const int threads_effective =
        EffectiveParallelism(cell.connections + cell.loops);

    uint64_t part_depth_max = 0;
    uint64_t part_shed_max = 0;
    for (const PartitionStats& part : stats.partitions) {
      part_depth_max = std::max(part_depth_max, part.max_queue_depth);
      part_shed_max = std::max(part_shed_max, part.samples_shed);
    }

    std::string suffix;
    if (cell.overload) {
      suffix = "overload";
    } else if (cell.offered_load > 0.0) {
      suffix = "load" + std::to_string(static_cast<int64_t>(
                            cell.offered_load));
    } else {
      suffix = "sat";
    }
    const std::string stem = "net_c" + std::to_string(cell.connections) +
                             "_b" + std::to_string(cell.batch);
    const std::string name =
        stem + "_l" + std::to_string(cell.loops) + "_" + suffix;
    msamples_by_name[name] = msamples_per_s;

    // speedup_vs_1loop: this row's throughput over its single-loop twin's
    // (same connections, batch, and load shape).  1 for l1 rows by
    // definition; 0 marks "no twin in this grid".
    double speedup = cell.loops == 1 ? 1.0 : 0.0;
    if (cell.loops > 1) {
      auto twin = msamples_by_name.find(stem + "_l1_" + suffix);
      if (twin != msamples_by_name.end() && twin->second > 0.0) {
        speedup = msamples_per_s / twin->second;
        if (suffix == "sat") {
          have_scaling_pair = true;
          best_scaling = std::max(best_scaling, speedup);
        }
      }
    }

    writer.Add(name,
               {{"loops", static_cast<double>(cell.loops)},
                {"partitions", static_cast<double>(cell.loops)},
                {"connections", static_cast<double>(cell.connections)},
                {"batch", static_cast<double>(cell.batch)},
                {"offered_load", cell.offered_load},
                {"overload_cell", cell.overload ? 1.0 : 0.0},
                {"threads_effective", static_cast<double>(threads_effective)},
                {"reps", static_cast<double>(reps)},
                {"ms", best_ms},
                {"offered", static_cast<double>(stats.samples_offered)},
                {"accepted", accepted},
                {"shed", shed},
                {"rejected", rejected},
                {"batches_rejected",
                 static_cast<double>(stats.batches_rejected)},
                {"max_queue_depth",
                 static_cast<double>(stats.max_queue_depth)},
                {"partition_max_depth", static_cast<double>(part_depth_max)},
                {"partition_shed_max", static_cast<double>(part_shed_max)},
                {"flushes_size", static_cast<double>(stats.flushes_size)},
                {"flushes_deadline",
                 static_cast<double>(stats.flushes_deadline)},
                {"msamples_per_s", msamples_per_s},
                {"speedup_vs_1loop", speedup},
                {"p50_us", stats.ingest_p50_us},
                {"p99_us", stats.ingest_p99_us},
                {"p995_us", stats.ingest_p995_us}});
    table.AddRow({TablePrinter::FormatInt(cell.loops),
                  TablePrinter::FormatInt(cell.connections),
                  TablePrinter::FormatInt(cell.batch),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(cell.offered_load)),
                  TablePrinter::FormatDouble(msamples_per_s, 2),
                  TablePrinter::FormatDouble(speedup, 2),
                  TablePrinter::FormatDouble(accepted, 0),
                  TablePrinter::FormatDouble(shed, 0),
                  TablePrinter::FormatDouble(rejected, 0),
                  TablePrinter::FormatDouble(stats.ingest_p50_us, 1),
                  TablePrinter::FormatDouble(stats.ingest_p99_us, 1),
                  TablePrinter::FormatInt(
                      static_cast<int64_t>(part_depth_max))});
  }

  table.Print(std::cout);

  // The multi-core CI gate: on a runner with real cores, 4 loops must beat
  // 1 loop by >= 2.5x on some matched saturation pair.  Never pass this on
  // a 1-core box — threads_effective pins every row at 1 there and the
  // ratio is honest noise.
  if (require_scaling) {
    if (!have_scaling_pair || best_scaling < 2.5) {
      std::fprintf(stderr,
                   "bench_service: --require-scaling: best l4/l1 saturation "
                   "speedup %.2fx < 2.50x (pair found: %s)\n",
                   best_scaling, have_scaling_pair ? "yes" : "no");
      return 2;
    }
    std::printf("--require-scaling: best l4/l1 saturation speedup %.2fx\n",
                best_scaling);
  }
  return 0;
}

#endif  // FASTHIST_HAVE_NET

}  // namespace
}  // namespace fasthist

int main(int argc, char** argv) {
  using fasthist::bench_util::FlagValue;
  using fasthist::bench_util::HasFlag;

  const bool smoke = HasFlag(argc, argv, "--smoke");
  const bool store_flag = HasFlag(argc, argv, "--store-grid");
  const bool net_flag = HasFlag(argc, argv, "--net-grid");
  if (!store_flag && !net_flag) {
    std::fprintf(stderr, "%s", fasthist::kUsage);
    return 2;
  }
  const bool require_scaling = HasFlag(argc, argv, "--require-scaling");
  const char* store_out = FlagValue(argc, argv, "--store-out=");
  const std::string store_out_path =
      store_out != nullptr ? store_out : "BENCH_store.json";
  const char* net_out = FlagValue(argc, argv, "--net-out=");
  const std::string net_out_path =
      net_out != nullptr ? net_out : "BENCH_net.json";

  // Min-of-R rep count: --reps=N, floored at 3 (below that a minimum is
  // just a sample).
  int reps = smoke ? 3 : 9;
  if (const char* reps_flag = FlagValue(argc, argv, "--reps=")) {
    reps = std::atoi(reps_flag);
    if (reps < 3) {
      std::fprintf(stderr, "bench_service: --reps floored to 3\n");
      reps = 3;
    }
  }

  int rc = 0;
  if (store_flag) {
    fasthist::bench_util::JsonBenchWriter store_writer("store");
    store_writer.AddContext("domain",
                            static_cast<double>(fasthist::kStoreDomain));
    store_writer.AddContext("k", static_cast<double>(fasthist::kStoreK));
    store_writer.AddContext("window_capacity",
                            static_cast<double>(fasthist::kStoreWindow));
    store_writer.AddContext(
        "baseline_buffer_capacity",
        static_cast<double>(fasthist::kStoreWindow));
    store_writer.AddContext("smoke", smoke ? 1.0 : 0.0);
    store_writer.AddContext("reps", static_cast<double>(reps));
    rc = fasthist::RunStoreGrid(smoke, reps, store_writer);
    if (rc != 0) return rc;
    if (!store_writer.WriteFile(store_out_path)) {
      std::fprintf(stderr, "bench_service: cannot write %s\n",
                   store_out_path.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", store_out_path.c_str());
  }

  if (net_flag) {
#if defined(FASTHIST_HAVE_NET)
    fasthist::bench_util::JsonBenchWriter net_writer("net");
    net_writer.AddContext("hardware_threads",
                          static_cast<double>(
                              std::thread::hardware_concurrency()));
    net_writer.AddContext("smoke", smoke ? 1.0 : 0.0);
    net_writer.AddContext("reps", static_cast<double>(reps));
    rc = fasthist::RunNetGrid(smoke, reps, require_scaling, net_writer);
    if (rc != 0) return rc;
    if (!net_writer.WriteFile(net_out_path)) {
      std::fprintf(stderr, "bench_service: cannot write %s\n",
                   net_out_path.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", net_out_path.c_str());
#else
    std::fprintf(stderr,
                 "bench_service: --net-grid requires the POSIX net/ layer, "
                 "which this build does not include\n");
    return 2;
#endif
  }
  return 0;
}
