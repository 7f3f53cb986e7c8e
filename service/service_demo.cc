// End-to-end demo of the paper's dataflow on served data: an in-process
// ShardedIngestServer ingests M keyed streams (one key each) sent through
// IngestClient, the demo pulls every key's snapshot over the wire, reduces
// the pulls in a deterministic merge tree (ReduceSnapshots, Lemma 4.2), and
// answers quantile queries from the aggregate against the exact quantiles
// of the samples the server accepted (reconstructed from its ACKs).
//
//   service_demo [--shards=M] [--samples=PER_STREAM] [--fan-in=F]
//
// Exits non-zero on any error, on an aggregate weight other than the
// accepted sample count, or on aggregate mass drift beyond 1e-6, so CI can
// use it as a smoke test of the whole ingest -> pull -> merge-tree -> query
// path.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "data/generators.h"
#include "dist/alias_sampler.h"
#include "dist/empirical.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/sharded_ingest_server.h"
#include "service/aggregator.h"
#include "service/merge_tree.h"
#include "util/random.h"
#include "util/table.h"

namespace fasthist {
namespace {

constexpr int64_t kDomain = 2000;
constexpr int64_t kK = 12;
// Each key's window: the server condenses a key's samples this many at a
// time, as a StreamingHistogramBuilder with this buffer would.
constexpr size_t kWindow = 2048;
constexpr int kLoops = 4;
constexpr size_t kBatch = 1024;  // samples per kIngest frame

int64_t ParseInt(const char* text, int64_t fallback) {
  if (text == nullptr) return fallback;
  const int64_t value = std::atoll(text);
  return value > 0 ? value : fallback;
}

int Fail(const char* where, const Status& status) {
  std::fprintf(stderr, "service_demo: %s: %s\n", where,
               status.message().c_str());
  return 1;
}

int Run(int argc, char** argv) {
  const int64_t num_streams =
      ParseInt(bench_util::FlagValue(argc, argv, "--shards="), 8);
  const int64_t samples_per_stream =
      ParseInt(bench_util::FlagValue(argc, argv, "--samples="), 50000);
  const int fan_in = static_cast<int>(
      ParseInt(bench_util::FlagValue(argc, argv, "--fan-in="), 4));

  auto p = NormalizeToDistribution(MakeHistDataset({kDomain, 19980607, 10,
                                                    20.0, 100.0, 1.0}));
  if (!p.ok()) return Fail("NormalizeToDistribution", p.status());
  auto sampler = AliasSampler::Create(*p);
  if (!sampler.ok()) return Fail("AliasSampler::Create", sampler.status());

  ShardedIngestServerOptions options;
  options.num_loops = kLoops;
  options.base.archetype.domain_size = kDomain;
  options.base.archetype.k = kK;
  options.base.archetype.window_capacity = kWindow;
  auto server = ShardedIngestServer::Create(options);
  if (!server.ok()) return Fail("ShardedIngestServer::Create", server.status());
  if (Status s = (*server)->Start(); !s.ok()) return Fail("Start", s);
  auto client = IngestClient::Connect("127.0.0.1", (*server)->port());
  if (!client.ok()) return Fail("IngestClient::Connect", client.status());

  std::printf("service_demo: %" PRId64 " keyed streams x %" PRId64
              " samples on [%" PRId64 "], k=%" PRId64
              ", %d server loops, fan-in %d\n\n",
              num_streams, samples_per_stream, kDomain, kK, kLoops, fan_in);

  // Ingest: stream s is key s, sent in kBatch-sample frames.  The ACKs say
  // which samples the server kept, so `accepted` is exactly what it holds.
  std::vector<int64_t> accepted;
  accepted.reserve(static_cast<size_t>(num_streams * samples_per_stream));
  std::vector<KeyedSample> batch;
  for (int64_t stream = 0; stream < num_streams; ++stream) {
    Rng rng(0x5eed0000 + static_cast<uint64_t>(stream));
    const std::vector<int64_t> samples =
        sampler->SampleMany(static_cast<size_t>(samples_per_stream), &rng);
    for (size_t off = 0; off < samples.size(); off += kBatch) {
      const size_t end = std::min(samples.size(), off + kBatch);
      batch.clear();
      for (size_t i = off; i < end; ++i) {
        batch.push_back({static_cast<uint64_t>(stream), samples[i]});
      }
      auto result = client->Ingest(batch);
      if (!result.ok()) return Fail("Ingest", result.status());
      if (result->rejected) continue;  // a kRejected reply kept nothing
      for (const KeyedSample& kept :
           ReconstructAccepted(batch, result->ack, kLoops)) {
        accepted.push_back(kept.value);
      }
    }
  }

  // Pull: one keyed snapshot per stream, over the wire.
  std::vector<ShardSnapshot> snapshots;
  size_t encoded_bytes = 0;
  for (int64_t stream = 0; stream < num_streams; ++stream) {
    auto pulled = client->PullSnapshot(static_cast<uint64_t>(stream));
    if (!pulled.ok()) return Fail("PullSnapshot", pulled.status());
    encoded_bytes += pulled->encoded_histogram.size();
    snapshots.push_back(std::move(pulled).value());
  }
  client->Close();
  if (Status s = (*server)->Shutdown(); !s.ok()) return Fail("Shutdown", s);
  std::printf("server accepted %zu of %" PRId64
              " samples; pulled %zu snapshot bytes (%.1f per key)\n",
              accepted.size(), num_streams * samples_per_stream,
              encoded_bytes,
              static_cast<double>(encoded_bytes) /
                  static_cast<double>(num_streams));

  // Reduce: deterministic fan-in tree over the pulled snapshots.
  MergeTreeOptions tree_options;
  tree_options.fan_in = fan_in;
  auto reduced = ReduceSnapshots(snapshots, kK, tree_options);
  if (!reduced.ok()) return Fail("ReduceSnapshots", reduced.status());
  std::printf("reduced in a depth-%d tree (%" PRId64
              " merges, %d error levels): %" PRId64
              " pieces, weight %.0f\n\n",
              reduced->depth, reduced->num_merges, reduced->error_levels,
              reduced->aggregate.num_pieces(), reduced->total_weight);
  if (reduced->total_weight != static_cast<double>(accepted.size())) {
    std::fprintf(stderr,
                 "service_demo: aggregate weight %.0f != %zu accepted "
                 "samples\n",
                 reduced->total_weight, accepted.size());
    return 1;
  }
  if (std::abs(reduced->aggregate.TotalMass() - 1.0) > 1e-6) {
    std::fprintf(stderr, "service_demo: aggregate mass drifted to %.9f\n",
                 reduced->aggregate.TotalMass());
    return 1;
  }

  // Query: quantiles from the aggregate vs the exact answer over the
  // accepted samples.  The MergeTreeResult overload rejects a zero-sample
  // aggregate, so a server that kept nothing fails loudly here instead of
  // serving fabricated numbers.
  auto aggregator = Aggregator::Create(*reduced);
  if (!aggregator.ok()) return Fail("Aggregator::Create", aggregator.status());
  std::sort(accepted.begin(), accepted.end());
  TablePrinter table({"q", "served", "exact", "|diff|"});
  for (const double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    const int64_t served = aggregator->Quantile(q);
    const size_t rank = std::min(
        accepted.size() - 1,
        static_cast<size_t>(q * static_cast<double>(accepted.size())));
    const int64_t exact = accepted[rank];
    table.AddRow({TablePrinter::FormatDouble(q, 2),
                  TablePrinter::FormatInt(served),
                  TablePrinter::FormatInt(exact),
                  TablePrinter::FormatInt(std::abs(served - exact))});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace fasthist

int main(int argc, char** argv) { return fasthist::Run(argc, argv); }
