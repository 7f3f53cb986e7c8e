#include "perfbench/traced_run.h"

#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <utility>

#include "core/fast_merging.h"
#include "core/streaming.h"
#include "core/streaming_ladder.h"
#include "dist/empirical.h"
#include "net/frame.h"
#include "net/ingest_server.h"
#include "net/latency_recorder.h"
#include "net/sharded_ingest_server.h"
#include "net/spsc_ring.h"
#include "perfbench/tracer.h"
#include "service/aggregator.h"
#include "service/wire_format.h"
#include "store/partitioned_store.h"
#include "util/clock.h"

namespace fasthist {
namespace perfbench {
namespace {

// The replay covers a prefix of the live run: per-sample and per-call costs
// settle long before it ends, and the bound keeps a traced run short.
constexpr uint64_t kReplaySampleBudget = uint64_t{4} << 20;
constexpr uint64_t kReplayOpBudget = 30000;  // per connection
// LatencyRecorder::Record costs about as much as reading the clock, so the
// replay records latencies in groups and times each group as one span.
constexpr size_t kRecordGroup = 256;
constexpr size_t kMaxRawSpans = 200000;
constexpr int kTimed = 0;
constexpr int kProbe = 1;

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

// A streaming_ladder Storage (core/streaming_ladder.h) over plain vectors:
// the decomposition pass runs the store's commit and fold steps on it.
struct BenchLadder {
  std::vector<Histogram> summaries;
  std::vector<int64_t> counts;

  int levels() const { return static_cast<int>(counts.size()); }
  int64_t count(int level) const { return counts[static_cast<size_t>(level)]; }
  StatusOr<Histogram> Load(int level) const {
    return summaries[static_cast<size_t>(level)];
  }
  Status Store(int level, Histogram histogram, int64_t count) {
    summaries[static_cast<size_t>(level)] = std::move(histogram);
    counts[static_cast<size_t>(level)] = count;
    return Status::Ok();
  }
  void Clear(int level) { counts[static_cast<size_t>(level)] = 0; }
  Status PushLevel() {
    summaries.emplace_back();
    counts.push_back(0);
    return Status::Ok();
  }
};

// Span names.  Server-side stages are the ones the live server's CPU time
// is compared against.
struct Names {
  explicit Names(Tracer& t)
      : request(t.Intern("request")),
        client_encode(t.Intern("client.encode")),
        frame_decode(t.Intern("server.frame_decode")),
        partition(t.Intern("server.partition")),
        ring(t.Intern("server.ring")),
        drain(t.Intern("server.drain")),
        add_batch(t.Intern("store.add_batch")),
        ack_encode(t.Intern("server.ack_encode")),
        ack_decode(t.Intern("client.ack_decode")),
        latency_record(t.Intern("server.latency_record")),
        request_decode(t.Intern("server.request_decode")),
        store_query(t.Intern("store.query")),
        aggregator_create(t.Intern("service.aggregator_create")),
        quantile(t.Intern("service.quantile")),
        export_snapshot(t.Intern("store.export_snapshot")),
        snapshot_encode(t.Intern("service.snapshot_encode")),
        reply_encode(t.Intern("server.reply_encode")),
        reply_decode(t.Intern("client.reply_decode")),
        snapshot_decode(t.Intern("service.snapshot_decode")),
        empirical(t.Intern("dist.empirical")),
        construct(t.Intern("core.construct")),
        ladder_commit(t.Intern("core.ladder_commit")),
        fold(t.Intern("core.fold")) {}

  std::vector<int> server_side() const {
    return {frame_decode,      partition,      ring,           drain,
            add_batch,         ack_encode,     latency_record, request_decode,
            store_query,       aggregator_create, quantile,    export_snapshot,
            snapshot_encode,   reply_encode};
  }

  int request, client_encode, frame_decode, partition, ring, drain, add_batch,
      ack_encode, ack_decode, latency_record, request_decode, store_query,
      aggregator_create, quantile, export_snapshot, snapshot_encode,
      reply_encode, reply_decode, snapshot_decode, empirical, construct,
      ladder_commit, fold;
};

// The decomposition pass: the same full windows the store condenses inside
// AddBatch, run step by step through EmpiricalDistribution,
// ConstructHistogramFast and streaming_ladder::Commit, plus a
// streaming_ladder::Fold at every read of a tracked key.
class Decomposer {
 public:
  Decomposer(const WorkloadInputs& inputs, Tracer& tracer, const Names& names)
      : inputs_(inputs), tracer_(tracer), names_(names) {}

  Status OnAddBatch(Span<const KeyedSample> samples) {
    for (const KeyedSample& s : samples) {
      if (!inputs_.MayCondense(s.key)) continue;
      KeyState& state = keys_[s.key];
      state.window.push_back(s.value);
      if (state.window.size() < config_.window_capacity) continue;
      if (Status st = Condense(state); !st.ok()) return st;
    }
    return Status::Ok();
  }

  Status OnRead(uint64_t key) {
    auto it = keys_.find(key);
    if (it == keys_.end() || it->second.summarized == 0) return Status::Ok();
    Tracer::Scope span(tracer_, names_.fold);
    return streaming_ladder::Fold(it->second.ladder, config_.k,
                                  config_.options)
        .status();
  }

  // Every tracked key's summary, rebuilt from the pass's own ladder and
  // window, must be bit-identical to what the store serves.
  bool MatchesStore(const PartitionedSummaryStore& store) const {
    for (const auto& [key, state] : keys_) {
      auto served = store.Query(key);
      if (!served.ok()) return false;
      StatusOr<Histogram> expected = Histogram();
      if (state.summarized > 0) {
        expected =
            streaming_ladder::Fold(state.ladder, config_.k, config_.options);
        if (expected.ok() && !state.window.empty()) {
          expected = StreamingHistogramBuilder::FoldBufferIntoSummary(
              &*expected, state.summarized, state.window, config_.domain_size,
              config_.k, config_.options);
        }
      } else {
        expected = StreamingHistogramBuilder::FoldBufferIntoSummary(
            nullptr, 0, state.window, config_.domain_size, config_.k,
            config_.options);
      }
      if (!expected.ok() ||
          EncodeHistogram(*expected) != EncodeHistogram(*served)) {
        return false;
      }
    }
    return true;
  }

 private:
  struct KeyState {
    std::vector<int64_t> window;
    BenchLadder ladder;
    int64_t summarized = 0;
  };

  Status Condense(KeyState& state) {
    StatusOr<SparseFunction> empirical = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.empirical);
      empirical = EmpiricalDistribution(config_.domain_size, state.window);
    }
    if (!empirical.ok()) return empirical.status();
    StatusOr<MergingResult> built = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.construct);
      built = ConstructHistogramFast(*empirical, config_.k, config_.options);
    }
    if (!built.ok()) return built.status();
    const auto count = static_cast<int64_t>(state.window.size());
    Status committed = Status::Ok();
    {
      Tracer::Scope span(tracer_, names_.ladder_commit);
      committed = streaming_ladder::Commit(state.ladder,
                                           std::move(built->histogram), count,
                                           config_.k, config_.options);
    }
    state.summarized += count;
    state.window.clear();
    return committed;
  }

  const WorkloadInputs& inputs_;
  Tracer& tracer_;
  const Names& names_;
  const ArchetypeConfig config_;
  std::unordered_map<uint64_t, KeyState> keys_;
};

// The server's request path, replayed on one thread: each connection is
// received by loop `conn` (the acceptor's round-robin), each partition is
// owned by loop `partition`, and rings connect them as in the server.
class Replay {
 public:
  Replay(const WorkloadInputs& inputs, Tracer& tracer,
         PartitionedSummaryStore store, LatencyRecorder recorder)
      : tracer_(tracer),
        names_(tracer),
        store_(std::move(store)),
        recorder_(std::move(recorder)),
        decomposer_(inputs, tracer, names_) {
    for (uint32_t p = 0; p < kLoops; ++p) {
      for (int c = 0; c < kConnections; ++c) {
        rings_[p][static_cast<size_t>(c)] =
            std::make_unique<SpscRing<std::vector<KeyedSample>>>(
                ShardedIngestServerOptions().ring_capacity);
      }
    }
    for (auto& buckets : scratch_) buckets.resize(kLoops);
    latencies_.reserve(kRecordGroup);
  }

  Status Ingest(int conn, const std::vector<KeyedSample>& batch) {
    tracer_.BeginRequest();
    Tracer::Scope request(tracer_, names_.request);
    const size_t c = static_cast<size_t>(conn);
    std::vector<uint8_t> frame;
    {
      Tracer::Scope span(tracer_, names_.client_encode);
      frame = EncodeFrame(FrameType::kIngest, EncodeIngestPayload(batch));
    }
    const uint64_t server_start = MonotonicNanos();
    StatusOr<std::vector<KeyedSample>> samples = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.frame_decode);
      samples = ServerReceive(c, frame, FrameType::kIngest,
                              &DecodeIngestPayload);
      bool in_domain = samples.ok();
      if (in_domain) {
        for (const KeyedSample& s : *samples) {
          if (s.value < 0 || s.value >= config_.domain_size) in_domain = false;
        }
      }
      if (samples.ok() && !in_domain) {
        samples = Status::Invalid("perfbench: sample outside the domain");
      }
    }
    if (!samples.ok()) return samples.status();

    std::array<std::vector<KeyedSample>, kLoops> slices;
    {
      Tracer::Scope span(tracer_, names_.partition);
      for (const KeyedSample& s : *samples) {
        scratch_[c][PartitionOfKey(s.key, kLoops)].push_back(s);
      }
      for (uint32_t p = 0; p < kLoops; ++p) {
        std::vector<KeyedSample>& bucket = scratch_[c][p];
        slices[p].reserve(bucket.size());
        for (const KeyedSample& s : bucket) slices[p].push_back(s);
      }
    }
    IngestAck ack;
    for (uint32_t p = 0; p < kLoops; ++p) {
      if (slices[p].empty()) continue;
      std::vector<KeyedSample> slice;
      bool handed_off = false;
      {
        Tracer::Scope span(tracer_, names_.ring);
        handed_off = rings_[p][c]->Push(std::move(slices[p])) &&
                     rings_[p][c]->Pop(&slice);
      }
      if (!handed_off) return Status::Invalid("perfbench: replay ring failed");
      Tracer::Scope span(tracer_, names_.drain);
      pending_[p].insert(pending_[p].end(), slice.begin(), slice.end());
    }
    if (timed_) {
      ++counters_.batches;
      counters_.samples += samples->size();
    }
    for (uint32_t p = 0; p < kLoops; ++p) {
      std::vector<KeyedSample>& bucket = scratch_[c][p];
      if (bucket.empty()) continue;
      PartitionDisposition d;
      d.partition = p;
      d.accepted = bucket.size();
      ack.accepted += d.accepted;
      ack.partitions.push_back(d);
      if (timed_) ++counters_.slices;
      bucket.clear();
      if (pending_[p].size() >= flush_batch_) {
        if (Status s = Flush(p); !s.ok()) return s;
      }
    }
    std::vector<uint8_t> ack_frame;
    {
      Tracer::Scope span(tracer_, names_.ack_encode);
      ack_frame = EncodeFrame(FrameType::kIngestAck, EncodeIngestAck(ack));
    }
    RecordLatency(server_start);
    {
      Tracer::Scope span(tracer_, names_.ack_decode);
      auto decoded =
          ClientReceive(c, ack_frame, FrameType::kIngestAck, &DecodeIngestAck);
      if (!decoded.ok()) return decoded.status();
      if (ReconstructAccepted(batch, *decoded, kLoops).size() != batch.size()) {
        return Status::Invalid("perfbench: replay ACK lost samples");
      }
    }
    return Status::Ok();
  }

  Status Quantile(int conn, uint64_t key, double q) {
    tracer_.BeginRequest();
    Tracer::Scope request(tracer_, names_.request);
    const size_t c = static_cast<size_t>(conn);
    const std::vector<uint8_t> frame =
        EncodeFrame(FrameType::kQuantileQuery, EncodeQuantileQuery({key, q}));
    const uint64_t server_start = MonotonicNanos();
    StatusOr<QuantileQuery> query = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.request_decode);
      query = ServerReceive(c, frame, FrameType::kQuantileQuery,
                            &DecodeQuantileQuery);
    }
    if (!query.ok()) return query.status();
    const uint32_t p = PartitionOfKey(key, kLoops);
    if (Status s = Flush(p); !s.ok()) return s;
    if (Status s = decomposer_.OnRead(key); !s.ok()) return s;
    const SummaryStore& part = store_.partition(p);
    StatusOr<Histogram> summary = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.store_query);
      summary = part.Query(key);
    }
    if (!summary.ok()) return summary.status();
    // SummaryStore::QueryAggregator is Query followed by Aggregator::Create
    // (the server's per-level error is 0); the replay times the two apart.
    StatusOr<Aggregator> aggregator = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.aggregator_create);
      aggregator = Aggregator::Create(std::move(summary).value(), 0.0);
    }
    if (!aggregator.ok()) return aggregator.status();
    QuantileReply reply;
    {
      Tracer::Scope span(tracer_, names_.quantile);
      reply.value = aggregator->Quantile(std::min(1.0, std::max(0.0, q)));
    }
    std::vector<uint8_t> reply_frame;
    {
      Tracer::Scope span(tracer_, names_.reply_encode);
      reply.error_budget = aggregator->error_budget();
      if (auto count = part.NumSamples(key); count.ok()) {
        reply.num_samples = *count;
      }
      reply_frame =
          EncodeFrame(FrameType::kQuantileReply, EncodeQuantileReply(reply));
    }
    RecordLatency(server_start);
    Tracer::Scope span(tracer_, names_.reply_decode);
    return ClientReceive(c, reply_frame, FrameType::kQuantileReply,
                         &DecodeQuantileReply)
        .status();
  }

  Status Pull(int conn, uint64_t key) {
    tracer_.BeginRequest();
    Tracer::Scope request(tracer_, names_.request);
    const size_t c = static_cast<size_t>(conn);
    const std::vector<uint8_t> frame =
        EncodeFrame(FrameType::kSnapshotPull, EncodeKeyPayload(key));
    const uint64_t server_start = MonotonicNanos();
    StatusOr<uint64_t> decoded_key = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.request_decode);
      decoded_key =
          ServerReceive(c, frame, FrameType::kSnapshotPull, &DecodeKeyPayload);
    }
    if (!decoded_key.ok()) return decoded_key.status();
    const uint32_t p = PartitionOfKey(key, kLoops);
    if (Status s = Flush(p); !s.ok()) return s;
    if (Status s = decomposer_.OnRead(key); !s.ok()) return s;
    StatusOr<ShardSnapshot> snapshot = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.export_snapshot);
      snapshot = store_.partition(p).ExportKeyedSnapshot(key, 0);
    }
    if (!snapshot.ok()) return snapshot.status();
    std::vector<uint8_t> payload;
    {
      Tracer::Scope span(tracer_, names_.snapshot_encode);
      payload = EncodeShardSnapshot(*snapshot);
    }
    std::vector<uint8_t> reply_frame;
    {
      Tracer::Scope span(tracer_, names_.reply_encode);
      reply_frame = EncodeFrame(FrameType::kSnapshotPush, payload);
    }
    RecordLatency(server_start);
    StatusOr<std::vector<uint8_t>> received = Status::Invalid("unset");
    {
      Tracer::Scope span(tracer_, names_.reply_decode);
      received = ClientReceive(
          c, reply_frame, FrameType::kSnapshotPush,
          [](Span<const uint8_t> bytes) -> StatusOr<std::vector<uint8_t>> {
            return std::vector<uint8_t>(bytes.begin(), bytes.end());
          });
    }
    if (!received.ok()) return received.status();
    if (recording_) {
      ++counters_.pulls;
      counters_.snapshot_bytes += received->size();
    }
    Tracer::Scope span(tracer_, names_.snapshot_decode);
    return DecodeShardSnapshot(*received).status();
  }

  Status Barrier(int conn, const std::vector<uint64_t>& keys) {
    for (const uint64_t key : keys) {
      if (Status s = Quantile(conn, key, 0.5); !s.ok()) return s;
    }
    return Status::Ok();
  }

  Status Run(int conn, const Op& op, const std::vector<KeyedSample>& batch,
             const std::vector<uint64_t>& barrier_keys) {
    switch (op.kind) {
      case OpKind::kIngest:
        return Ingest(conn, batch);
      case OpKind::kBarrier:
        return Barrier(conn, barrier_keys);
      case OpKind::kQuery:
        return Quantile(conn, op.key, op.q);
      case OpKind::kPull:
        return Pull(conn, op.key);
    }
    return Status::Ok();
  }

  // Setup replays untraced; the timed phase and the probe phase are traced
  // into their own aggregates.
  void set_phase(int phase, bool recording) {
    FlushLatencies();
    recording_ = recording;
    timed_ = recording && phase == kTimed;
    tracer_.set_phase(phase);
    tracer_.set_recording(recording);
  }

  void Finish() { FlushLatencies(); }

  struct Counters {
    uint64_t batches = 0;
    uint64_t samples = 0;
    uint64_t slices = 0;
    uint64_t add_batch_samples = 0;
    uint64_t records = 0;
    uint64_t pulls = 0;
    uint64_t snapshot_bytes = 0;
  };
  const Counters& counters() const { return counters_; }
  const Names& names() const { return names_; }
  const PartitionedSummaryStore& store() const { return store_; }
  const Decomposer& decomposer() const { return decomposer_; }

 private:
  // Feeds one frame through a connection's server-side parser and decodes
  // its payload.
  template <typename Decode>
  auto ServerReceive(size_t conn, const std::vector<uint8_t>& frame,
                     FrameType type, Decode decode)
      -> decltype(decode(Span<const uint8_t>())) {
    return Receive(server_parsers_[conn], frame, type, decode);
  }
  template <typename Decode>
  auto ClientReceive(size_t conn, const std::vector<uint8_t>& frame,
                     FrameType type, Decode decode)
      -> decltype(decode(Span<const uint8_t>())) {
    return Receive(client_parsers_[conn], frame, type, decode);
  }
  template <typename Decode>
  static auto Receive(FrameParser& parser, const std::vector<uint8_t>& frame,
                      FrameType type, Decode decode)
      -> decltype(decode(Span<const uint8_t>())) {
    parser.Consume(Span<const uint8_t>(frame.data(), frame.size()));
    Frame out;
    if (parser.Next(&out) != FrameParser::Result::kFrame || out.type != type) {
      return Status::Invalid("perfbench: replay frame did not parse");
    }
    return decode(Span<const uint8_t>(out.payload.data(), out.payload.size()));
  }

  Status Flush(uint32_t p) {
    std::vector<KeyedSample>& pending = pending_[p];
    if (pending.empty()) return Status::Ok();
    Status s = Status::Ok();
    {
      Tracer::Scope span(tracer_, names_.add_batch);
      s = store_.partition(p).AddBatch(
          Span<const KeyedSample>(pending.data(), pending.size()));
    }
    if (!s.ok()) return s;
    if (timed_) counters_.add_batch_samples += pending.size();
    s = decomposer_.OnAddBatch(
        Span<const KeyedSample>(pending.data(), pending.size()));
    pending.clear();
    return s;
  }

  void RecordLatency(uint64_t start_ns) {
    latencies_.push_back(MonotonicNanos() - start_ns);
    if (latencies_.size() == kRecordGroup) FlushLatencies();
  }

  void FlushLatencies() {
    if (latencies_.empty()) return;
    {
      Tracer::Scope span(tracer_, names_.latency_record);
      for (const uint64_t nanos : latencies_) recorder_.Record(nanos);
    }
    if (recording_) counters_.records += latencies_.size();
    latencies_.clear();
  }

  Tracer& tracer_;
  Names names_;
  const ArchetypeConfig config_;
  const size_t flush_batch_ = IngestServerOptions().flush_batch;
  PartitionedSummaryStore store_;
  LatencyRecorder recorder_;
  Decomposer decomposer_;
  std::array<std::array<std::unique_ptr<SpscRing<std::vector<KeyedSample>>>,
                        kConnections>,
             kLoops>
      rings_;
  std::array<std::vector<KeyedSample>, kLoops> pending_;
  std::array<std::vector<std::vector<KeyedSample>>, kConnections> scratch_;
  std::array<FrameParser, kConnections> server_parsers_;
  std::array<FrameParser, kConnections> client_parsers_;
  std::vector<uint64_t> latencies_;
  Counters counters_;
  bool recording_ = false;
  bool timed_ = false;  // recording the timed phase
};

}  // namespace

StatusOr<TracedResult> RunTraced(const WorkloadInputs& inputs,
                                 const LiveResult& live_result,
                                 const std::string& spans_path) {
  if (live_result.runs.empty()) {
    return Status::Invalid("perfbench: no timed phase to replay");
  }
  const TimedRun& live = live_result.runs.back();
  const ArchetypeConfig config;
  auto store = PartitionedSummaryStore::Create(config, kLoops);
  if (!store.ok()) return store.status();
  auto recorder = LatencyRecorder::Create();
  if (!recorder.ok()) return recorder.status();
  Tracer tracer(kMaxRawSpans);
  Replay replay(inputs, tracer, std::move(store).value(),
                std::move(recorder).value());

  replay.set_phase(kTimed, /*recording=*/false);
  for (int c = 0; c < kConnections; ++c) {
    for (const std::vector<KeyedSample>& batch : inputs.setup_batches(c)) {
      if (Status s = replay.Ingest(c, batch); !s.ok()) return s;
      if (Status s = replay.Barrier(c, inputs.barrier_keys(c)); !s.ok()) {
        return s;
      }
    }
  }

  // Timed phase: the connections' operations interleaved round-robin.
  // Per-key state does not depend on the interleaving (each connection
  // writes only its own keys); only flush timing does.
  TracedResult result;
  replay.set_phase(kTimed, /*recording=*/true);
  std::vector<WorkloadInputs::Stream> streams;
  for (int c = 0; c < kConnections; ++c) streams.push_back(inputs.TimedStream(c));
  std::vector<KeyedSample> batch;
  Op op;
  for (bool progressed = true; progressed;) {
    progressed = false;
    for (int c = 0; c < kConnections; ++c) {
      WorkloadInputs::Stream& stream = streams[static_cast<size_t>(c)];
      const uint64_t limit =
          std::min(live.ops_done[static_cast<size_t>(c)], kReplayOpBudget);
      if (stream.ops() >= limit ||
          replay.counters().samples >= kReplaySampleBudget ||
          !stream.Next(&op, &batch)) {
        continue;
      }
      if (Status s = replay.Run(c, op, batch, inputs.barrier_keys(c));
          !s.ok()) {
        return s;
      }
      ++result.replayed_ops;
      progressed = true;
    }
  }
  result.replayed_samples = replay.counters().samples;

  replay.set_phase(kProbe, /*recording=*/true);
  for (const uint64_t key : inputs.probe_keys()) {
    if (Status s = replay.Pull(0, key); !s.ok()) return s;
    for (const double q : kProbeQs) {
      if (Status s = replay.Quantile(0, key, q); !s.ok()) return s;
    }
  }
  replay.Finish();
  result.decomposition_matches =
      replay.decomposer().MatchesStore(replay.store());

  const Names& n = replay.names();
  const Replay::Counters& k = replay.counters();
  const auto timed = [&tracer](int name) {
    return tracer.aggregate(kTimed, name);
  };
  const auto both = [&tracer](int name) { return tracer.total(name); };
  const auto per_call = [](const Tracer::Aggregate& a) {
    return Ratio(a.self_ns, static_cast<double>(a.count));
  };
  const auto allocs_per_call = [](const Tracer::Aggregate& a) {
    return Ratio(static_cast<double>(a.self_allocs),
                 static_cast<double>(a.count));
  };
  const double samples = static_cast<double>(k.samples);
  const double flushed = static_cast<double>(k.add_batch_samples);

  double server_traced_ns = 0.0;
  for (const int name : n.server_side()) server_traced_ns += timed(name).self_ns;

  const ServerStats& before = live.stats_before;
  const ServerStats& after = live.stats_after;
  uint64_t rejected_before = 0;
  uint64_t rejected_after = 0;
  for (const PartitionStats& p : before.partitions) {
    rejected_before += p.samples_rejected;
  }
  for (const PartitionStats& p : after.partitions) {
    rejected_after += p.samples_rejected;
  }

  uint64_t keys = 0;
  double total_bytes = 0.0;
  double overhead_bytes = 0.0;
  for (uint32_t p = 0; p < kLoops; ++p) {
    const StoreMemoryStats m = replay.store().partition(p).memory();
    keys += m.num_keys;
    total_bytes += static_cast<double>(m.total_bytes);
    overhead_bytes += static_cast<double>(m.total_bytes - m.payload_bytes -
                                          m.ladder_slack_bytes);
  }
  const double condense_children_ns = timed(n.empirical).self_ns +
                                      timed(n.construct).self_ns +
                                      timed(n.ladder_commit).self_ns;

  std::vector<Metric>& m = result.metrics;
  m.push_back({"net.client_encode_ns_per_sample",
               Ratio(timed(n.client_encode).self_ns, samples), "ns"});
  m.push_back({"net.frame_decode_ns_per_sample",
               Ratio(timed(n.frame_decode).self_ns, samples), "ns"});
  m.push_back({"net.partition_ns_per_sample",
               Ratio(timed(n.partition).self_ns, samples), "ns"});
  m.push_back({"net.ring_ns_per_slice",
               Ratio(timed(n.ring).self_ns, static_cast<double>(k.slices)),
               "ns"});
  m.push_back({"net.ack_ns_per_batch",
               Ratio(timed(n.ack_encode).self_ns + timed(n.ack_decode).self_ns,
                     static_cast<double>(k.batches)),
               "ns"});
  m.push_back({"net.latency_record_ns",
               Ratio(both(n.latency_record).self_ns,
                     static_cast<double>(k.records)),
               "ns"});
  // kStats and client medians, each averaged over the timed phases (the
  // server's recorder quantizes its quantiles to summary pieces).
  double server_ingest = 0.0;
  double server_query = 0.0;
  double client_ingest = 0.0;
  double client_read = 0.0;
  for (const TimedRun& run : live_result.runs) {
    server_ingest += run.stats_after.ingest_p50_us;
    server_query += run.stats_after.query_p50_us;
    client_ingest += run.ingest.p50;
    client_read += run.timed_read.p50;
  }
  const double phases = static_cast<double>(live_result.runs.size());
  m.push_back({"net.server_ingest_p50_us", server_ingest / phases, "us"});
  m.push_back({"net.server_query_p50_us", server_query / phases, "us"});
  m.push_back({"net.ingest_wait_us", (client_ingest - server_ingest) / phases,
               "us"});
  m.push_back({"net.query_wait_us", (client_read - server_query) / phases,
               "us"});
  m.push_back({"net.flushes_size",
               static_cast<double>(after.flushes_size - before.flushes_size),
               "count"});
  m.push_back({"net.flushes_deadline",
               static_cast<double>(after.flushes_deadline -
                                   before.flushes_deadline),
               "count"});
  m.push_back({"net.max_partition_depth",
               static_cast<double>(after.max_queue_depth), "samples"});
  m.push_back({"net.samples_shed",
               static_cast<double>(after.samples_shed - before.samples_shed),
               "samples"});
  m.push_back({"net.samples_rejected",
               static_cast<double>(rejected_after - rejected_before),
               "samples"});
  m.push_back({"net.unattributed_ns_per_sample",
               WindowMedian(live_result, kCpuNsPerSample) -
                   Ratio(server_traced_ns, samples), "ns"});
  m.push_back({"store.add_batch_ns_per_sample",
               Ratio(timed(n.add_batch).self_ns, flushed), "ns"});
  m.push_back({"store.add_batch_allocs_per_call",
               allocs_per_call(timed(n.add_batch)), "count"});
  m.push_back({"store.self_ns_per_sample",
               Ratio(timed(n.add_batch).self_ns - condense_children_ns,
                     flushed),
               "ns"});
  m.push_back({"store.query_ns", per_call(both(n.store_query)), "ns"});
  m.push_back({"store.export_snapshot_ns", per_call(both(n.export_snapshot)),
               "ns"});
  m.push_back({"store.overhead_bytes_per_key",
               Ratio(overhead_bytes, static_cast<double>(keys)), "B"});
  m.push_back({"store.total_mb", total_bytes / (1024.0 * 1024.0), "MB"});
  m.push_back({"dist.empirical_ns_per_window", per_call(timed(n.empirical)),
               "ns"});
  m.push_back({"dist.empirical_allocs_per_window",
               allocs_per_call(timed(n.empirical)), "count"});
  m.push_back({"core.construct_ns_per_window", per_call(timed(n.construct)),
               "ns"});
  m.push_back({"core.construct_allocs_per_window",
               allocs_per_call(timed(n.construct)), "count"});
  m.push_back({"core.ladder_commit_ns_per_window",
               per_call(timed(n.ladder_commit)), "ns"});
  m.push_back({"core.ladder_commit_allocs_per_window",
               allocs_per_call(timed(n.ladder_commit)), "count"});
  m.push_back({"core.windows_condensed",
               static_cast<double>(timed(n.empirical).count), "count"});
  m.push_back({"core.fold_ns", per_call(both(n.fold)), "ns"});
  m.push_back({"service.aggregator_create_ns",
               per_call(both(n.aggregator_create)), "ns"});
  m.push_back({"service.quantile_ns", per_call(both(n.quantile)), "ns"});
  m.push_back({"service.snapshot_encode_ns",
               per_call(both(n.snapshot_encode)), "ns"});
  m.push_back({"service.snapshot_decode_ns",
               per_call(both(n.snapshot_decode)), "ns"});
  m.push_back({"service.snapshot_bytes",
               Ratio(static_cast<double>(k.snapshot_bytes),
                     static_cast<double>(k.pulls)),
               "B"});

  result.empty_span_ns = tracer.empty_span_ns();
  result.spans_written = tracer.raw_spans();
  result.spans_dropped = tracer.dropped_spans();
  if (!spans_path.empty()) {
    if (Status s = tracer.WriteSpans(spans_path); !s.ok()) return s;
  }
  return result;
}

}  // namespace perfbench
}  // namespace fasthist
