#include "net/sharded_ingest_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <future>
#include <utility>

#include "util/clock.h"

namespace fasthist {
namespace {

Status SetNonBlockingFd(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Invalid("net: cannot set O_NONBLOCK");
  }
  return Status::Ok();
}

// How long accepting pauses after a persistent accept() failure (fd
// exhaustion), so the level-triggered listener cannot hot-spin.
constexpr uint64_t kAcceptRearmDelayNanos = 100ull * 1000 * 1000;

// The soft tier's stride shift for a partition at `depth`: a slice keeps
// only indices i with i % (1 << s) == 0, where
//
//   s = 1 + floor(3 * (depth - soft) / (hard - soft)),  clamped to [1, 4]
//
// so thinning escalates from keep 1/2 to keep 1/16 as the depth climbs
// toward the hard watermark (0 = keep all, at or below soft).
uint32_t KeepShiftForDepth(uint64_t depth, size_t soft, size_t hard) {
  if (depth <= soft) return 0;
  const uint64_t span = hard - soft;
  const uint64_t excess = depth - soft;
  uint32_t shift = 1 + static_cast<uint32_t>((3 * excess) / span);
  return shift > 4 ? 4 : shift;
}

}  // namespace

// Per-connection state, owned by exactly one worker loop.  There is no
// sample queue here: accepted slices go straight into the owner
// partitions' hand-off rings at ingest time, so a connection's teardown
// never has samples to rescue.  `id` disambiguates fd reuse: replies built
// on another loop come back as (fd, id) and are dropped if either no
// longer matches.
//
// Replies leave in request order (frames carry no request id, so a
// pipelining client pairs them by position).  Ingest and error replies are
// written inline, but queries, pulls and stats are served off the
// connection's loop; while one is (`awaiting_reply`), the loop extracts no
// further frame from the parser and reads nothing from the socket — its
// first readable event switches read interest off, while error and hang-up
// events still close it.  The reply's delivery writes it, serves the frames
// already buffered, in order, and turns read interest back on.
struct ShardedIngestServer::Connection {
  Connection(int fd_in, uint64_t id_in, uint64_t max_payload)
      : fd(fd_in), id(id_in), parser(max_payload) {}

  int fd;
  uint64_t id;
  FrameParser parser;
  std::vector<uint8_t> out;  // unwritten reply bytes
  size_t out_pos = 0;
  bool dropping = false;  // error replied; close once `out` drains
  bool awaiting_reply = false;  // a request is being served off this loop
};

// One worker = one event loop = one key-hash partition.  Everything above
// the "cross-thread surfaces" line is touched only from this worker's loop
// thread; the surfaces below are the exact places other loops reach in —
// the SPSC rings (one per producer loop), the drain-arming bit, and the
// relaxed counter atomics the shed policy and stats read.
struct ShardedIngestServer::Worker {
  uint32_t index = 0;
  std::unique_ptr<EventLoop> loop;
  std::thread thread;

  // Loop-local: connections this worker serves.
  std::map<int, std::unique_ptr<Connection>> connections;
  uint64_t next_conn_id = 1;
  std::vector<std::vector<KeyedSample>> scratch;  // batch partition buckets

  // Loop-local: this worker's partition of the store.
  std::vector<KeyedSample> pending;  // drained from rings, not yet flushed
  uint64_t first_enqueue_ns = 0;
  uint64_t flush_timer_id = 0;  // 0 = no deadline timer pending
  uint64_t flushes_size = 0;
  uint64_t flushes_deadline = 0;

  ServerStats counters;  // frames/batches/connections seen by this loop
  std::unique_ptr<LatencyRecorder> ingest_latency;
  std::unique_ptr<LatencyRecorder> query_latency;

  // Cross-thread surfaces.
  std::vector<std::unique_ptr<SpscRing<std::vector<KeyedSample>>>> rings;
  std::atomic<bool> drain_armed{false};
  // Samples accepted into rings/pending but not yet flushed to the store —
  // the depth the per-partition watermarks judge.
  std::atomic<uint64_t> depth{0};
  std::atomic<uint64_t> max_depth{0};
  std::atomic<uint64_t> acc_accepted{0};
  std::atomic<uint64_t> acc_shed{0};
  std::atomic<uint64_t> acc_rejected{0};
};

// Scatter-gather state for one kStats request: every loop fills its own
// slot (no two writers share one), the last decrement posts the finalize
// back to the requesting connection's loop.
struct ShardedIngestServer::StatsGather {
  explicit StatsGather(size_t n)
      : remaining(static_cast<uint32_t>(n)), parts(n) {}

  struct Part {
    ServerStats counters;      // the loop's local counters
    PartitionStats partition;  // its partition's depth/shed accounting
    ShardSummary ingest;       // recorder exports; weight 0 when idle
    ShardSummary query;
  };

  std::atomic<uint32_t> remaining;
  std::vector<Part> parts;
  Worker* requester = nullptr;
  int fd = -1;
  uint64_t conn_id = 0;
};

ShardedIngestServer::ShardedIngestServer(ShardedIngestServerOptions options)
    : options_(std::move(options)) {}

ShardedIngestServer::~ShardedIngestServer() {
  (void)Shutdown();
  if (listen_fd_ >= 0) close(listen_fd_);
}

StatusOr<std::unique_ptr<ShardedIngestServer>> ShardedIngestServer::Create(
    const ShardedIngestServerOptions& options) {
  const IngestServerOptions& base = options.base;
  if (base.soft_watermark == 0 ||
      base.soft_watermark >= base.hard_watermark) {
    return Status::Invalid(
        "ShardedIngestServer: watermarks must satisfy 0 < soft < hard");
  }
  if (base.flush_batch == 0) {
    return Status::Invalid("ShardedIngestServer: flush_batch must be positive");
  }
  if (base.max_frame_payload < 24) {
    return Status::Invalid("ShardedIngestServer: max_frame_payload too small");
  }
  if (base.max_connections < 1) {
    return Status::Invalid(
        "ShardedIngestServer: max_connections must be positive");
  }
  // Written without the sum max_frame_payload + kFrameHeaderBytes, which
  // wraps for a frame cap within 16 of UINT64_MAX.
  if (base.max_reply_backlog < kFrameHeaderBytes ||
      base.max_reply_backlog - kFrameHeaderBytes < base.max_frame_payload) {
    return Status::Invalid(
        "ShardedIngestServer: max_reply_backlog must fit one max-size frame");
  }
  if (options.num_loops < 1 || options.num_loops > 256 ||
      (options.num_loops & (options.num_loops - 1)) != 0) {
    return Status::Invalid(
        "ShardedIngestServer: num_loops must be a power of two in [1, 256]");
  }
  if (options.ring_capacity == 0 ||
      (options.ring_capacity & (options.ring_capacity - 1)) != 0) {
    return Status::Invalid(
        "ShardedIngestServer: ring_capacity must be a power of two");
  }

  std::unique_ptr<ShardedIngestServer> server(
      new ShardedIngestServer(options));
  const uint32_t n = static_cast<uint32_t>(options.num_loops);

  auto store = PartitionedSummaryStore::Create(base.archetype, n);
  if (!store.ok()) return store.status();
  server->store_ =
      std::make_unique<PartitionedSummaryStore>(std::move(store).value());

  server->workers_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    auto loop = EventLoop::Create(options.backend);
    if (!loop.ok()) return loop.status();
    worker->loop = std::move(loop).value();
    auto ingest_latency = LatencyRecorder::Create();
    if (!ingest_latency.ok()) return ingest_latency.status();
    worker->ingest_latency = std::make_unique<LatencyRecorder>(
        std::move(ingest_latency).value());
    auto query_latency = LatencyRecorder::Create();
    if (!query_latency.ok()) return query_latency.status();
    worker->query_latency =
        std::make_unique<LatencyRecorder>(std::move(query_latency).value());
    worker->rings.reserve(n);
    for (uint32_t producer = 0; producer < n; ++producer) {
      worker->rings.push_back(
          std::make_unique<SpscRing<std::vector<KeyedSample>>>(
              options.ring_capacity));
    }
    worker->scratch.resize(n);
    server->workers_.push_back(std::move(worker));
  }

  if (Status s = server->Bind(); !s.ok()) return s;
  return server;
}

Status ShardedIngestServer::Bind() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Invalid("ShardedIngestServer: socket() failed");
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.base.port);
  if (inet_pton(AF_INET, options_.base.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::Invalid("ShardedIngestServer: bad bind address " +
                           options_.base.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Status::Invalid("ShardedIngestServer: bind() failed: " +
                           std::string(strerror(errno)));
  }
  if (listen(listen_fd_, 128) != 0) {
    return Status::Invalid("ShardedIngestServer: listen() failed");
  }
  if (Status s = SetNonBlockingFd(listen_fd_); !s.ok()) return s;

  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                  &bound_len) != 0) {
    return Status::Invalid("ShardedIngestServer: getsockname() failed");
  }
  port_ = ntohs(bound.sin_port);
  return Status::Ok();
}

Status ShardedIngestServer::Start() {
  if (started_) return Status::Invalid("ShardedIngestServer: already started");
  // Registered before any thread exists, so no cross-thread Watch.
  if (Status s = workers_[0]->loop->Watch(
          listen_fd_, /*want_read=*/true, /*want_write=*/false,
          [this](EventLoop::IoEvent) { OnListenerReadable(); });
      !s.ok()) {
    return s;
  }
  started_ = true;
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([w] { w->loop->Run(); });
  }
  return Status::Ok();
}

void ShardedIngestServer::RunOnAllLoopsAndWait(
    const std::function<void(Worker&)>& fn) {
  auto remaining =
      std::make_shared<std::atomic<int>>(static_cast<int>(workers_.size()));
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> all_done = done->get_future();
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->loop->Post([fn, w, remaining, done] {
      fn(*w);
      if (remaining->fetch_sub(1, std::memory_order_acq_rel) == 1) {
        done->set_value();
      }
    });
  }
  all_done.wait();
}

Status ShardedIngestServer::Shutdown() {
  if (!started_ || stopped_) return Status::Ok();
  stopped_ = true;
  draining_.store(true, std::memory_order_release);

  // Barrier 1: stop the world's inputs.  After this returns, every
  // connection on every loop is closed and the listener is gone, so no
  // producer can push into any ring again.
  RunOnAllLoopsAndWait([this](Worker& w) {
    if (w.index == 0) {
      if (accept_rearm_timer_id_ != 0) {
        w.loop->Cancel(accept_rearm_timer_id_);
        accept_rearm_timer_id_ = 0;
      }
      if (listen_fd_ >= 0) {
        w.loop->Unwatch(listen_fd_);
        close(listen_fd_);
        listen_fd_ = -1;
      }
    }
    std::vector<int> fds;
    fds.reserve(w.connections.size());
    for (const auto& [fd, conn] : w.connections) fds.push_back(fd);
    for (const int fd : fds) CloseConnection(w, fd);
  });

  // Barrier 2: with producers quiesced, every ring drains completely and
  // every partition's pending batch lands in its store.  This is where
  // "the store holds exactly the accepted samples" becomes true.
  RunOnAllLoopsAndWait([this](Worker& w) {
    DrainRings(w);
    FlushPending(w);
  });

  // Stage 3: nothing left to do on the loops.
  for (auto& worker : workers_) worker->loop->Quit();
  for (auto& worker : workers_) worker->thread.join();
  return Status::Ok();
}

// --- Acceptor --------------------------------------------------------------

void ShardedIngestServer::OnListenerReadable() {
  Worker& acceptor = *workers_[0];
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      PauseAccepting();  // EMFILE and kin: back off, don't spin
      return;
    }
    if (num_connections_.load(std::memory_order_relaxed) >=
        options_.base.max_connections) {
      close(fd);
      ++acceptor.counters.connections_dropped;
      continue;
    }
    if (!SetNonBlockingFd(fd).ok()) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    num_connections_.fetch_add(1, std::memory_order_relaxed);
    ++acceptor.counters.connections_accepted;
    // Round-robin distribution; the target loop adopts (creates + watches)
    // the connection so all of its io stays on one thread.
    const uint32_t target =
        next_accept_worker_++ % static_cast<uint32_t>(workers_.size());
    Worker* w = workers_[target].get();
    if (target == 0) {
      AdoptConnection(*w, fd);
    } else {
      w->loop->Post([this, w, fd] { AdoptConnection(*w, fd); });
    }
  }
}

void ShardedIngestServer::PauseAccepting() {
  if (accept_rearm_timer_id_ != 0) return;
  Worker& acceptor = *workers_[0];
  acceptor.loop->Unwatch(listen_fd_);
  accept_rearm_timer_id_ = acceptor.loop->ScheduleAt(
      MonotonicNanos() + kAcceptRearmDelayNanos, [this] {
        accept_rearm_timer_id_ = 0;
        if (listen_fd_ < 0) return;  // shutdown closed the listener
        (void)workers_[0]->loop->Watch(
            listen_fd_, /*want_read=*/true, /*want_write=*/false,
            [this](EventLoop::IoEvent) { OnListenerReadable(); });
      });
}

void ShardedIngestServer::AdoptConnection(Worker& w, int fd) {
  if (draining_.load(std::memory_order_acquire)) {
    // Shutdown's close barrier already swept this loop; adopting now would
    // leak a connection no barrier will ever close.
    close(fd);
    num_connections_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const uint64_t id = w.next_conn_id++;
  w.connections.emplace(fd, std::make_unique<Connection>(
                                fd, id, options_.base.max_frame_payload));
  Worker* wp = &w;
  (void)w.loop->Watch(fd, /*want_read=*/true, /*want_write=*/false,
                      [this, wp, fd](EventLoop::IoEvent event) {
                        OnConnectionIo(*wp, fd, event);
                      });
}

// --- Connection io ---------------------------------------------------------

void ShardedIngestServer::OnConnectionIo(Worker& w, int fd,
                                         EventLoop::IoEvent event) {
  auto it = w.connections.find(fd);
  if (it == w.connections.end()) return;
  Connection& conn = *it->second;
  if (event.error) {
    CloseConnection(w, fd);
    return;
  }
  if (event.writable) {
    if (!PumpWrites(w, conn)) return;
  }
  if (!event.readable) return;
  if (conn.awaiting_reply) {
    // Pipelined input waits behind the reply in flight; stop watching for
    // it until ResumeAfterReply.
    UpdateInterest(w, conn);
    return;
  }
  OnConnectionReadable(w, conn);
}

void ShardedIngestServer::OnConnectionReadable(Worker& w, Connection& conn) {
  const int fd = conn.fd;
  uint8_t buffer[65536];
  for (;;) {
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConnection(w, fd);
      return;
    }
    if (n == 0) {
      // Orderly EOF.  Accepted slices are already in the rings, so nothing
      // is lost by tearing the socket down now.
      CloseConnection(w, fd);
      return;
    }
    conn.parser.Consume(Span<const uint8_t>(buffer, static_cast<size_t>(n)));
    if (!HandleBufferedFrames(w, conn)) return;
    if (static_cast<size_t>(n) < sizeof(buffer)) break;
  }
}

bool ShardedIngestServer::HandleBufferedFrames(Worker& w, Connection& conn) {
  const int fd = conn.fd;
  Frame frame;
  while (!conn.awaiting_reply) {
    const FrameParser::Result result = conn.parser.Next(&frame);
    if (result == FrameParser::Result::kNeedMore) return true;
    if (result == FrameParser::Result::kMalformed) {
      DropConnection(w, conn, ErrorCode::kMalformed, "malformed frame header");
      return false;
    }
    HandleFrame(w, conn, frame);
    auto it = w.connections.find(fd);
    if (it == w.connections.end() || it->second->dropping) return false;
  }
  return false;
}

void ShardedIngestServer::ResumeAfterReply(Worker& w, Connection& conn) {
  if (!HandleBufferedFrames(w, conn)) return;
  UpdateInterest(w, conn);
}

void ShardedIngestServer::HandleFrame(Worker& w, Connection& conn,
                                      const Frame& frame) {
  ++w.counters.frames_received;
  const uint64_t start_ns = MonotonicNanos();
  switch (frame.type) {
    case FrameType::kIngest:
      HandleIngest(w, conn, frame, start_ns);
      return;
    case FrameType::kSnapshotPull:
      HandleSnapshotPull(w, conn, frame, start_ns);
      return;
    case FrameType::kQuantileQuery:
      HandleQuantileQuery(w, conn, frame, start_ns);
      return;
    case FrameType::kStats:
      HandleStats(w, conn);
      return;
    default:
      DropConnection(w, conn, ErrorCode::kMalformed,
                     "unexpected frame type for a request");
      return;
  }
}

void ShardedIngestServer::HandleIngest(Worker& w, Connection& conn,
                                       const Frame& frame, uint64_t start_ns) {
  auto samples = DecodeIngestPayload(frame.payload);
  if (!samples.ok()) {
    DropConnection(w, conn, ErrorCode::kMalformed, samples.status().message());
    return;
  }
  const int64_t domain = options_.base.archetype.domain_size;
  for (const KeyedSample& sample : *samples) {
    if (sample.value < 0 || sample.value >= domain) {
      DropConnection(w, conn, ErrorCode::kMalformed,
                     "sample value outside the server's domain");
      return;
    }
  }
  const uint64_t offered = samples->size();
  w.counters.samples_offered += offered;

  // Stable partition: each bucket holds its partition's subsequence in
  // batch order — the order the replay reconstruction will rewalk.
  const uint32_t n = static_cast<uint32_t>(workers_.size());
  for (const KeyedSample& sample : *samples) {
    w.scratch[PartitionOfKey(sample.key, n)].push_back(sample);
  }

  IngestAck ack;
  bool any_rejected = false;
  for (uint32_t p = 0; p < n; ++p) {
    std::vector<KeyedSample>& bucket = w.scratch[p];
    if (bucket.empty()) continue;
    Worker& owner = *workers_[p];
    const uint64_t offered_p = bucket.size();
    PartitionDisposition d;
    d.partition = p;
    // The shed decision reads the owner's depth racily (it may be mid
    // flush) — that only skews *policy*, never accounting: whatever this
    // loop decides is exactly what the ACK records.
    const uint64_t depth = owner.depth.load(std::memory_order_relaxed);
    if (depth >= options_.base.hard_watermark) {
      d.rejected = offered_p;
    } else {
      const uint32_t keep_shift =
          KeepShiftForDepth(depth, options_.base.soft_watermark,
                            options_.base.hard_watermark);
      const uint64_t stride = uint64_t{1} << keep_shift;
      std::vector<KeyedSample> slice;
      slice.reserve(static_cast<size_t>((offered_p + stride - 1) / stride));
      for (uint64_t j = 0; j < offered_p; j += stride) {
        slice.push_back(bucket[static_cast<size_t>(j)]);
      }
      const uint64_t kept = slice.size();
      if (!owner.rings[w.index]->Push(std::move(slice))) {
        // Hand-off ring full: the owner is far behind this producer.  Same
        // contract as the hard watermark — refuse the whole slice, so the
        // ACK stays an exact description of server state.
        d.rejected = offered_p;
      } else {
        d.keep_shift = keep_shift;
        d.accepted = kept;
        d.shed = offered_p - kept;
        const uint64_t new_depth =
            owner.depth.fetch_add(kept, std::memory_order_relaxed) + kept;
        uint64_t seen = owner.max_depth.load(std::memory_order_relaxed);
        while (new_depth > seen &&
               !owner.max_depth.compare_exchange_weak(
                   seen, new_depth, std::memory_order_relaxed)) {
        }
        ArmDrain(owner);
      }
    }
    owner.acc_accepted.fetch_add(d.accepted, std::memory_order_relaxed);
    owner.acc_shed.fetch_add(d.shed, std::memory_order_relaxed);
    owner.acc_rejected.fetch_add(d.rejected, std::memory_order_relaxed);
    if (d.rejected != 0) any_rejected = true;
    ack.accepted += d.accepted;
    ack.shed += d.shed;
    ack.rejected += d.rejected;
    ack.keep_shift = std::max(ack.keep_shift, d.keep_shift);
    ack.partitions.push_back(d);
    bucket.clear();
  }
  if (any_rejected) {
    ++w.counters.batches_rejected;
  } else {
    ++w.counters.batches_ingested;
  }

  // Push-before-ACK: the slices are in the rings already, so a client that
  // sees this ACK and immediately queries finds its samples.
  const std::vector<uint8_t> payload = EncodeIngestAck(ack);
  (void)SendFrame(w, conn, FrameType::kIngestAck, payload);
  w.ingest_latency->Record(MonotonicNanos() - start_ns);
}

template <typename Reply>
void ShardedIngestServer::ServeFromOwner(Worker& w, Connection& conn,
                                         uint64_t key, uint64_t start_ns,
                                         Reply reply) {
  Worker* owner = workers_[store_->partition_of(key)].get();
  Worker* self = &w;
  const int fd = conn.fd;
  const uint64_t conn_id = conn.id;
  conn.awaiting_reply = true;
  owner->loop->Post([this, owner, self, fd, conn_id, key, start_ns, reply] {
    DrainRings(*owner);
    FlushPending(*owner);
    const SummaryStore& part = store_->partition(owner->index);
    FrameType type = FrameType::kError;
    std::vector<uint8_t> payload;
    if (!part.Contains(key)) {
      payload = EncodeErrorReply(ErrorReply{ErrorCode::kUnknownKey,
                                            "no such key"});
    } else {
      type = reply(part, &payload);
    }
    self->loop->Post([this, self, fd, conn_id, type,
                      payload = std::move(payload), start_ns]() mutable {
      DeliverReply(*self, fd, conn_id, type, std::move(payload), start_ns,
                   /*is_query=*/true);
    });
  });
}

void ShardedIngestServer::HandleSnapshotPull(Worker& w, Connection& conn,
                                             const Frame& frame,
                                             uint64_t start_ns) {
  auto key = DecodeKeyPayload(frame.payload);
  if (!key.ok()) {
    DropConnection(w, conn, ErrorCode::kMalformed, key.status().message());
    return;
  }
  const uint64_t shard_id = options_.base.shard_id;
  ServeFromOwner(
      w, conn, *key, start_ns,
      [key = *key, shard_id](const SummaryStore& part,
                             std::vector<uint8_t>* payload) {
        auto snapshot = part.ExportKeyedSnapshot(key, shard_id);
        if (!snapshot.ok()) {
          *payload = EncodeErrorReply(
              ErrorReply{ErrorCode::kInternal, snapshot.status().message()});
          return FrameType::kError;
        }
        *payload = EncodeShardSnapshot(*snapshot);
        return FrameType::kSnapshotPush;
      });
}

void ShardedIngestServer::HandleQuantileQuery(Worker& w, Connection& conn,
                                              const Frame& frame,
                                              uint64_t start_ns) {
  auto query = DecodeQuantileQuery(frame.payload);
  if (!query.ok()) {
    DropConnection(w, conn, ErrorCode::kMalformed, query.status().message());
    return;
  }
  ServeFromOwner(
      w, conn, query->key, start_ns,
      [q = *query](const SummaryStore& part, std::vector<uint8_t>* payload) {
        auto answer = part.Quantile(q.key, q.q);
        if (!answer.ok()) {
          // The key exists, so it either holds no samples or has a ladder
          // slot that is not a distribution.
          auto count = part.NumSamples(q.key);
          const ErrorCode code = count.ok() && *count == 0
                                     ? ErrorCode::kEmptyKey
                                     : ErrorCode::kInternal;
          *payload = EncodeErrorReply(
              ErrorReply{code, answer.status().message()});
          return FrameType::kError;
        }
        QuantileReply reply;
        reply.value = answer->value;
        reply.num_samples = answer->num_samples;
        // error_budget stays 0: the server reports no budget yet.
        *payload = EncodeQuantileReply(reply);
        return FrameType::kQuantileReply;
      });
}

void ShardedIngestServer::HandleStats(Worker& w, Connection& conn) {
  auto gather = std::make_shared<StatsGather>(workers_.size());
  gather->requester = &w;
  gather->fd = conn.fd;
  gather->conn_id = conn.id;
  conn.awaiting_reply = true;
  for (auto& worker : workers_) {
    Worker* ow = worker.get();
    ow->loop->Post([this, gather, ow] {
      CollectLocalStats(*ow, *gather);
      if (gather->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        gather->requester->loop->Post(
            [this, gather] { FinalizeStats(*gather->requester, gather); });
      }
    });
  }
}

void ShardedIngestServer::DeliverReply(Worker& w, int fd, uint64_t conn_id,
                                       FrameType type,
                                       std::vector<uint8_t> payload,
                                       uint64_t start_ns, bool is_query) {
  auto it = w.connections.find(fd);
  if (it == w.connections.end() || it->second->id != conn_id ||
      it->second->dropping) {
    return;  // the connection died (or the fd was reused) mid round-trip
  }
  Connection& conn = *it->second;
  conn.awaiting_reply = false;
  const bool alive = SendFrame(w, conn, type, payload);
  if (is_query) w.query_latency->Record(MonotonicNanos() - start_ns);
  if (alive) ResumeAfterReply(w, conn);
}

// --- Owner-side partition work ---------------------------------------------

void ShardedIngestServer::ArmDrain(Worker& owner) {
  // exchange (an RMW) on both ends: RMW release sequences make "the drain
  // that observed armed == true" a synchronization point, so a producer
  // whose exchange returns true knows a drain that has *not yet* passed its
  // disarm is coming — that drain's pops happen after the disarm, which
  // happens after this producer's push.  No lost wakeups, and at most one
  // drain task in flight per owner however many producers push.
  if (!owner.drain_armed.exchange(true, std::memory_order_acq_rel)) {
    Worker* o = &owner;
    owner.loop->Post([this, o] { DrainRings(*o); });
  }
}

void ShardedIngestServer::DrainRings(Worker& owner) {
  // Disarm FIRST: a producer pushing after this point either sees armed ==
  // false (and posts a fresh drain) or armed == true set by a later
  // producer (whose drain is still coming).  Either way its push is
  // covered.
  (void)owner.drain_armed.exchange(false, std::memory_order_acq_rel);
  const bool was_empty = owner.pending.empty();
  std::vector<KeyedSample> slice;
  for (auto& ring : owner.rings) {
    while (ring->Pop(&slice)) {
      owner.pending.insert(owner.pending.end(), slice.begin(), slice.end());
      slice.clear();
    }
  }
  if (owner.pending.empty()) return;
  if (was_empty) owner.first_enqueue_ns = MonotonicNanos();
  if (owner.pending.size() >= options_.base.flush_batch) {
    ++owner.flushes_size;
    FlushPending(owner);
  } else if (owner.flush_timer_id == 0) {
    ScheduleDeadlineFlush(owner);
  }
}

void ShardedIngestServer::FlushPending(Worker& owner) {
  if (owner.flush_timer_id != 0) {
    owner.loop->Cancel(owner.flush_timer_id);
    owner.flush_timer_id = 0;
  }
  if (owner.pending.empty()) return;
  // Single writer: only this loop ever touches partition `owner.index`.
  if (Status s = store_->partition(owner.index)
                     .AddBatch(Span<const KeyedSample>(owner.pending.data(),
                                                       owner.pending.size()));
      !s.ok()) {
    std::fprintf(stderr, "ShardedIngestServer: AddBatch failed: %s\n",
                 s.message().c_str());
  }
  owner.depth.fetch_sub(owner.pending.size(), std::memory_order_relaxed);
  owner.pending.clear();
  owner.first_enqueue_ns = 0;
}

void ShardedIngestServer::ScheduleDeadlineFlush(Worker& owner) {
  Worker* o = &owner;
  const uint64_t deadline =
      owner.first_enqueue_ns + options_.base.flush_deadline_us * 1000;
  owner.flush_timer_id = owner.loop->ScheduleAt(deadline, [this, o] {
    o->flush_timer_id = 0;
    if (!o->pending.empty()) {
      ++o->flushes_deadline;
      FlushPending(*o);
    }
  });
}

// --- Stats -----------------------------------------------------------------

void ShardedIngestServer::CollectLocalStats(Worker& w, StatsGather& gather) {
  StatsGather::Part& slot = gather.parts[w.index];
  slot.counters = w.counters;
  PartitionStats partition;
  partition.partition = w.index;
  partition.queue_depth = w.depth.load(std::memory_order_relaxed);
  partition.max_queue_depth = w.max_depth.load(std::memory_order_relaxed);
  partition.samples_accepted = w.acc_accepted.load(std::memory_order_relaxed);
  partition.samples_shed = w.acc_shed.load(std::memory_order_relaxed);
  partition.samples_rejected = w.acc_rejected.load(std::memory_order_relaxed);
  partition.flushes_size = w.flushes_size;
  partition.flushes_deadline = w.flushes_deadline;
  slot.partition = partition;
  if (w.ingest_latency->count() > 0) {
    if (auto s = w.ingest_latency->ExportSummary(); s.ok()) {
      slot.ingest = std::move(s).value();
    }
  }
  if (w.query_latency->count() > 0) {
    if (auto s = w.query_latency->ExportSummary(); s.ok()) {
      slot.query = std::move(s).value();
    }
  }
}

ServerStats ShardedIngestServer::AggregateStats(
    const StatsGather& gather) const {
  ServerStats stats;
  stats.num_loops = static_cast<uint32_t>(workers_.size());
  std::vector<ShardSummary> ingest_parts;
  std::vector<ShardSummary> query_parts;
  ingest_parts.reserve(gather.parts.size());
  query_parts.reserve(gather.parts.size());
  for (const StatsGather::Part& part : gather.parts) {
    const ServerStats& c = part.counters;
    stats.frames_received += c.frames_received;
    stats.connections_accepted += c.connections_accepted;
    stats.connections_dropped += c.connections_dropped;
    stats.batches_ingested += c.batches_ingested;
    stats.batches_rejected += c.batches_rejected;
    stats.samples_offered += c.samples_offered;
    const PartitionStats& p = part.partition;
    stats.samples_accepted += p.samples_accepted;
    stats.samples_shed += p.samples_shed;
    stats.flushes_size += p.flushes_size;
    stats.flushes_deadline += p.flushes_deadline;
    stats.max_queue_depth = std::max(stats.max_queue_depth, p.max_queue_depth);
    stats.partitions.push_back(p);
    ingest_parts.push_back(part.ingest);
    query_parts.push_back(part.query);
  }
  // Per-loop recorders fold into one fleet-wide distribution through the
  // deterministic merge tree — the mergeability the service sells, applied
  // to its own telemetry.
  if (auto merged = LatencyRecorder::MergedStats(std::move(ingest_parts));
      merged.ok()) {
    stats.ingest_p50_us = merged->p50_us;
    stats.ingest_p99_us = merged->p99_us;
    stats.ingest_p995_us = merged->p995_us;
    stats.ingest_count = merged->count;
  }
  if (auto merged = LatencyRecorder::MergedStats(std::move(query_parts));
      merged.ok()) {
    stats.query_p50_us = merged->p50_us;
    stats.query_p99_us = merged->p99_us;
    stats.query_p995_us = merged->p995_us;
    stats.query_count = merged->count;
  }
  return stats;
}

void ShardedIngestServer::FinalizeStats(
    Worker& requester, const std::shared_ptr<StatsGather>& gather) {
  DeliverReply(requester, gather->fd, gather->conn_id, FrameType::kStatsReply,
               EncodeServerStats(AggregateStats(*gather)), /*start_ns=*/0,
               /*is_query=*/false);
}

ServerStats ShardedIngestServer::stats() const {
  // Post-shutdown only: the loop threads own all of this while serving (a
  // live server answers through kStats frames instead).
  StatsGather gather(workers_.size());
  auto* self = const_cast<ShardedIngestServer*>(this);
  for (auto& worker : self->workers_) {
    self->CollectLocalStats(*worker, gather);
  }
  return AggregateStats(gather);
}

// --- Write path ------------------------------------------------------------

bool ShardedIngestServer::SendFrame(Worker& w, Connection& conn,
                                    FrameType type,
                                    Span<const uint8_t> payload) {
  const std::vector<uint8_t> frame = EncodeFrame(type, payload);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  const int fd = conn.fd;
  if (!PumpWrites(w, conn)) return false;
  if (conn.out.size() - conn.out_pos > options_.base.max_reply_backlog) {
    ++w.counters.connections_dropped;
    CloseConnection(w, fd);
    return false;
  }
  return true;
}

bool ShardedIngestServer::SendError(Worker& w, Connection& conn,
                                    ErrorCode code,
                                    const std::string& message) {
  ErrorReply error;
  error.code = code;
  error.message = message;
  const std::vector<uint8_t> payload = EncodeErrorReply(error);
  return SendFrame(w, conn, FrameType::kError, payload);
}

bool ShardedIngestServer::PumpWrites(Worker& w, Connection& conn) {
  const int fd = conn.fd;
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = send(fd, conn.out.data() + conn.out_pos,
                           conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateInterest(w, conn);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseConnection(w, fd);
    return false;
  }
  conn.out.clear();
  conn.out_pos = 0;
  if (conn.dropping) {
    CloseConnection(w, fd);
    return false;
  }
  UpdateInterest(w, conn);
  return true;
}

void ShardedIngestServer::UpdateInterest(Worker& w, const Connection& conn) {
  (void)w.loop->SetInterest(
      conn.fd, /*want_read=*/!conn.dropping && !conn.awaiting_reply,
      /*want_write=*/conn.out_pos < conn.out.size());
}

void ShardedIngestServer::DropConnection(Worker& w, Connection& conn,
                                         ErrorCode code,
                                         const std::string& message) {
  if (conn.dropping) return;
  ++w.counters.connections_dropped;
  conn.dropping = true;  // set first: PumpWrites closes once `out` drains
  (void)SendError(w, conn, code, message);
}

void ShardedIngestServer::CloseConnection(Worker& w, int fd) {
  auto it = w.connections.find(fd);
  if (it == w.connections.end()) return;
  w.loop->Unwatch(fd);
  close(fd);
  w.connections.erase(it);
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace fasthist
