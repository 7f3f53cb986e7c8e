#ifndef FASTHIST_NET_SHARDED_INGEST_SERVER_H_
#define FASTHIST_NET_SHARDED_INGEST_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/latency_recorder.h"
#include "net/spsc_ring.h"
#include "store/partitioned_store.h"
#include "util/status.h"

// IngestServerOptions: the server-wide knobs, held below as `base`.
#include "net/ingest_server.h"

namespace fasthist {

struct ShardedIngestServerOptions {
  // Address, archetype, flush triggers, watermarks, caps.  The flush
  // triggers and the watermarks act per partition (net/ingest_server.h).
  IngestServerOptions base;

  // Worker event loops = key-hash partitions.  Must be a power of two
  // (PartitionOfKey masks, it does not divide).  1 runs the acceptor and
  // the one partition on a single loop through the same code path; the
  // loops axis of the bench compares against it.
  int num_loops = 4;

  // Capacity (batches, power of two) of each (owner, producer) hand-off
  // ring.  A full ring rejects the batch's slice for that partition — the
  // same bounded-memory role the hard watermark plays, one level earlier.
  size_t ring_capacity = 64;

  // Readiness backend for every worker loop (kDefault = epoll on Linux).
  EventLoopBackend backend = EventLoopBackend::kDefault;
};

// The multi-core socket front-end: one acceptor distributing connections
// round-robin across N worker event loops, each worker owning the key-hash
// partition `PartitionOfKey(key, N) == worker index` of a
// PartitionedSummaryStore.  Every key lives in one partition, so a per-key
// read is served by its owner alone and correctness never asks for a
// cross-thread lock — and indeed the request path has none.  Summaries
// built apart meet only through mergeability: the kStats latency recorders
// fold through ReduceSummaries, and a client folds pulled keyed snapshots
// with ReduceSnapshots.
//
//   clients ──> acceptor (loop 0) ──round-robin──> worker loops 0..N-1
//                 each loop:  parse ─ decode ─ stable-partition by key
//                       │ slice for own partition and for others
//                       ▼
//              SPSC ring[owner][producer]  (bounded, lock-free)
//                       ▼
//              owner loop drains rings ─ size/deadline flush ─ partition
//              store (single writer)  ──(queries, pulls)──> reply on the
//                                                            conn's loop
//
// Ingest: the receiving loop decodes a batch, stable-partitions it by
// PartitionOfKey, and applies the two-tier shed policy *per partition*
// against that partition's accepted-but-unflushed depth: at or past the
// hard watermark (or with the hand-off ring full) the slice is rejected
// outright; between the watermarks it is thinned by keeping every
// (1 << s)-th sample, with s escalating from 1 to 4 as the depth climbs
// (deterministic systematic thinning keeps the sample distribution, so
// quantiles stay unbiased); below the soft watermark it is kept whole.
// Kept slices are pushed into the owner's ring *before* the ACK is sent,
// so by the time a client sees its ACK the samples are visible to any
// later drain — the freshness contract queries rely on.  The ACK carries
// one PartitionDisposition per touched partition (a rejection included;
// there is no kRejected reply), which makes the bit-identical-replay
// contract checkable: a client replays each partition's stride over its
// subsequence (ReconstructAccepted) and must land on exactly the server's
// state.
//
// Hand-off is one bounded SPSC ring per (owner, producer) pair — single
// producer (the receiving loop), single consumer (the owner loop), so the
// ring needs no locks, and a lost-wakeup-free arming bit (drain_armed)
// means at most one drain task is in flight per owner regardless of how
// many producers push.
//
// Queries and snapshot pulls route to the key's owner loop (drain rings,
// flush pending, serve from the single-writer partition store), and the
// reply hops back to the connection's own loop to be written.  While such a
// request is in flight, the connection's later requests wait unread, so a
// pipelining client gets its replies in request order.  kStats
// scatter-gathers every loop's counters and latency-recorder state, folds
// the recorders through ReduceSummaries (the service measuring itself with
// its own mergeability), and reports per-partition depths and shed
// counters so operators can see which partition is hot.
class ShardedIngestServer {
 public:
  static StatusOr<std::unique_ptr<ShardedIngestServer>> Create(
      const ShardedIngestServerOptions& options);

  ~ShardedIngestServer();

  ShardedIngestServer(const ShardedIngestServer&) = delete;
  ShardedIngestServer& operator=(const ShardedIngestServer&) = delete;

  uint16_t port() const { return port_; }
  uint32_t num_loops() const { return static_cast<uint32_t>(workers_.size()); }

  // Spawns the worker threads and begins accepting.
  Status Start();

  // Graceful shutdown in three barriers: (1) stop accepting and close every
  // connection on every loop; (2) drain every hand-off ring and flush every
  // partition's pending batch into its store — safe now because stage 1
  // guaranteed no producer can push again; (3) quit and join the loops.
  // After Shutdown the store holds exactly the accepted samples — the
  // anchor of the replay bit-identity tests.  Idempotent.
  Status Shutdown();

  // Post-shutdown inspection (while serving, the loops own all of this and
  // a live server answers through frames instead).
  const PartitionedSummaryStore& store() const { return *store_; }
  const SummaryStore& partition_store(uint32_t p) const {
    return store_->partition(p);
  }
  StatusOr<ShardSnapshot> ExportKeyedSnapshot(uint64_t key) const {
    return store_->ExportKeyedSnapshot(key, options_.base.shard_id);
  }
  ServerStats stats() const;

 private:
  struct Connection;
  struct Worker;
  struct StatsGather;

  explicit ShardedIngestServer(ShardedIngestServerOptions options);

  Status Bind();
  // Posts `fn` to every worker loop and blocks until all have run it — the
  // shutdown barrier primitive.
  void RunOnAllLoopsAndWait(const std::function<void(Worker&)>& fn);

  // --- Acceptor (worker 0's loop) ---
  void OnListenerReadable();
  void PauseAccepting();
  void AdoptConnection(Worker& w, int fd);

  // --- Per-connection io (the owning worker's loop) ---
  void OnConnectionIo(Worker& w, int fd, EventLoop::IoEvent event);
  void OnConnectionReadable(Worker& w, Connection& conn);
  // Serves the frames the connection's parser holds, in order, until it
  // needs more bytes (returns true) or the connection is gone, dropping, or
  // awaiting an off-loop reply (returns false).
  bool HandleBufferedFrames(Worker& w, Connection& conn);
  // After an off-loop reply is written: serve what was pipelined behind
  // it, then watch the socket for input again.
  void ResumeAfterReply(Worker& w, Connection& conn);
  void HandleFrame(Worker& w, Connection& conn, const Frame& frame);
  void HandleIngest(Worker& w, Connection& conn, const Frame& frame,
                    uint64_t start_ns);
  void HandleSnapshotPull(Worker& w, Connection& conn, const Frame& frame,
                          uint64_t start_ns);
  void HandleQuantileQuery(Worker& w, Connection& conn, const Frame& frame,
                           uint64_t start_ns);
  void HandleStats(Worker& w, Connection& conn);
  // The read path's owner-loop hop, shared by queries and snapshot pulls.
  // Marks `conn` as awaiting a reply and posts to `key`'s owner loop, which
  // drains its rings and flushes its pending samples (the freshness rule:
  // by the push-before-ACK order, everything ACKed before the request is in
  // the rings), answers kUnknownKey for an absent key, else lets
  // `reply(part, &payload)` fill the payload and return its frame type, and
  // posts the reply back to the connection's loop (DeliverReply).
  template <typename Reply>
  void ServeFromOwner(Worker& w, Connection& conn, uint64_t key,
                      uint64_t start_ns, Reply reply);
  // Runs on the connection's loop: deliver a reply built elsewhere, if the
  // connection is still the same one (fd reuse is id-checked), then resume
  // the connection's input.  Query and pull round trips (`is_query`) are
  // recorded in the query latency recorder; stats replies are not.
  void DeliverReply(Worker& w, int fd, uint64_t conn_id, FrameType type,
                    std::vector<uint8_t> payload, uint64_t start_ns,
                    bool is_query);

  // --- Owner-side partition work (partition p == worker p's loop) ---
  void ArmDrain(Worker& owner);
  void DrainRings(Worker& owner);
  void FlushPending(Worker& owner);
  void ScheduleDeadlineFlush(Worker& owner);

  // --- Stats ---
  void CollectLocalStats(Worker& w, StatsGather& gather);
  void FinalizeStats(Worker& requester,
                     const std::shared_ptr<StatsGather>& gather);
  ServerStats AggregateStats(const StatsGather& gather) const;

  // --- Write path (the owning worker's loop).  These return whether the
  // connection is still alive: a write error (peer reset) or a reply
  // backlog past max_reply_backlog closes it, and on false the reference
  // is dangling and the caller must not touch it again. ---
  bool SendFrame(Worker& w, Connection& conn, FrameType type,
                 Span<const uint8_t> payload);
  bool SendError(Worker& w, Connection& conn, ErrorCode code,
                 const std::string& message);
  bool PumpWrites(Worker& w, Connection& conn);
  // Read interest unless dropping or awaiting a reply; write interest
  // while reply bytes are unwritten.
  void UpdateInterest(Worker& w, const Connection& conn);
  void DropConnection(Worker& w, Connection& conn, ErrorCode code,
                      const std::string& message);
  void CloseConnection(Worker& w, int fd);

  ShardedIngestServerOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  uint64_t accept_rearm_timer_id_ = 0;  // worker 0's loop only
  uint32_t next_accept_worker_ = 0;     // worker 0's loop only
  std::atomic<int> num_connections_{0};
  // Set by Shutdown before the close barrier: an adoption task that lands
  // after its worker already closed everything must not resurrect a
  // connection the barriers will never see again.
  std::atomic<bool> draining_{false};

  std::unique_ptr<PartitionedSummaryStore> store_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace fasthist

#endif  // FASTHIST_NET_SHARDED_INGEST_SERVER_H_
