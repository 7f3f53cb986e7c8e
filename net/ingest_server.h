#ifndef FASTHIST_NET_INGEST_SERVER_H_
#define FASTHIST_NET_INGEST_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "net/frame.h"
#include "store/archetype_pool.h"

namespace fasthist {

// The server-wide knobs of ShardedIngestServer (net/sharded_ingest_server.h),
// which holds them as ShardedIngestServerOptions::base.  The flush triggers
// and the watermarks act per partition: each worker loop judges only the
// samples its own partition has accepted but not yet flushed.
struct IngestServerOptions {
  // Loopback by default: the bench and tests drive the server over
  // 127.0.0.1, and a histogram service has no business on 0.0.0.0 unless
  // deliberately deployed there.
  std::string bind_address = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; the server's port() reports it

  // The shape of every key's summary: each partition's store is created
  // with it, so Create refuses a config (merging knobs included) the store
  // would refuse, before any sample is accepted.
  ArchetypeConfig archetype;
  // Identity stamped on snapshots this server exports.
  uint64_t shard_id = 0;

  // Batch flush triggers, per partition: the samples a partition has
  // drained from its hand-off rings are flushed to SummaryStore::AddBatch
  // when they number >= flush_batch (size trigger) or when the oldest of
  // them turns flush_deadline_us old (deadline trigger), whichever fires
  // first.
  size_t flush_batch = 4096;
  uint64_t flush_deadline_us = 2000;

  // Two-tier overload policy, per partition, in accepted-but-unflushed
  // samples (the partition's depth):
  //   depth <= soft_watermark          accept the batch's slice whole
  //   soft < depth < hard_watermark    keep every 2^s-th sample (s = 1..4)
  //   depth >= hard_watermark          reject the slice
  // A rejected slice is reported in the kIngestAck (its partition entry's
  // `rejected`); no server replies kRejected.  The hard watermark bounds
  // memory: a partition never holds more than hard_watermark plus one
  // slice per producer loop, no matter how fast clients push.
  size_t soft_watermark = 16384;
  size_t hard_watermark = 65536;

  // Frame payload cap (bounds per-connection decode buffering) and the
  // accept limit.
  uint64_t max_frame_payload = kDefaultMaxFramePayload;
  int max_connections = 256;

  // Write-side bound, the mirror of the ingest watermarks: a peer that
  // sends requests but never reads replies (a kSnapshotPull request is 24
  // bytes; its reply can be a ~1 MB envelope) would otherwise grow the
  // connection's reply buffer without limit.  Once the unwritten backlog
  // exceeds this many bytes the connection is dropped (its accepted
  // samples still flush — they were ACKed).  Must fit at least one
  // max-size frame, or every oversized reply would tear its connection
  // down.
  size_t max_reply_backlog = size_t{4} << 20;
};

}  // namespace fasthist

#endif  // FASTHIST_NET_INGEST_SERVER_H_
