#include "net/frame.h"

#include <cmath>

#include "store/partitioned_store.h"
#include "util/wire_bytes.h"

namespace fasthist {
namespace {

using wire::AppendDouble;
using wire::AppendI64;
using wire::AppendU32;
using wire::AppendU64;
using wire::WireReader;

// Caps on the variable-length tails of the extended ack/stats codecs: a
// hostile count field can cost at most this many fixed-size entries of
// buffering before the remaining-bytes check rejects it.
constexpr uint32_t kMaxPartitionEntries = 65536;

// "FHn1" as it appears on the wire (little-endian u32).
constexpr uint32_t kFrameMagic = 0x316e4846;

constexpr uint32_t kMinFrameType = static_cast<uint32_t>(FrameType::kIngest);
constexpr uint32_t kMaxFrameType = static_cast<uint32_t>(FrameType::kError);

// A kIngest sample on the wire: key (u64) then value (i64).
constexpr size_t kBytesPerSample = 16;

// The widest stride an ACK may record: ReconstructAccepted computes
// 1 << keep_shift in 64 bits, so a larger shift would be undefined.
constexpr uint32_t kMaxKeepShift = 63;

// Error messages ride in kError payloads verbatim; cap them so a hostile
// peer cannot make "decode the error" itself expensive.
constexpr size_t kMaxErrorMessageBytes = 4096;

Status TrailingBytes(const char* where) {
  return Status::Invalid(std::string(where) + ": trailing bytes");
}

Status Truncated(const char* where) {
  return Status::Invalid(std::string(where) + ": truncated payload");
}

Status KeepShiftOutOfRange() {
  return Status::Invalid("DecodeIngestAck: keep_shift above 63");
}

}  // namespace

std::vector<uint8_t> EncodeFrame(FrameType type, Span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendU32(&out, kFrameMagic);
  AppendU32(&out, static_cast<uint32_t>(type));
  AppendU64(&out, static_cast<uint64_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameParser::Consume(Span<const uint8_t> bytes) {
  if (poisoned_) return;  // the connection is dead; stop buffering
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameParser::Result FrameParser::Next(Frame* out) {
  if (poisoned_) return Result::kMalformed;
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Result::kNeedMore;
  const uint8_t* head = buffer_.data() + consumed_;

  const uint32_t magic = wire::LoadU32(head);
  const uint32_t type = wire::LoadU32(head + 4);
  const uint64_t payload_length = wire::LoadU64(head + 8);

  // Header validation happens before any payload is awaited, so a hostile
  // header poisons the stream immediately — the parser never waits for (or
  // buffers toward) a length it has already decided is bogus.
  if (magic != kFrameMagic || type < kMinFrameType || type > kMaxFrameType ||
      payload_length > max_payload_) {
    poisoned_ = true;
    return Result::kMalformed;
  }
  if (available - kFrameHeaderBytes < payload_length) return Result::kNeedMore;

  out->type = static_cast<FrameType>(type);
  out->payload.assign(head + kFrameHeaderBytes,
                      head + kFrameHeaderBytes + payload_length);
  consumed_ += kFrameHeaderBytes + static_cast<size_t>(payload_length);
  // Compact once the dead prefix dominates, so long-lived connections do
  // not accrete every frame they ever received.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return Result::kFrame;
}

// --- Typed payload codecs ---------------------------------------------------

// The one codec with thousands of fields per frame: the buffer is sized
// once and each sample is two word stores, key then value.
std::vector<uint8_t> EncodeIngestPayload(Span<const KeyedSample> samples) {
  std::vector<uint8_t> out(8 + kBytesPerSample * samples.size());
  uint8_t* cursor = out.data();
  wire::StoreU64(cursor, static_cast<uint64_t>(samples.size()));
  cursor += 8;
  for (const KeyedSample& sample : samples) {
    wire::StoreU64(cursor, sample.key);
    wire::StoreU64(cursor + 8, static_cast<uint64_t>(sample.value));
    cursor += kBytesPerSample;
  }
  return out;
}

StatusOr<std::vector<KeyedSample>> DecodeIngestPayload(
    Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  uint64_t count = 0;
  if (!reader.ReadU64(&count)) return Truncated("DecodeIngestPayload");
  // Overflow-safe sizing: check the count against the bytes actually
  // present before allocating anything from it, and only then multiply
  // (count * 16 wraps for a count above 2^60).  Together the two checks
  // prove the payload holds exactly `count` samples, so the loop below
  // loads them without a per-field check.
  if (count > reader.remaining() / kBytesPerSample) {
    return Status::Invalid("DecodeIngestPayload: sample count overruns frame");
  }
  if (reader.remaining() != static_cast<size_t>(count) * kBytesPerSample) {
    return TrailingBytes("DecodeIngestPayload");
  }
  std::vector<KeyedSample> samples(static_cast<size_t>(count));
  const uint8_t* cursor = reader.cursor();
  for (KeyedSample& sample : samples) {
    sample.key = wire::LoadU64(cursor);
    sample.value = static_cast<int64_t>(wire::LoadU64(cursor + 8));
    cursor += kBytesPerSample;
  }
  return samples;
}

std::vector<uint8_t> EncodeIngestAck(const IngestAck& ack) {
  std::vector<uint8_t> out;
  AppendU64(&out, ack.accepted);
  AppendU64(&out, ack.shed);
  AppendU32(&out, ack.keep_shift);
  AppendU64(&out, ack.rejected);
  AppendU32(&out, static_cast<uint32_t>(ack.partitions.size()));
  for (const PartitionDisposition& p : ack.partitions) {
    AppendU32(&out, p.partition);
    AppendU32(&out, p.keep_shift);
    AppendU64(&out, p.accepted);
    AppendU64(&out, p.shed);
    AppendU64(&out, p.rejected);
  }
  return out;
}

StatusOr<IngestAck> DecodeIngestAck(Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  IngestAck ack;
  if (!reader.ReadU64(&ack.accepted) || !reader.ReadU64(&ack.shed) ||
      !reader.ReadU32(&ack.keep_shift) || !reader.ReadU64(&ack.rejected)) {
    return Truncated("DecodeIngestAck");
  }
  if (ack.keep_shift > kMaxKeepShift) return KeepShiftOutOfRange();
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return Truncated("DecodeIngestAck");
  // Entries are 32 bytes each; bound the count against the bytes actually
  // present (and an absolute cap) before sizing anything from it.
  if (count > kMaxPartitionEntries || reader.remaining() / 32 < count) {
    return Status::Invalid("DecodeIngestAck: partition count overruns frame");
  }
  ack.partitions.resize(count);
  for (PartitionDisposition& p : ack.partitions) {
    if (!reader.ReadU32(&p.partition) || !reader.ReadU32(&p.keep_shift) ||
        !reader.ReadU64(&p.accepted) || !reader.ReadU64(&p.shed) ||
        !reader.ReadU64(&p.rejected)) {
      return Truncated("DecodeIngestAck");
    }
    if (p.keep_shift > kMaxKeepShift) return KeepShiftOutOfRange();
  }
  if (reader.remaining() != 0) return TrailingBytes("DecodeIngestAck");
  return ack;
}

std::vector<uint8_t> EncodeRejectedInfo(const RejectedInfo& info) {
  std::vector<uint8_t> out;
  AppendU64(&out, info.queue_depth);
  AppendU64(&out, info.hard_watermark);
  return out;
}

StatusOr<RejectedInfo> DecodeRejectedInfo(Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  RejectedInfo info;
  if (!reader.ReadU64(&info.queue_depth) ||
      !reader.ReadU64(&info.hard_watermark)) {
    return Truncated("DecodeRejectedInfo");
  }
  if (reader.remaining() != 0) return TrailingBytes("DecodeRejectedInfo");
  return info;
}

std::vector<uint8_t> EncodeKeyPayload(uint64_t key) {
  std::vector<uint8_t> out;
  AppendU64(&out, key);
  return out;
}

StatusOr<uint64_t> DecodeKeyPayload(Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  uint64_t key = 0;
  if (!reader.ReadU64(&key)) return Truncated("DecodeKeyPayload");
  if (reader.remaining() != 0) return TrailingBytes("DecodeKeyPayload");
  return key;
}

std::vector<uint8_t> EncodeQuantileQuery(const QuantileQuery& query) {
  std::vector<uint8_t> out;
  AppendU64(&out, query.key);
  AppendDouble(&out, query.q);
  return out;
}

StatusOr<QuantileQuery> DecodeQuantileQuery(Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  QuantileQuery query;
  if (!reader.ReadU64(&query.key) || !reader.ReadDouble(&query.q)) {
    return Truncated("DecodeQuantileQuery");
  }
  if (reader.remaining() != 0) return TrailingBytes("DecodeQuantileQuery");
  // Hostile bit patterns land here as NaN/Inf; the server clamps q to
  // [0, 1] anyway, but NaN would sail through a clamp, so the codec
  // boundary rejects non-finite ranks outright.
  if (!std::isfinite(query.q)) {
    return Status::Invalid("DecodeQuantileQuery: non-finite rank");
  }
  return query;
}

std::vector<uint8_t> EncodeQuantileReply(const QuantileReply& reply) {
  std::vector<uint8_t> out;
  AppendI64(&out, reply.value);
  AppendDouble(&out, reply.error_budget);
  AppendI64(&out, reply.num_samples);
  return out;
}

StatusOr<QuantileReply> DecodeQuantileReply(Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  QuantileReply reply;
  if (!reader.ReadI64(&reply.value) || !reader.ReadDouble(&reply.error_budget) ||
      !reader.ReadI64(&reply.num_samples)) {
    return Truncated("DecodeQuantileReply");
  }
  if (reader.remaining() != 0) return TrailingBytes("DecodeQuantileReply");
  return reply;
}

std::vector<uint8_t> EncodeServerStats(const ServerStats& stats) {
  std::vector<uint8_t> out;
  AppendU64(&out, stats.frames_received);
  AppendU64(&out, stats.connections_accepted);
  AppendU64(&out, stats.connections_dropped);
  AppendU64(&out, stats.batches_ingested);
  AppendU64(&out, stats.batches_rejected);
  AppendU64(&out, stats.samples_offered);
  AppendU64(&out, stats.samples_accepted);
  AppendU64(&out, stats.samples_shed);
  AppendU64(&out, stats.flushes_size);
  AppendU64(&out, stats.flushes_deadline);
  AppendU64(&out, stats.max_queue_depth);
  AppendDouble(&out, stats.ingest_p50_us);
  AppendDouble(&out, stats.ingest_p99_us);
  AppendDouble(&out, stats.ingest_p995_us);
  AppendI64(&out, stats.ingest_count);
  AppendDouble(&out, stats.query_p50_us);
  AppendDouble(&out, stats.query_p99_us);
  AppendDouble(&out, stats.query_p995_us);
  AppendI64(&out, stats.query_count);
  AppendU32(&out, stats.num_loops);
  AppendU32(&out, static_cast<uint32_t>(stats.partitions.size()));
  for (const PartitionStats& p : stats.partitions) {
    AppendU32(&out, p.partition);
    AppendU64(&out, p.queue_depth);
    AppendU64(&out, p.max_queue_depth);
    AppendU64(&out, p.samples_accepted);
    AppendU64(&out, p.samples_shed);
    AppendU64(&out, p.samples_rejected);
    AppendU64(&out, p.flushes_size);
    AppendU64(&out, p.flushes_deadline);
  }
  return out;
}

StatusOr<ServerStats> DecodeServerStats(Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  ServerStats stats;
  if (!reader.ReadU64(&stats.frames_received) ||
      !reader.ReadU64(&stats.connections_accepted) ||
      !reader.ReadU64(&stats.connections_dropped) ||
      !reader.ReadU64(&stats.batches_ingested) ||
      !reader.ReadU64(&stats.batches_rejected) ||
      !reader.ReadU64(&stats.samples_offered) ||
      !reader.ReadU64(&stats.samples_accepted) ||
      !reader.ReadU64(&stats.samples_shed) ||
      !reader.ReadU64(&stats.flushes_size) ||
      !reader.ReadU64(&stats.flushes_deadline) ||
      !reader.ReadU64(&stats.max_queue_depth) ||
      !reader.ReadDouble(&stats.ingest_p50_us) ||
      !reader.ReadDouble(&stats.ingest_p99_us) ||
      !reader.ReadDouble(&stats.ingest_p995_us) ||
      !reader.ReadI64(&stats.ingest_count) ||
      !reader.ReadDouble(&stats.query_p50_us) ||
      !reader.ReadDouble(&stats.query_p99_us) ||
      !reader.ReadDouble(&stats.query_p995_us) ||
      !reader.ReadI64(&stats.query_count) ||
      !reader.ReadU32(&stats.num_loops)) {
    return Truncated("DecodeServerStats");
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count)) return Truncated("DecodeServerStats");
  // Entries are 60 bytes each; count is bounded by the bytes present.
  if (count > kMaxPartitionEntries || reader.remaining() / 60 < count) {
    return Status::Invalid("DecodeServerStats: partition count overruns frame");
  }
  stats.partitions.resize(count);
  for (PartitionStats& p : stats.partitions) {
    if (!reader.ReadU32(&p.partition) || !reader.ReadU64(&p.queue_depth) ||
        !reader.ReadU64(&p.max_queue_depth) ||
        !reader.ReadU64(&p.samples_accepted) ||
        !reader.ReadU64(&p.samples_shed) ||
        !reader.ReadU64(&p.samples_rejected) ||
        !reader.ReadU64(&p.flushes_size) ||
        !reader.ReadU64(&p.flushes_deadline)) {
      return Truncated("DecodeServerStats");
    }
  }
  if (reader.remaining() != 0) return TrailingBytes("DecodeServerStats");
  return stats;
}

std::vector<uint8_t> EncodeErrorReply(const ErrorReply& error) {
  std::vector<uint8_t> out;
  AppendU32(&out, static_cast<uint32_t>(error.code));
  const size_t len = std::min(error.message.size(), kMaxErrorMessageBytes);
  AppendU64(&out, static_cast<uint64_t>(len));
  out.insert(out.end(), error.message.begin(),
             error.message.begin() + static_cast<ptrdiff_t>(len));
  return out;
}

StatusOr<ErrorReply> DecodeErrorReply(Span<const uint8_t> payload) {
  WireReader reader(payload.data(), payload.size());
  uint32_t code = 0;
  uint64_t length = 0;
  if (!reader.ReadU32(&code) || !reader.ReadU64(&length)) {
    return Truncated("DecodeErrorReply");
  }
  if (code < static_cast<uint32_t>(ErrorCode::kMalformed) ||
      code > static_cast<uint32_t>(ErrorCode::kShuttingDown)) {
    return Status::Invalid("DecodeErrorReply: unknown error code");
  }
  if (length > kMaxErrorMessageBytes || length != reader.remaining()) {
    return Status::Invalid("DecodeErrorReply: message length mismatch");
  }
  ErrorReply error;
  error.code = static_cast<ErrorCode>(code);
  error.message.assign(reinterpret_cast<const char*>(reader.cursor()),
                       static_cast<size_t>(length));
  return error;
}

std::vector<KeyedSample> ReconstructAccepted(Span<const KeyedSample> batch,
                                             const IngestAck& ack,
                                             uint32_t num_partitions) {
  std::vector<KeyedSample> kept;
  if (ack.partitions.empty()) {
    // Un-partitioned shape: one stride over the whole batch.  The server
    // sends it only for an empty batch.
    const uint64_t stride = uint64_t{1} << ack.keep_shift;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (i % stride == 0) kept.push_back(batch[i]);
    }
    return kept;
  }
  // Sharded shape: replay the server's own partition walk.  Each entry's
  // stride applies to that partition's subsequence index, which is exactly
  // the running count of earlier batch samples mapping to the partition.
  struct Disposition {
    bool present = false;
    bool rejected = false;
    uint64_t stride = 1;
  };
  std::vector<Disposition> by_partition(num_partitions);
  for (const PartitionDisposition& p : ack.partitions) {
    if (p.partition >= num_partitions) continue;  // hostile/buggy ack entry
    Disposition& d = by_partition[p.partition];
    d.present = true;
    d.rejected = p.rejected != 0;
    d.stride = uint64_t{1} << p.keep_shift;
  }
  std::vector<uint64_t> subindex(num_partitions, 0);
  for (const KeyedSample& sample : batch) {
    const uint32_t p = PartitionOfKey(sample.key, num_partitions);
    const uint64_t j = subindex[p]++;
    const Disposition& d = by_partition[p];
    if (!d.present || d.rejected) continue;
    if (j % d.stride == 0) kept.push_back(sample);
  }
  return kept;
}

}  // namespace fasthist
