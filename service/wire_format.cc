#include "service/wire_format.h"

#include <cmath>
#include <utility>

#include "util/wire_bytes.h"

namespace fasthist {
namespace {

using wire::AppendI64;
using wire::AppendU32;
using wire::AppendU64;
using wire::WireReader;

// "FHh1" / "FHs1" as they appear on the wire (little-endian u32).
constexpr uint32_t kHistogramMagic = 0x31684846;
constexpr uint32_t kSnapshotMagic = 0x31734846;
constexpr uint32_t kHistogramVersion = 1;
constexpr uint32_t kSnapshotVersion = 2;       // v2 added error_levels
constexpr uint32_t kSnapshotVersionKeyed = 3;  // v3 added key_id (keyed)
constexpr size_t kHistogramHeaderBytes = 24;  // magic, version, domain, P
constexpr size_t kBytesPerPiece = 16;  // one int64 end + one double value

// Any honest error_levels is tiny (ladder depth + reconcile + tree depth);
// a huge value is a corrupt or hostile envelope, not a deep pipeline.
constexpr int64_t kMaxErrorLevels = 1 << 20;

}  // namespace

std::vector<uint8_t> EncodeHistogram(const Histogram& histogram) {
  const std::vector<HistogramPiece>& pieces = histogram.pieces();
  const size_t num_pieces = pieces.size();
  std::vector<uint8_t> out(kHistogramHeaderBytes +
                           kBytesPerPiece * num_pieces);
  wire::StoreU32(out.data(), kHistogramMagic);
  wire::StoreU32(out.data() + 4, kHistogramVersion);
  wire::StoreU64(out.data() + 8,
                 static_cast<uint64_t>(histogram.domain_size()));
  wire::StoreU64(out.data() + 16, static_cast<uint64_t>(num_pieces));
  // The ends plane, then the values plane, one word per field.
  uint8_t* ends = out.data() + kHistogramHeaderBytes;
  uint8_t* values = ends + 8 * num_pieces;
  for (size_t i = 0; i < num_pieces; ++i) {
    wire::StoreU64(ends + 8 * i,
                   static_cast<uint64_t>(pieces[i].interval.end));
    wire::StoreDouble(values + 8 * i, pieces[i].value);
  }
  return out;
}

StatusOr<Histogram> DecodeHistogram(const uint8_t* data, size_t size) {
  if (data == nullptr && size > 0) {
    return Status::Invalid("DecodeHistogram: null buffer");
  }
  WireReader reader(data, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  int64_t domain_size = 0;
  int64_t num_pieces = 0;
  if (!reader.ReadU32(&magic)) {
    return Status::Invalid("DecodeHistogram: truncated header");
  }
  if (magic != kHistogramMagic) {
    return Status::Invalid("DecodeHistogram: bad magic");
  }
  if (!reader.ReadU32(&version)) {
    return Status::Invalid("DecodeHistogram: truncated header");
  }
  if (version != kHistogramVersion) {
    return Status::Invalid("DecodeHistogram: unsupported version");
  }
  if (!reader.ReadI64(&domain_size) || !reader.ReadI64(&num_pieces)) {
    return Status::Invalid("DecodeHistogram: truncated header");
  }
  if (domain_size <= 0) {
    return Status::Invalid("DecodeHistogram: domain_size must be positive");
  }
  if (num_pieces <= 0 || num_pieces > domain_size) {
    return Status::Invalid("DecodeHistogram: piece count out of range");
  }
  // Overflow-safe payload sizing: compare the count against the bytes that
  // are actually present before ever multiplying it.
  if (static_cast<uint64_t>(num_pieces) > reader.remaining() / kBytesPerPiece) {
    return Status::Invalid("DecodeHistogram: truncated piece planes");
  }
  if (reader.remaining() !=
      static_cast<size_t>(num_pieces) * kBytesPerPiece) {
    return Status::Invalid("DecodeHistogram: trailing bytes");
  }

  // The two checks above prove both planes are present in full, so each
  // field is loaded as a word with no per-field bounds check; every piece
  // still gets its own value checks.
  const size_t count = static_cast<size_t>(num_pieces);
  const uint8_t* ends = reader.cursor();
  const uint8_t* values = ends + 8 * count;
  std::vector<HistogramPiece> pieces(count);
  int64_t begin = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t end = static_cast<int64_t>(wire::LoadU64(ends + 8 * i));
    if (end <= begin || end > domain_size) {
      return Status::Invalid("DecodeHistogram: piece ends must be increasing");
    }
    pieces[i].interval = {begin, end};
    begin = end;
  }
  if (begin != domain_size) {
    return Status::Invalid("DecodeHistogram: pieces must cover the domain");
  }
  for (size_t i = 0; i < count; ++i) {
    HistogramPiece& piece = pieces[i];
    piece.value = wire::LoadDouble(values + 8 * i);
    // Value-plane validation: densities are finite and non-negative by
    // construction, so NaN/Inf/negative here is corruption (or hostility),
    // caught at the trust boundary instead of deep inside a later merge.
    if (!std::isfinite(piece.value) || piece.value < 0.0) {
      return Status::Invalid(
          "DecodeHistogram: piece values must be finite and non-negative");
    }
  }
  return Histogram::Create(domain_size, std::move(pieces));
}

std::vector<uint8_t> EncodeShardSnapshot(const ShardSnapshot& snapshot) {
  std::vector<uint8_t> out;
  out.reserve(48 + snapshot.encoded_histogram.size());
  AppendU32(&out, kSnapshotMagic);
  // Version is a pure function of `keyed`: an un-keyed snapshot produces
  // the exact v2 byte stream it always has (regression-tested), a keyed
  // one inserts key_id after shard_id under version 3.
  AppendU32(&out, snapshot.keyed ? kSnapshotVersionKeyed : kSnapshotVersion);
  AppendU64(&out, snapshot.shard_id);
  if (snapshot.keyed) AppendU64(&out, snapshot.key_id);
  AppendI64(&out, snapshot.num_samples);
  AppendI64(&out, static_cast<int64_t>(snapshot.error_levels));
  AppendU64(&out, static_cast<uint64_t>(snapshot.encoded_histogram.size()));
  out.insert(out.end(), snapshot.encoded_histogram.begin(),
             snapshot.encoded_histogram.end());
  return out;
}

StatusOr<ShardSnapshot> DecodeShardSnapshot(const uint8_t* data, size_t size) {
  if (data == nullptr && size > 0) {
    return Status::Invalid("DecodeShardSnapshot: null buffer");
  }
  WireReader reader(data, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  ShardSnapshot snapshot;
  uint64_t blob_size = 0;
  if (!reader.ReadU32(&magic)) {
    return Status::Invalid("DecodeShardSnapshot: truncated header");
  }
  if (magic != kSnapshotMagic) {
    return Status::Invalid("DecodeShardSnapshot: bad magic");
  }
  if (!reader.ReadU32(&version)) {
    return Status::Invalid("DecodeShardSnapshot: truncated header");
  }
  if (version != kSnapshotVersion && version != kSnapshotVersionKeyed) {
    return Status::Invalid("DecodeShardSnapshot: unsupported version");
  }
  snapshot.keyed = version == kSnapshotVersionKeyed;
  int64_t error_levels = 0;
  if (!reader.ReadU64(&snapshot.shard_id) ||
      (snapshot.keyed && !reader.ReadU64(&snapshot.key_id)) ||
      !reader.ReadI64(&snapshot.num_samples) ||
      !reader.ReadI64(&error_levels) || !reader.ReadU64(&blob_size)) {
    return Status::Invalid("DecodeShardSnapshot: truncated header");
  }
  if (snapshot.num_samples < 0) {
    return Status::Invalid("DecodeShardSnapshot: negative sample count");
  }
  if (error_levels < 0 || error_levels > kMaxErrorLevels) {
    return Status::Invalid("DecodeShardSnapshot: error_levels out of range");
  }
  snapshot.error_levels = static_cast<int>(error_levels);
  if (blob_size != reader.remaining()) {
    return Status::Invalid("DecodeShardSnapshot: blob size mismatch");
  }
  if (!reader.ReadBytes(static_cast<size_t>(blob_size),
                        &snapshot.encoded_histogram)) {
    return Status::Invalid("DecodeShardSnapshot: truncated blob");
  }
  // The embedded histogram must itself decode — an envelope around garbage
  // is corrupt, and catching it here keeps the reduction layer's error
  // handling trivial.
  if (auto histogram = DecodeHistogram(snapshot.encoded_histogram);
      !histogram.ok()) {
    return histogram.status();
  }
  return snapshot;
}

}  // namespace fasthist
