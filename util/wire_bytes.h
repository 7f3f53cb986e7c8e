#ifndef FASTHIST_UTIL_WIRE_BYTES_H_
#define FASTHIST_UTIL_WIRE_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace fasthist {
namespace wire {

// The one byte-order rule of every fasthist codec — the net/ frames
// (net/frame.cc) and the histogram and snapshot envelopes
// (service/wire_format.cc): fixed-width fields are little-endian.  Internal
// to those two files; not part of the public API.
//
// A field moves as one word: a std::memcpy of the value, which compilers
// turn into a single (unaligned) load or store, byte-swapped only on a
// big-endian host.  Store/Load take raw pointers and check nothing — a
// caller sizes its buffer or checks its input's length first.  Append*
// grows a vector by one field; WireReader is the bounds-checked cursor for
// untrusted bytes.

// Host order <-> wire order for a uint32_t or uint64_t (its own inverse).
template <typename Word>
inline Word LittleEndian(Word value) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  if constexpr (sizeof(Word) == 4) {
    value = __builtin_bswap32(value);
  } else {
    value = __builtin_bswap64(value);
  }
#endif
  return value;
}

inline void StoreU32(uint8_t* out, uint32_t value) {
  value = LittleEndian(value);
  std::memcpy(out, &value, sizeof(value));
}

inline void StoreU64(uint8_t* out, uint64_t value) {
  value = LittleEndian(value);
  std::memcpy(out, &value, sizeof(value));
}

inline uint32_t LoadU32(const uint8_t* in) {
  uint32_t value;
  std::memcpy(&value, in, sizeof(value));
  return LittleEndian(value);
}

inline uint64_t LoadU64(const uint8_t* in) {
  uint64_t value;
  std::memcpy(&value, in, sizeof(value));
  return LittleEndian(value);
}

// Doubles travel as their IEEE-754 bits.
inline void StoreDouble(uint8_t* out, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  StoreU64(out, bits);
}

inline double LoadDouble(const uint8_t* in) {
  const uint64_t bits = LoadU64(in);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

inline void AppendU32(std::vector<uint8_t>* out, uint32_t value) {
  const size_t at = out->size();
  out->resize(at + 4);
  StoreU32(out->data() + at, value);
}

inline void AppendU64(std::vector<uint8_t>* out, uint64_t value) {
  const size_t at = out->size();
  out->resize(at + 8);
  StoreU64(out->data() + at, value);
}

inline void AppendI64(std::vector<uint8_t>* out, int64_t value) {
  AppendU64(out, static_cast<uint64_t>(value));
}

inline void AppendDouble(std::vector<uint8_t>* out, double value) {
  const size_t at = out->size();
  out->resize(at + 8);
  StoreDouble(out->data() + at, value);
}

// Cursor over an untrusted buffer: every read checks what remains first,
// so a truncated or hostile input can only produce a `false` return, never
// an out-of-bounds access.  A decoder that has checked a whole run of
// fields against remaining() may load them from cursor() directly.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t remaining() const { return size_ - pos_; }
  const uint8_t* cursor() const { return data_ + pos_; }

  bool ReadU32(uint32_t* out) {
    if (remaining() < 4) return false;
    *out = LoadU32(cursor());
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    if (remaining() < 8) return false;
    *out = LoadU64(cursor());
    pos_ += 8;
    return true;
  }

  bool ReadI64(int64_t* out) {
    uint64_t bits;
    if (!ReadU64(&bits)) return false;
    *out = static_cast<int64_t>(bits);
    return true;
  }

  bool ReadDouble(double* out) {
    if (remaining() < 8) return false;
    *out = LoadDouble(cursor());
    pos_ += 8;
    return true;
  }

  bool ReadBytes(size_t count, std::vector<uint8_t>* out) {
    if (remaining() < count) return false;
    out->assign(cursor(), cursor() + count);
    pos_ += count;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace wire
}  // namespace fasthist

#endif  // FASTHIST_UTIL_WIRE_BYTES_H_
