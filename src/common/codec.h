// Little-endian wire primitives shared by the journal (storage/wal.cc) and
// the replication wire protocol (replication/wire.cc). Fixed-width integers
// are encoded little-endian; strings are u32-length-prefixed bytes. Varints
// are unsigned LEB128, with zig-zag mapping for signed values. Every Get*
// helper bounds-checks against the buffer and fails (returns false) instead
// of reading past the end, so torn or corrupt inputs degrade to a decode
// error, never to undefined behavior.

#ifndef SELTRIG_COMMON_CODEC_H_
#define SELTRIG_COMMON_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace seltrig {
namespace codec {

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

inline void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

inline bool GetU32(std::string_view data, size_t* offset, uint32_t* v) {
  if (*offset + 4 > data.size()) return false;
  uint32_t result = 0;
  for (int i = 0; i < 4; ++i) {
    result |= static_cast<uint32_t>(static_cast<unsigned char>(data[*offset + i]))
              << (8 * i);
  }
  *offset += 4;
  *v = result;
  return true;
}

inline bool GetU64(std::string_view data, size_t* offset, uint64_t* v) {
  if (*offset + 8 > data.size()) return false;
  uint64_t result = 0;
  for (int i = 0; i < 8; ++i) {
    result |= static_cast<uint64_t>(static_cast<unsigned char>(data[*offset + i]))
              << (8 * i);
  }
  *offset += 8;
  *v = result;
  return true;
}

inline bool GetString(std::string_view data, size_t* offset, std::string* s) {
  uint32_t len = 0;
  if (!GetU32(data, offset, &len)) return false;
  if (len > data.size() - *offset) return false;
  s->assign(data.data() + *offset, len);
  *offset += len;
  return true;
}

// Unsigned LEB128: seven bits per byte, low group first, the high bit set on
// every byte but the last. One byte below 128, at most ten for a u64.
inline void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

// Accepts only the canonical (shortest) encoding of a value that fits in 64
// bits: a truncated, zero-padded or overlong varint is a decode error.
inline bool GetVarint(std::string_view data, size_t* offset, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*offset >= data.size()) return false;
    const uint64_t byte = static_cast<unsigned char>(data[(*offset)++]);
    if (shift == 63 && byte > 1) return false;  // bits past the 64th
    if (shift > 0 && byte == 0) return false;   // padded, not shortest
    result |= (byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return true;
    }
  }
  return false;
}

// Zig-zag maps small magnitudes of either sign to small unsigned values:
// 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t UnZigZag(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

inline void PutVarString(std::string* out, const std::string& s) {
  PutVarint(out, s.size());
  out->append(s);
}

}  // namespace codec
}  // namespace seltrig

#endif  // SELTRIG_COMMON_CODEC_H_
