// Big-endian (network order) field codec shared by the RTP header and RTCP
// wire formats. Writers append to `out`; readers take the field at `at` and
// advance the cursor past it. Readers do not check bounds: callers validate
// the buffer length first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace converge {

inline void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xFF));
}

inline void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  PutU16(out, static_cast<uint16_t>(v >> 16));
  PutU16(out, static_cast<uint16_t>(v & 0xFFFF));
}

inline void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v >> 32));
  PutU32(out, static_cast<uint32_t>(v & 0xFFFFFFFF));
}

inline uint16_t GetU16(const std::vector<uint8_t>& in, size_t& at) {
  const uint16_t v = static_cast<uint16_t>((in[at] << 8) | in[at + 1]);
  at += 2;
  return v;
}

inline uint32_t GetU32(const std::vector<uint8_t>& in, size_t& at) {
  const uint32_t hi = GetU16(in, at);
  return (hi << 16) | GetU16(in, at);
}

inline uint64_t GetU64(const std::vector<uint8_t>& in, size_t& at) {
  const uint64_t hi = GetU32(in, at);
  return (hi << 32) | GetU32(in, at);
}

}  // namespace converge
