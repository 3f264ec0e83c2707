// 16-bit RTP sequence-number arithmetic (RFC 3550 wrap-around rules) and an
// unwrapper that extends wrapped sequence numbers to monotone int64 values.
#pragma once

#include <cstdint>

namespace converge {

// True if `a` is strictly newer than `b` under mod-2^16 arithmetic.
inline bool SeqNewerThan(uint16_t a, uint16_t b) {
  return static_cast<uint16_t>(a - b) < 0x8000 && a != b;
}

inline uint16_t SeqMax(uint16_t a, uint16_t b) {
  return SeqNewerThan(a, b) ? a : b;
}

// Forward distance from `from` to `to` (how many increments).
inline uint16_t SeqDistance(uint16_t from, uint16_t to) {
  return static_cast<uint16_t>(to - from);
}

// The unwrapped key of the wire `seq` nearest to the unwrapped `reference`:
// the one in [reference - 0x8000, reference + 0x7FFF].
inline int64_t UnwrapNear(int64_t reference, uint16_t seq) {
  return reference + static_cast<int16_t>(static_cast<uint16_t>(
                         seq - static_cast<uint16_t>(reference)));
}

// Extends uint16 sequence numbers into a monotone 64-bit space. Handles
// reordering around the wrap point.
class SeqUnwrapper {
 public:
  int64_t Unwrap(uint16_t seq) {
    if (!initialized_) {
      last_unwrapped_ = seq;
      initialized_ = true;
      return last_unwrapped_;
    }
    last_unwrapped_ = UnwrapNear(last_unwrapped_, seq);
    if (last_unwrapped_ < 0) last_unwrapped_ += 0x10000;
    return last_unwrapped_;
  }

 private:
  bool initialized_ = false;
  int64_t last_unwrapped_ = 0;
};

}  // namespace converge
