// Recycled ring-buffer FIFO for the per-link transmit queue.
//
// std::deque allocates and frees fixed-size chunks as the queue slides
// through memory, which puts a malloc/free pair on the per-packet hot path
// once the queue depth crosses a chunk boundary. RingQueue keeps a power-of-
// two circular array of default-constructed slots and move-assigns elements
// in and out, so after the array has grown to the link's steady-state depth
// every push/pop is just an index increment and a move — no allocation, and
// popped slots are recycled in place.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace converge {

// The slot array is materialized at kFirstCapacity slots on first use and
// doubled as needed.
template <typename T, size_t kFirstCapacity = 16>
class RingQueue {
 public:
  static_assert((kFirstCapacity & (kFirstCapacity - 1)) == 0 &&
                kFirstCapacity > 0, "capacities stay powers of two");

  RingQueue() = default;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Steady-state capacity reached so far (for tests/diagnostics).
  size_t capacity() const { return slots_.size(); }

  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  const T& back() const {
    return slots_[(head_ + size_ - 1) & (slots_.size() - 1)];
  }

  // Forwards straight into the recycled slot: an rvalue is move-assigned
  // once, with no intermediate parameter copy.
  template <typename U>
  void push_back(U&& value) {
    if (size_ == slots_.size()) Grow();
    const size_t tail = (head_ + size_) & (slots_.size() - 1);
    slots_[tail] = std::forward<U>(value);
    ++size_;
  }

  // Releases the head slot by resetting it to a default-constructed T, so
  // whatever resources it held (inline callbacks, buffers) are dropped now
  // rather than lingering until the slot is overwritten.
  void pop_front() {
    slots_[head_] = T();
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    const size_t new_cap =
        slots_.empty() ? kFirstCapacity : slots_.size() * 2;
    std::vector<T> grown(new_cap);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace converge
