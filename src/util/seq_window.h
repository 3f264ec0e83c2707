// Paged, direct-mapped history keyed by sequence number.
//
// Every per-packet history in the stack (sender retransmission and
// transport-feedback records, the hub's egress retransmission history, the
// downlink controller's awaiting-feedback records) is keyed by a sequence
// number that advances by one per packet. A window of W slots (W a power of
// two) indexed by `key & (W - 1)` therefore holds the newest W keys with no
// tree insert, no eviction scan, and no per-packet allocation: writing key
// k replaces whatever key previously mapped to its slot (k - W, k - 2W, ...
// or, for a 16-bit space with W = 65536, the same wire value one wrap ago).
//
// The slots live in fixed-size pages (kPageSlots) materialized on first
// touch and released once their last entry is erased, so a short or sparse
// history costs only the pages it uses and a full one never grows by
// doubling-and-copying. Keys may be any int64_t except INT64_MIN (the empty
// marker); negative keys index like their two's-complement bit pattern.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

namespace converge {

template <typename T>
class SeqWindow {
 public:
  // Slots per page (a window smaller than this is a single page).
  static constexpr size_t kPageSlots = 256;

  // `window` must be a power of two.
  explicit SeqWindow(size_t window)
      : mask_(window - 1),
        page_slots_(window < kPageSlots ? window : kPageSlots),
        page_shift_(Log2(page_slots_)) {}

  // Stores `value` under `key`, replacing the slot's previous entry
  // whatever its key. Forwards straight into the slot, so an lvalue is
  // copied once and an rvalue moved once.
  template <typename U>
  T& Insert(int64_t key, U&& value) {
    const size_t index = Index(key);
    const size_t page = index >> page_shift_;
    if (pages_.empty()) {
      // The page table itself is sized on first use, so an unused window
      // costs two empty vectors.
      pages_.resize(window() / page_slots_);
      live_.resize(pages_.size(), 0);
    }
    if (pages_[page] == nullptr) {
      pages_[page] = std::make_unique<Slot[]>(page_slots_);
    }
    Slot& slot = pages_[page][index & (page_slots_ - 1)];
    if (slot.key == kEmpty) {
      ++live_[page];
      ++size_;
    }
    slot.key = key;
    slot.value = std::forward<U>(value);
    return slot.value;
  }

  const T* Find(int64_t key) const {
    const Slot* slot = SlotOf(key);
    return slot != nullptr && slot->key == key ? &slot->value : nullptr;
  }
  T* Find(int64_t key) {
    return const_cast<T*>(std::as_const(*this).Find(key));
  }

  // True when `key`'s slot holds an entry under a different key, i.e.
  // Insert(key) would displace it.
  bool Collides(int64_t key) const {
    const Slot* slot = SlotOf(key);
    return slot != nullptr && slot->key != kEmpty && slot->key != key;
  }

  // Removes `key` if present (the value is reset, releasing what it held);
  // a page whose last entry goes is released with it.
  bool Erase(int64_t key) {
    const size_t index = Index(key);
    const size_t page = index >> page_shift_;
    if (page >= pages_.size() || pages_[page] == nullptr) return false;
    Slot& slot = pages_[page][index & (page_slots_ - 1)];
    if (slot.key != key) return false;
    slot.key = kEmpty;
    slot.value = T();
    --size_;
    if (--live_[page] == 0) pages_[page].reset();
    return true;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t window() const { return mask_ + 1; }
  size_t pages_allocated() const {
    size_t n = 0;
    for (const auto& page : pages_) n += page != nullptr ? 1 : 0;
    return n;
  }

 private:
  static constexpr int64_t kEmpty = std::numeric_limits<int64_t>::min();

  struct Slot {
    int64_t key = kEmpty;
    T value{};
  };

  static int Log2(size_t v) {
    int shift = 0;
    while ((size_t{1} << shift) < v) ++shift;
    return shift;
  }

  size_t Index(int64_t key) const {
    return static_cast<size_t>(static_cast<uint64_t>(key)) & mask_;
  }

  const Slot* SlotOf(int64_t key) const {
    const size_t index = Index(key);
    const size_t page = index >> page_shift_;
    if (page >= pages_.size() || pages_[page] == nullptr) return nullptr;
    return &pages_[page][index & (page_slots_ - 1)];
  }

  size_t mask_;
  size_t page_slots_;
  int page_shift_;
  size_t size_ = 0;
  std::vector<std::unique_ptr<Slot[]>> pages_;
  std::vector<uint32_t> live_;  // occupied slots per page
};

}  // namespace converge
