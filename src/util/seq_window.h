// Paged, direct-mapped history keyed by sequence number.
//
// Every per-packet history in the stack (the sender's and the hub's
// retransmission histories, and every egress life's transport-feedback
// records) is keyed by a sequence number that advances by one per packet.
// A window of W slots (W a power of two) indexed by `key & (W - 1)`
// therefore holds the newest W keys with no tree insert, no eviction scan,
// and no per-packet allocation: writing key
// k replaces whatever key previously mapped to its slot (k - W, k - 2W, ...
// or, for a 16-bit space with W = 65536, the same wire value one wrap ago).
//
// The slots live in fixed-size pages (kPageSlots) materialized on first
// touch and released once their last entry is erased, so a short or sparse
// history costs only the pages it uses and a full one never grows by
// doubling-and-copying. Keys may be any int64_t except INT64_MIN (the empty
// marker); negative keys index like their two's-complement bit pattern.
//
// Histories are also bounded by age. A tail cursor follows the slot
// positions in key order: Trim walks it from the oldest position toward
// the newest insert, erasing entries its predicate calls expired and
// stepping over holes, and stops at the first live entry that is not. Each
// position is passed once per time an insert brings it into the span, so
// trimming on every insert costs amortized O(1). The last kTrimMemory
// positions the cursor passed remember whether it erased an entry there,
// so a lookup that missed can tell an aged-out key from one never held.
//
// Keys may arrive a little out of order: a flow whose packets leave through
// two pacers inserts some keys a few positions behind its newest one. Such
// an insert leaves the newest position alone (the span reaches back to it
// if the tail had passed its position), and Trim reaches it in key order:
// it goes once it and every live entry before it have expired.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "util/time.h"

namespace converge {

// How long every sent-packet history keeps a record (RtxHistory's per-path
// windows, EgressSeq's transport-feedback records):
// an entry is trimmed once a newer send on its window is more than this
// much later. Longer than any lookup a modelled call makes (DESIGN.md §12).
inline constexpr Duration kSentHistoryHorizon = Duration::Millis(10'000);

template <typename T>
class SeqWindow {
 public:
  // Slots per page (a window smaller than this is a single page).
  static constexpr size_t kPageSlots = 256;
  // Positions behind the tail that remember a trim (a window smaller than
  // this remembers all of them).
  static constexpr size_t kTrimMemory = 1024;

  // `window` must be a power of two, at most 2^31.
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
      tail_ = static_cast<uint32_t>(index);
    }
    Advance(index);
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

  // Removes `key` if present (the value is reset, releasing what it held);
  // a page whose last entry goes is released with it.
  bool Erase(int64_t key) {
    const size_t index = Index(key);
    const size_t page = index >> page_shift_;
    if (page >= pages_.size() || pages_[page] == nullptr) return false;
    Slot& slot = pages_[page][index & (page_slots_ - 1)];
    if (slot.key != key) return false;
    EraseSlot(page, slot);
    return true;
  }

  // Walks the tail cursor toward the newest insert, erasing every entry
  // `expired(value)` holds for and stepping over holes, until the first
  // live entry it does not hold for. Called with a cutoff that only moves
  // forward, over keys inserted in time order, it keeps exactly the
  // entries that have not expired; an out-of-order key stays until the
  // live entries before it have expired too.
  template <typename Expired>
  void Trim(Expired&& expired) {
    while (span_ > 0) {
      const size_t page = tail_ >> page_shift_;
      const size_t offset = tail_ & (page_slots_ - 1);
      if (pages_[page] == nullptr) {
        // A released page holds nothing: step over the rest of it at once.
        StepTail(std::min<size_t>(page_slots_ - offset, span_), false);
        continue;
      }
      Slot& slot = pages_[page][offset];
      const bool live = slot.key != kEmpty;
      if (live) {
        if (!expired(std::as_const(slot.value))) return;
        EraseSlot(page, slot);
      }
      StepTail(1, live);
    }
  }

  // True when Trim erased `key`'s entry and no newer key has taken its slot
  // since: a lookup that misses such a key fell behind the age bound rather
  // than naming something never kept (or erased). Remembered for the last
  // kTrimMemory positions the tail passed. Decided by slot position: keys
  // of a window as wide as their space (16-bit seqs in 65,536 slots) name
  // their slot's entry whatever its wrap, but where keys are wider than the
  // window, a key above the newest insert maps to an older key's slot, and
  // the caller must rule it out (EgressSeq::Match does).
  bool Trimmed(int64_t key) const {
    const size_t index = Index(key);
    const size_t back = (tail_ - index) & mask_;
    if (back < 1 || back > std::min<size_t>(behind_, TrimMemory())) {
      return false;
    }
    const size_t bit = index & (TrimMemory() - 1);
    return trimmed_ != nullptr && ((trimmed_[bit / 64] >> (bit % 64)) & 1);
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

  void EraseSlot(size_t page, Slot& slot) {
    slot.key = kEmpty;
    slot.value = T();
    --size_;
    if (--live_[page] == 0) pages_[page].reset();
  }

  // Takes an insert at `index` into the cursor span. One at the newest
  // position or less than half the window behind it is out of order: the
  // newest stays, and the tail moves back to it if it had passed it. Any other
  // insert is the new newest: the span grows forward to reach it and, once
  // it covers the whole window, rolls its tail along.
  void Advance(size_t index) {
    if (span_ == 0) {
      // Everything was trimmed: the positions up to `index` were passed.
      const size_t skipped = (index - tail_) & mask_;
      Remember(tail_, skipped, false);
      behind_ = static_cast<uint32_t>(std::min(behind_ + skipped, mask_));
      tail_ = static_cast<uint32_t>(index);
      span_ = 1;
      return;
    }
    const size_t newest = (tail_ + span_ - 1) & mask_;
    const size_t back = (newest - index) & mask_;
    if (2 * back < window()) {
      if (back >= span_) {
        // Passing the positions it takes back overwrote the memory of as
        // many older ones.
        const size_t kept = std::min<size_t>(behind_, TrimMemory());
        const size_t grow = back + 1 - span_;
        behind_ = static_cast<uint32_t>(kept > grow ? kept - grow : 0);
        tail_ = static_cast<uint32_t>(index);
        span_ = static_cast<uint32_t>(back + 1);
      }
      return;
    }
    const size_t span = span_ + window() - back;
    if (span >= window()) {
      span_ = static_cast<uint32_t>(window());
      tail_ = static_cast<uint32_t>((index + 1) & mask_);
      behind_ = 0;
    } else {
      span_ = static_cast<uint32_t>(span);
      behind_ = static_cast<uint32_t>(
          std::min<size_t>(behind_, window() - span));
    }
  }

  void StepTail(size_t n, bool erased) {
    Remember(tail_, n, erased);
    tail_ = static_cast<uint32_t>((tail_ + n) & mask_);
    span_ -= static_cast<uint32_t>(n);
    behind_ += static_cast<uint32_t>(n);
  }

  size_t TrimMemory() const { return std::min(kTrimMemory, window()); }

  // Records whether Trim erased an entry at the `n` positions from
  // `first` (only the last TrimMemory() of them are kept). The bits are
  // allocated by the first erase.
  void Remember(size_t first, size_t n, bool erased) {
    if (trimmed_ == nullptr) {
      if (!erased) return;  // nothing remembered yet: every bit is clear
      trimmed_ = std::make_unique<uint64_t[]>((TrimMemory() + 63) / 64);
    }
    for (size_t i = n > TrimMemory() ? n - TrimMemory() : 0; i < n; ++i) {
      const size_t bit = ((first + i) & mask_) & (TrimMemory() - 1);
      const uint64_t mask = uint64_t{1} << (bit % 64);
      trimmed_[bit / 64] = erased ? trimmed_[bit / 64] | mask
                                  : trimmed_[bit / 64] & ~mask;
    }
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
  // Tail cursor: every live entry lies in the `span_` positions from
  // `tail_` (the oldest) to the newest insert; the `behind_` positions
  // just behind `tail_` were passed by Trim.
  uint32_t tail_ = 0;
  uint32_t span_ = 0;
  uint32_t behind_ = 0;
  size_t size_ = 0;
  // One bit per remembered position: Trim erased an entry there.
  std::unique_ptr<uint64_t[]> trimmed_;
  std::vector<std::unique_ptr<Slot[]>> pages_;
  std::vector<uint32_t> live_;  // occupied slots per page
};

}  // namespace converge
