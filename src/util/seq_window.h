// Paged, direct-mapped history keyed by sequence number.
//
// Every per-packet history in the stack (the sender's and the hub's
// retransmission histories, and every egress life's transport-feedback
// records) is keyed by a sequence number that advances by one per packet.
// A window of W slots (W a power of two) indexed by `key & (W - 1)`
// therefore holds the newest W keys with no tree insert, no eviction scan,
// and no per-packet allocation.
//
// A slot holds a value and an occupancy bit, not its key: the key type
// names the key space, and the space implies each slot's key.
//   * SeqWindow<T, uint16_t>: 16-bit wire seqs in 65,536 slots, one slot
//     per wire value. A slot's key is its index, so writing a value again
//     one wrap later replaces its entry.
//   * SeqWindow<T, int64_t>: an unwrapped counter that advances by one per
//     insert. A slot's key is the one key in (newest - W, newest] with its
//     index, newest being the highest key inserted. An insert that jumps
//     ahead clears the positions it skips, so an occupied slot always holds
//     its implied key; a key below the newest must be less than W / 2
//     below it.
//
// The slots live in pages of kPageSlots values plus their occupancy bits,
// one allocation each, materialized on first touch and released once
// their last entry is erased, so a short or sparse history costs only the
// pages it uses and a full one never grows by doubling-and-copying. The
// page table is sized by the span too: a power-of-two ring of page
// pointers that covers the pages from the tail's to the newest insert's,
// growing when the span outgrows it and shrinking to fit once the span
// needs a quarter of it or less. Every live entry lies in the span, so the
// pages in it are the only ones allocated, and they map to distinct ring
// slots.
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
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.h"

namespace converge {

// How long every sent-packet history keeps a record (RtxHistory's per-path
// windows, EgressSeq's transport-feedback records):
// an entry is trimmed once a newer send on its window is more than this
// much later. Longer than any lookup a modelled call makes (DESIGN.md §12).
inline constexpr Duration kSentHistoryHorizon = Duration::Millis(10'000);

template <typename T, typename Key>
class SeqWindow {
  static_assert(std::is_same_v<Key, uint16_t> || std::is_same_v<Key, int64_t>,
                "keys are 16-bit wire seqs or an unwrapped int64_t counter");
  static constexpr bool kWire = std::is_same_v<Key, uint16_t>;

 public:
  // Slots per page: one 64-bit occupancy word.
  static constexpr size_t kPageSlots = 64;
  // Positions behind the tail that remember a trim (a window smaller than
  // this remembers all of them).
  static constexpr size_t kTrimMemory = 1024;

  // `window` must be a power of two from kPageSlots to 2^31; 16-bit keys
  // take exactly 2^16.
  explicit SeqWindow(size_t window) : mask_(window - 1) {}

  // Stores `value` under `key`, replacing the slot's previous entry.
  // Forwards straight into the slot, so an lvalue is copied once and an
  // rvalue moved once.
  template <typename U>
  T& Insert(Key key, U&& value) {
    const size_t index = Index(key);
    if (pages_.empty()) {
      // The page table is made on first use, so an unused window costs an
      // empty vector.
      pages_.resize(1);
      tail_ = static_cast<uint32_t>(index);
      newest_ = key;
    }
    // Positions `key` lies past the newest insert; 0 at or behind it.
    uint64_t ahead = 0;
    if constexpr (kWire) {
      const size_t back = (tail_ + span_ - 1 - index) & mask_;
      ahead = 2 * back < window() ? 0 : window() - back;
    } else if (key > newest_) {
      ahead = static_cast<uint64_t>(key) - static_cast<uint64_t>(newest_);
      // The skipped keys' slots hold keys that leave the window now.
      const uint64_t skipped = std::min<uint64_t>(ahead - 1, window());
      for (uint64_t i = 1; i <= skipped; ++i) {
        const size_t at = Index(newest_ + static_cast<int64_t>(i));
        if (Has(at)) EraseAt(at);
      }
      newest_ = key;
    }
    Advance(index, ahead);
    if (const size_t spanned = PagesSpanned(); spanned > pages_.size()) {
      Resize(spanned);
    }
    std::unique_ptr<Page>& page = PageOf(index);
    if (page == nullptr) {
      page = std::make_unique<Page>();
      page->number = static_cast<uint32_t>(index / kPageSlots);
    }
    const size_t offset = index % kPageSlots;
    if (!page->Has(offset)) {
      page->occupied |= uint64_t{1} << offset;
      ++page->live;
      ++size_;
    }
    T& slot = page->values[offset];
    slot = std::forward<U>(value);
    return slot;
  }

  const T* Find(Key key) const {
    if (!Holds(key)) return nullptr;
    const size_t index = Index(key);
    return &PageOf(index)->values[index % kPageSlots];
  }
  T* Find(Key key) {
    return const_cast<T*>(std::as_const(*this).Find(key));
  }

  // Removes `key` if present (the value is reset, releasing what it held);
  // a page whose last entry goes is released with it.
  bool Erase(Key key) {
    if (!Holds(key)) return false;
    EraseAt(Index(key));
    return true;
  }

  // Walks the tail cursor toward the newest insert, erasing every entry
  // `expired(value)` holds for and stepping over holes, until the first
  // live entry it does not hold for. Called with a cutoff that only moves
  // forward, over keys inserted in time order, it keeps exactly the
  // entries that have not expired; an out-of-order key stays until the
  // live entries before it have expired too. The page table then shrinks
  // to fit if the span needs a quarter of it or less.
  template <typename Expired>
  void Trim(Expired&& expired) {
    while (span_ > 0) {
      const Page* page = PageOf(tail_).get();
      if (page == nullptr) {
        // A released page holds nothing: step over the rest of it at once.
        StepTail(std::min<size_t>(kPageSlots - tail_ % kPageSlots, span_),
                 false);
        continue;
      }
      const size_t offset = tail_ % kPageSlots;
      const bool live = page->Has(offset);
      if (live) {
        if (!expired(std::as_const(page->values[offset]))) break;
        EraseAt(tail_);
      }
      StepTail(1, live);
    }
    if (const size_t spanned = PagesSpanned();
        pages_.size() > 1 && 4 * spanned <= pages_.size()) {
      Resize(spanned);
    }
  }

  // True when Trim erased `key`'s entry and no newer key has taken its slot
  // since: a lookup that misses such a key fell behind the age bound rather
  // than naming something never kept (or erased). Remembered for the last
  // kTrimMemory positions the tail passed. Decided by slot position: a
  // 16-bit key names its slot's entry whatever its wrap, but an unwrapped
  // key above the newest insert maps to an older key's slot, and the
  // caller must rule it out (EgressSeq::Match does).
  bool Trimmed(Key key) const {
    const size_t index = Index(key);
    const size_t back = (tail_ - index) & mask_;
    if (back < 1 || back > std::min<size_t>(behind_, TrimMemory())) {
      return false;
    }
    const size_t bit = index & (TrimMemory() - 1);
    return trimmed_ != nullptr && ((trimmed_[bit / 64] >> (bit % 64)) & 1);
  }

  // Calls `fn(value)` for every live entry, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const std::unique_ptr<Page>& page : pages_) {
      if (page == nullptr) continue;
      for (uint64_t bits = page->occupied; bits != 0; bits &= bits - 1) {
        fn(page->values[std::countr_zero(bits)]);
      }
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t window() const { return mask_ + 1; }
  size_t pages_allocated() const {
    size_t n = 0;
    for (const auto& page : pages_) n += page != nullptr ? 1 : 0;
    return n;
  }
  // Page pointers the table holds (a power of two; 0 before first use).
  size_t page_table_slots() const { return pages_.size(); }

 private:
  // The values of kPageSlots consecutive slots and which of them are
  // occupied, in one allocation.
  struct Page {
    T values[kPageSlots]{};
    uint64_t occupied = 0;
    uint32_t live = 0;    // occupied slots
    uint32_t number = 0;  // which page of the window: index / kPageSlots
    bool Has(size_t offset) const { return (occupied >> offset) & 1; }
  };

  size_t Index(Key key) const {
    return static_cast<size_t>(static_cast<uint64_t>(key)) & mask_;
  }

  // The table entry of the page holding `index`, which must lie in a page
  // the span reaches.
  std::unique_ptr<Page>& PageOf(size_t index) {
    return pages_[(index / kPageSlots) & (pages_.size() - 1)];
  }
  const std::unique_ptr<Page>& PageOf(size_t index) const {
    return pages_[(index / kPageSlots) & (pages_.size() - 1)];
  }

  // Pages the span reaches, from the tail's to the newest insert's.
  size_t PagesSpanned() const {
    if (span_ == 0) return 0;
    return std::min(window() / kPageSlots,
                    (tail_ % kPageSlots + span_ - 1) / kPageSlots + 1);
  }

  // Rebuilds the page table with the fewest slots, a power of two, that
  // hold `pages` pages; every allocated page lies in the span.
  void Resize(size_t pages) {
    std::vector<std::unique_ptr<Page>> table(
        std::bit_ceil(std::max<size_t>(pages, 1)));
    for (std::unique_ptr<Page>& page : pages_) {
      if (page != nullptr) {
        table[page->number & (table.size() - 1)] = std::move(page);
      }
    }
    pages_ = std::move(table);
  }

  bool Has(size_t index) const {
    if (((index - tail_) & mask_) >= span_) return false;  // outside the span
    const Page* page = PageOf(index).get();
    return page != nullptr && page->Has(index % kPageSlots);
  }

  // Whether `key`'s entry is present: its slot is occupied and, for an
  // unwrapped key, it is the slot's implied key.
  bool Holds(Key key) const {
    if constexpr (!kWire) {
      const uint64_t back =
          static_cast<uint64_t>(newest_) - static_cast<uint64_t>(key);
      if (back > mask_) return false;
    }
    return Has(Index(key));
  }

  void EraseAt(size_t index) {
    std::unique_ptr<Page>& page = PageOf(index);
    const size_t offset = index % kPageSlots;
    page->occupied &= ~(uint64_t{1} << offset);
    page->values[offset] = T();
    --size_;
    if (--page->live == 0) page.reset();
  }

  // Takes an insert at `index`, `ahead` positions past the newest, into
  // the cursor span. One at the newest position or less than half the
  // window behind it (`ahead` 0) is out of order: the newest stays, and the
  // tail moves back to it if it had passed it. Any other insert is the new
  // newest: the span grows forward to reach it and, once it covers the
  // whole window, rolls its tail along.
  void Advance(size_t index, uint64_t ahead) {
    if (span_ == 0) {
      // Everything was trimmed: the positions up to `index` were passed.
      const size_t skipped =
          ahead > window() ? window() : (index - tail_) & mask_;
      Remember(tail_, skipped, false);
      behind_ = static_cast<uint32_t>(std::min(behind_ + skipped, mask_));
      tail_ = static_cast<uint32_t>(index);
      span_ = 1;
      return;
    }
    if (ahead == 0) {
      const size_t back = (tail_ + span_ - 1 - index) & mask_;
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
    const uint64_t span = span_ + ahead;
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

  size_t mask_;
  // Tail cursor: every live entry lies in the `span_` positions from
  // `tail_` (the oldest) to the newest insert; the `behind_` positions
  // just behind `tail_` were passed by Trim.
  uint32_t tail_ = 0;
  uint32_t span_ = 0;
  uint32_t behind_ = 0;
  size_t size_ = 0;
  // The highest key inserted (what unwrapped keys' slots are implied by).
  int64_t newest_ = 0;
  // One bit per remembered position: Trim erased an entry there.
  std::unique_ptr<uint64_t[]> trimmed_;
  // The page table: page n at n & (size - 1).
  std::vector<std::unique_ptr<Page>> pages_;
};

}  // namespace converge
