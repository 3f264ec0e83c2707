// Per-call slab/pool arena for hot-path node containers.
//
// Every simulated call churns through map/set/list nodes — packet-buffer
// entries, frame-progress records, NACK chase lists, pending FEC parity —
// at packet rate. With the global allocator each node is a malloc/free pair,
// and at fleet scale (thousands of concurrent calls) the allocator lock
// becomes the bottleneck. PoolArena carves nodes out of private 64 KiB slabs
// and recycles freed nodes through per-size-class free lists, so a call's
// steady state allocates nothing after warm-up and frees everything
// wholesale when the call is destroyed.
//
// Not thread-safe by design: a call/conference runs single-threaded on one
// worker, and each owns (or shares within itself) exactly one arena.
// Allocation never affects simulation behaviour — containers stay ordered by
// key, never by address — so arena-backed runs are byte-identical with
// global-allocator runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <new>
#include <set>
#include <type_traits>
#include <vector>

namespace converge {

class PoolArena {
 public:
  // Blocks are rounded up to multiples of kGranularity and pooled per size
  // class up to kMaxPooledBytes; larger requests (bulk vector growth) fall
  // through to the global allocator.
  static constexpr size_t kGranularity = alignof(std::max_align_t);
  static constexpr size_t kMaxPooledBytes = 1024;
  static constexpr size_t kSlabBytes = 64 * 1024;

  struct Stats {
    int64_t slabs = 0;            // 64 KiB slabs owned
    int64_t live_blocks = 0;      // allocated minus freed
    int64_t pooled_allocs = 0;    // served from a slab or a free list
    int64_t fallback_allocs = 0;  // oversized, global operator new
  };

  PoolArena() = default;
  PoolArena(const PoolArena&) = delete;
  PoolArena& operator=(const PoolArena&) = delete;
  ~PoolArena() {
    for (char* slab : slabs_) ::operator delete(slab);
  }

  void* Allocate(size_t bytes) {
    if (bytes == 0) bytes = 1;
    if (bytes > kMaxPooledBytes) {
      ++stats_.fallback_allocs;
      ++stats_.live_blocks;
      return ::operator new(bytes);
    }
    const size_t cls = SizeClass(bytes);
    ++stats_.pooled_allocs;
    ++stats_.live_blocks;
    if (FreeNode* head = free_lists_[cls]) {
      free_lists_[cls] = head->next;
      return head;
    }
    const size_t block = (cls + 1) * kGranularity;
    if (bump_remaining_ < block) NewSlab();
    void* out = bump_;
    bump_ += block;
    bump_remaining_ -= block;
    return out;
  }

  void Deallocate(void* p, size_t bytes) {
    if (p == nullptr) return;
    if (bytes == 0) bytes = 1;
    --stats_.live_blocks;
    if (bytes > kMaxPooledBytes) {
      ::operator delete(p);
      return;
    }
    const size_t cls = SizeClass(bytes);
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = free_lists_[cls];
    free_lists_[cls] = node;
  }

  const Stats& stats() const { return stats_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };
  static constexpr size_t kNumClasses = kMaxPooledBytes / kGranularity;

  static constexpr size_t SizeClass(size_t bytes) {
    return (bytes - 1) / kGranularity;
  }

  void NewSlab() {
    // ::operator new guarantees max_align_t alignment, which kGranularity
    // block sizes preserve for every block carved out of the slab.
    char* slab = static_cast<char*>(::operator new(kSlabBytes));
    slabs_.push_back(slab);
    bump_ = slab;
    bump_remaining_ = kSlabBytes;
    ++stats_.slabs;
  }

  // Raw slab list; std::vector<char*> keeps the arena itself cheap to
  // construct (no slab until the first allocation).
  std::vector<char*> slabs_;
  char* bump_ = nullptr;
  size_t bump_remaining_ = 0;
  FreeNode* free_lists_[kNumClasses] = {};
  Stats stats_;
};

// std-compatible allocator over a PoolArena, for the node containers on the
// receive hot path. Stateful: containers constructed with different arenas
// compare unequal and never exchange memory.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  // Containers are never moved/copied across arenas in this codebase; keep
  // the allocator with its container.
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;
  using is_always_equal = std::false_type;

  // Converting: lets containers be constructed straight from the arena
  // pointer (entries_(arena) in a member-init list).
  ArenaAllocator(PoolArena* arena) : arena_(arena) {}  // NOLINT
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other)  // NOLINT
      : arena_(other.arena()) {}

  T* allocate(size_t n) {
    return static_cast<T*>(arena_->Allocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { arena_->Deallocate(p, n * sizeof(T)); }

  PoolArena* arena() const { return arena_; }

  friend bool operator==(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ == b.arena_;
  }
  friend bool operator!=(const ArenaAllocator& a, const ArenaAllocator& b) {
    return a.arena_ != b.arena_;
  }

 private:
  PoolArena* arena_;
};

// Arena-backed node containers for the receive hot path. Construct with an
// ArenaAllocator (or the bare PoolArena* via the allocator's converting
// constructor at the call site).
template <typename K, typename V>
using ArenaMap =
    std::map<K, V, std::less<K>, ArenaAllocator<std::pair<const K, V>>>;
template <typename T>
using ArenaSet = std::set<T, std::less<T>, ArenaAllocator<T>>;
template <typename T>
using ArenaList = std::list<T, ArenaAllocator<T>>;

}  // namespace converge
