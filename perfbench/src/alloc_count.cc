#include "alloc_count.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_bytes{0};
std::atomic<int64_t> g_live{0};

void Count(void* p) {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  const auto size = static_cast<int64_t>(malloc_usable_size(p));
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  g_live.fetch_add(size, std::memory_order_relaxed);
}

void Uncount(void* p) {
  if (p == nullptr || !g_counting.load(std::memory_order_relaxed)) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
}

void* Allocate(std::size_t size) {
  for (;;) {
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
      Count(p);
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void* AllocateAligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, rounded)) {
      Count(p);
      return p;
    }
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void Release(void* p) noexcept {
  Uncount(p);
  std::free(p);
}

}  // namespace

void SetAllocCounting(bool on) {
  if (on) {
    g_allocations.store(0, std::memory_order_relaxed);
    g_bytes.store(0, std::memory_order_relaxed);
    g_live.store(0, std::memory_order_relaxed);
  }
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounters ReadAllocCounters() {
  AllocCounters c;
  c.allocations = g_allocations.load(std::memory_order_relaxed);
  c.bytes_allocated = g_bytes.load(std::memory_order_relaxed);
  c.live_bytes = g_live.load(std::memory_order_relaxed);
  return c;
}

}  // namespace perfbench

using perfbench::Allocate;
using perfbench::AllocateAligned;
using perfbench::Release;

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return Allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return AllocateAligned(size, align);
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
