// Heap accounting for the traced run. The benchmark binary replaces the
// global operator new/delete with versions that forward to malloc/free and,
// while counting is switched on, count allocations, allocated bytes and
// net live bytes. With counting off (every timed run) the replacement costs
// one relaxed atomic load per call.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounters {
  int64_t allocations = 0;
  int64_t bytes_allocated = 0;
  // Bytes allocated minus bytes freed since counting was last switched on.
  int64_t live_bytes = 0;
};

// Switching counting on resets every counter to zero.
void SetAllocCounting(bool on);
AllocCounters ReadAllocCounters();

}  // namespace perfbench
