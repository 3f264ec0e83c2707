#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "sim/event_loop.h"

namespace converge {
namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(Timestamp::Millis(30), [&] { order.push_back(3); });
  loop.ScheduleAt(Timestamp::Millis(10), [&] { order.push_back(1); });
  loop.ScheduleAt(Timestamp::Millis(20), [&] { order.push_back(2); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.executed_events(), 3);
}

TEST(EventLoopTest, StableTieBreakByInsertion) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(Timestamp::Millis(5), [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// The flat binary heap is not inherently stable, so FIFO order among
// same-timestamp events relies entirely on the (at, seq) composite key.
// Stress it well past any small-case luck: many batches, each with many
// events at the same instant, interleaved with earlier/later noise.
TEST(EventLoopTest, SameTimestampFifoAtScale) {
  EventLoop loop;
  std::vector<int> order;
  constexpr int kBatches = 50;
  constexpr int kPerBatch = 64;
  // Schedule batches in a deliberately shuffled timestamp order so heap
  // sift paths get exercised; within a timestamp, insertion order must win.
  for (int b = kBatches - 1; b >= 0; --b) {
    for (int i = 0; i < kPerBatch; ++i) {
      loop.ScheduleAt(Timestamp::Millis(b),
                      [&order, b, i] { order.push_back(b * kPerBatch + i); });
    }
  }
  loop.RunAll();
  ASSERT_EQ(order.size(), static_cast<size_t>(kBatches * kPerBatch));
  // Timestamps globally ascend; within each timestamp, insertion order holds
  // (batches were inserted high-to-low, so each batch's block is FIFO).
  for (int b = 0; b < kBatches; ++b) {
    for (int i = 0; i < kPerBatch; ++i) {
      EXPECT_EQ(order[static_cast<size_t>(b * kPerBatch + i)],
                b * kPerBatch + i);
    }
  }
}

// Callbacks larger than the inline buffer must still work (heap fallback).
TEST(EventLoopTest, OversizedCallbackFallsBackToHeap) {
  EventLoop loop;
  std::array<uint64_t, 64> big{};  // 512 bytes: over kCallbackInlineBytes
  for (size_t i = 0; i < big.size(); ++i) big[i] = i * 3 + 1;
  uint64_t sum = 0;
  loop.ScheduleAt(Timestamp::Millis(1), [big, &sum] {
    for (uint64_t v : big) sum += v;
  });
  loop.RunAll();
  uint64_t want = 0;
  for (size_t i = 0; i < big.size(); ++i) want += i * 3 + 1;
  EXPECT_EQ(sum, want);
}

// Callback slots are recycled; scheduling from inside a callback while the
// heap churns must never corrupt pending entries.
TEST(EventLoopTest, SlotRecyclingUnderChurn) {
  EventLoop loop;
  int executed = 0;
  std::function<void(int)> spawn = [&](int depth) {
    ++executed;
    if (depth >= 200) return;
    loop.ScheduleIn(Duration::Micros(7), [&, depth] { spawn(depth + 1); });
    loop.ScheduleIn(Duration::Micros(13), [&] { ++executed; });
  };
  loop.ScheduleAt(Timestamp::Zero(), [&] { spawn(0); });
  loop.RunAll();
  EXPECT_EQ(executed, 201 + 200);  // spawn at depths 0..200 + 200 side events
}

TEST(EventLoopTest, NowAdvancesWithEvents) {
  EventLoop loop;
  Timestamp seen;
  loop.ScheduleAt(Timestamp::Millis(42), [&] { seen = loop.now(); });
  loop.RunAll();
  EXPECT_EQ(seen, Timestamp::Millis(42));
}

TEST(EventLoopTest, RunUntilStopsAtBoundary) {
  EventLoop loop;
  int ran = 0;
  loop.ScheduleAt(Timestamp::Millis(10), [&] { ++ran; });
  loop.ScheduleAt(Timestamp::Millis(20), [&] { ++ran; });
  loop.ScheduleAt(Timestamp::Millis(30), [&] { ++ran; });
  loop.RunUntil(Timestamp::Millis(20));
  EXPECT_EQ(ran, 2);  // the 20 ms event is inclusive
  EXPECT_EQ(loop.now(), Timestamp::Millis(20));
  EXPECT_EQ(loop.pending_events(), 1u);
}

TEST(EventLoopTest, ScheduledInPastRunsNow) {
  EventLoop loop;
  loop.ScheduleAt(Timestamp::Millis(10), [&] {
    // Scheduling "in the past" clamps to now.
    loop.ScheduleAt(Timestamp::Millis(1), [&] {
      EXPECT_EQ(loop.now(), Timestamp::Millis(10));
    });
  });
  loop.RunAll();
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.ScheduleIn(Duration::Millis(1), recurse);
  };
  loop.ScheduleIn(Duration::Millis(1), recurse);
  loop.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), Timestamp::Millis(5));
}

TEST(RepeatingTaskTest, TicksAtPeriod) {
  EventLoop loop;
  int ticks = 0;
  RepeatingTask task(&loop, Duration::Millis(10), [&] { ++ticks; });
  loop.RunUntil(Timestamp::Millis(100));
  EXPECT_EQ(ticks, 10);
}

TEST(RepeatingTaskTest, StopCancelsFutureTicks) {
  EventLoop loop;
  int ticks = 0;
  auto task = std::make_unique<RepeatingTask>(&loop, Duration::Millis(10),
                                              [&] { ++ticks; });
  loop.ScheduleAt(Timestamp::Millis(35), [&] { task->Stop(); });
  loop.RunUntil(Timestamp::Millis(200));
  EXPECT_EQ(ticks, 3);
}

// Stopping from inside the tick itself must prevent the next firing: the
// cohort re-checks the timer's generation after running its tick.
TEST(RepeatingTaskTest, StopFromInsideTickCancels) {
  EventLoop loop;
  int ticks = 0;
  std::unique_ptr<RepeatingTask> task;
  task = std::make_unique<RepeatingTask>(&loop, Duration::Millis(10), [&] {
    if (++ticks == 3) task->Stop();
  });
  loop.RunUntil(Timestamp::Millis(500));
  EXPECT_EQ(ticks, 3);
}

TEST(RepeatingTaskTest, DestructionCancels) {
  EventLoop loop;
  int ticks = 0;
  {
    RepeatingTask task(&loop, Duration::Millis(10), [&] { ++ticks; });
    loop.RunUntil(Timestamp::Millis(25));
  }
  loop.RunUntil(Timestamp::Millis(200));
  EXPECT_EQ(ticks, 2);
}

}  // namespace
}  // namespace converge
