// Differential tests pinning the timer-wheel EventLoop against a reference
// binary-heap scheduler, for one-shot events and for repeating timers, plus
// the schedule-in-the-past accounting the wheel rewrite surfaced.
//
// The reference model is the seed-era implementation distilled to its
// essentials: a (timestamp, seq) min-heap where seq is assigned at
// ScheduleAt time. The wheel must execute the exact same sequence of
// (time, id) pairs on every schedule the heap handles — same-timestamp
// bursts (cursor-heap tie-breaks), events beyond the 512-tick wheel horizon
// (overflow migration), and callbacks that schedule more work for the
// current instant (cursor re-entry).
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_loop.h"
#include "util/invariants.h"
#include "util/random.h"

namespace converge {
namespace {

// Reference scheduler: plain (timestamp, seq) min-heap with FIFO tie-break.
// Carries (id, depth) so chained re-schedules track their position without
// any id-keyed lookup.
class HeapModel {
 public:
  void ScheduleAt(Timestamp at, int id, int depth) {
    if (at < now_) at = now_;
    heap_.push(Entry{at, next_seq_++, id, depth});
  }

  // Executes everything due by `end`; calls visit(time, id, depth, this) in
  // order (visit may schedule more).
  template <typename Visit>
  void RunUntil(Timestamp end, Visit&& visit) {
    while (!heap_.empty() && heap_.top().at <= end) {
      const Entry e = heap_.top();
      heap_.pop();
      now_ = e.at;
      visit(e.at, e.id, e.depth, this);
    }
    if (now_ < end) now_ = end;
  }

  Timestamp now() const { return now_; }

 private:
  struct Entry {
    Timestamp at;
    int64_t seq;
    int id;
    int depth;
    bool operator>(const Entry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  Timestamp now_ = Timestamp::Zero();
  int64_t next_seq_ = 0;
};

struct Execution {
  Timestamp at;
  int id;
};

// Follow-up delay derived purely from (id): both models compute it
// identically without sharing state. The classes cover cursor re-entry
// (zero delay), near-bucket hops, mid-wheel hops, and overflow jumps past
// the ~524 ms wheel horizon.
Duration FollowUp(int id) {
  switch (id % 5) {
    case 0: return Duration::Zero();
    case 1: return Duration::Micros(1);
    case 2: return Duration::Micros(700);
    case 3: return Duration::Millis(37);
    default: return Duration::Millis(900);
  }
}

constexpr int kMaxChain = 3;

int NextChainId(int id, int depth) { return id * 31 + depth + 1; }

// Drives both schedulers through the same randomized schedule (including
// follow-up events scheduled from inside callbacks) and compares the full
// execution orders.
void RunDifferential(uint64_t seed, int initial_events, int64_t horizon_us,
                     Duration run_chunk) {
  EventLoop wheel;
  HeapModel heap;
  std::vector<Execution> wheel_order;
  std::vector<Execution> heap_order;

  std::function<void(int, int, Timestamp)> arm_wheel =
      [&](int id, int depth, Timestamp at) {
        wheel.ScheduleAt(at, [&, id, depth] {
          wheel_order.push_back({wheel.now(), id});
          if (depth < kMaxChain) {
            arm_wheel(NextChainId(id, depth), depth + 1,
                      wheel.now() + FollowUp(id));
          }
        });
      };

  Random rng(seed);
  struct Seeded {
    Timestamp at;
    int id;
  };
  std::vector<Seeded> seeds;
  for (int i = 0; i < initial_events; ++i) {
    // Bursts: several events share a timestamp to stress tie-breaks.
    const int64_t us = rng.UniformInt(0, horizon_us);
    const int burst = 1 + static_cast<int>(rng.UniformInt(0, 2));
    for (int b = 0; b < burst; ++b) {
      seeds.push_back(
          {Timestamp::Zero() + Duration::Micros(us), i * 100 + b});
    }
  }
  for (const Seeded& s : seeds) arm_wheel(s.id, 0, s.at);
  for (const Seeded& s : seeds) heap.ScheduleAt(s.at, s.id, 0);

  const auto heap_visit = [&](Timestamp at, int id, int depth,
                              HeapModel* model) {
    heap_order.push_back({at, id});
    if (depth < kMaxChain) {
      model->ScheduleAt(at + FollowUp(id), NextChainId(id, depth), depth + 1);
    }
  };

  const Timestamp end =
      Timestamp::Zero() + Duration::Micros(horizon_us) + Duration::Seconds(4);
  // Run in chunks so RunUntil boundaries land mid-schedule too (with a chunk
  // larger than the whole schedule, the final catch-up below is the single
  // giant RunUntil).
  for (Timestamp t = Timestamp::Zero() + run_chunk; t <= end;
       t = t + run_chunk) {
    wheel.RunUntil(t);
    heap.RunUntil(t, heap_visit);
    ASSERT_EQ(wheel.now(), heap.now());
    ASSERT_EQ(wheel_order.size(), heap_order.size())
        << "diverged within chunk ending at " << t.us() << "us";
  }
  wheel.RunUntil(end);
  heap.RunUntil(end, heap_visit);
  ASSERT_EQ(wheel.now(), heap.now());

  ASSERT_EQ(wheel_order.size(), heap_order.size());
  for (size_t i = 0; i < wheel_order.size(); ++i) {
    ASSERT_EQ(wheel_order[i].at, heap_order[i].at) << "execution " << i;
    ASSERT_EQ(wheel_order[i].id, heap_order[i].id) << "execution " << i;
  }
  EXPECT_EQ(wheel.pending_events(), 0u);
  EXPECT_EQ(wheel.executed_events(),
            static_cast<int64_t>(wheel_order.size()));
}

TEST(TimerWheelDifferential, DenseNearHorizonSchedules) {
  // Everything initially lands inside the 512-tick (~524 ms) wheel window.
  RunDifferential(/*seed=*/1, /*initial_events=*/400,
                  /*horizon_us=*/400'000, Duration::Millis(50));
}

TEST(TimerWheelDifferential, FarFutureOverflowSchedules) {
  // Most initial events sit beyond the wheel horizon and must migrate out
  // of the overflow heap as the window slides.
  RunDifferential(/*seed=*/2, /*initial_events=*/300,
                  /*horizon_us=*/3'000'000, Duration::Millis(250));
}

TEST(TimerWheelDifferential, CoarseChunksCrossManyBuckets) {
  // One giant RunUntil spanning the entire schedule: the cursor must sweep
  // every bucket round without a boundary ever parking it.
  RunDifferential(/*seed=*/3, /*initial_events=*/200,
                  /*horizon_us=*/1'500'000, Duration::Seconds(10));
}

TEST(TimerWheelDifferential, SameTimestampBurstsKeepFifoOrder) {
  EventLoop loop;
  std::vector<int> order;
  const Timestamp at = Timestamp::Zero() + Duration::Millis(5);
  for (int i = 0; i < 64; ++i) {
    loop.ScheduleAt(at, [&order, i] { order.push_back(i); });
  }
  // A second burst at the same instant, scheduled from inside a callback
  // that runs first (scheduled earlier): lands in the cursor heap while the
  // tick is already open.
  loop.ScheduleAt(Timestamp::Zero() + Duration::Millis(4), [&] {
    for (int i = 64; i < 96; ++i) {
      loop.ScheduleAt(at, [&order, i] { order.push_back(i); });
    }
  });
  loop.RunAll();
  ASSERT_EQ(order.size(), 96u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(TimerWheelDifferential, ScheduleInsideCallbackAcrossHorizon) {
  // A chain that repeatedly hops past the wheel window forces overflow
  // migration while the cursor is mid-dispatch.
  EventLoop loop;
  std::vector<Timestamp> fired;
  std::function<void(int)> hop = [&](int remaining) {
    fired.push_back(loop.now());
    if (remaining > 0) {
      loop.ScheduleIn(Duration::Millis(600),
                      [&hop, remaining] { hop(remaining - 1); });
    }
  };
  loop.ScheduleIn(Duration::Millis(1), [&hop] { hop(10); });
  loop.RunAll();
  ASSERT_EQ(fired.size(), 11u);
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i] - fired[i - 1], Duration::Millis(600));
  }
}

// ---- Repeating timers: cohorts against per-timer re-arming ----
//
// The reference gives every repeating timer its own heap entry that re-arms
// after each tick with a fresh seq, the way a self-rescheduling task would;
// the EventLoop runs the same timers as cohorts. A random script of ticks
// and one-shots, acting on both from inside their callbacks, must produce
// the same dispatch sequence.

enum class Fired { kEvent, kTick };

struct Dispatch {
  Timestamp at;
  Fired kind;
  int id;
  bool operator==(const Dispatch& o) const {
    return at == o.at && kind == o.kind && id == o.id;
  }
};

constexpr int kTimers = 12;

class RearmHeap {
 public:
  using Visit = std::function<void(Fired, int)>;
  explicit RearmHeap(Visit visit) : visit_(std::move(visit)) {}

  Timestamp now() const { return now_; }
  void At(Timestamp at, int id) {
    heap_.push(Entry{std::max(at, now_), next_seq_++, Fired::kEvent, id, 0});
  }
  void Start(int id, Duration period) {
    Timer& t = timers_[id];
    ++t.generation;
    t = Timer{period, t.generation, true, false};
    heap_.push(Entry{now_ + period, next_seq_++, Fired::kTick, id,
                     t.generation});
  }
  void Cancel(int id) {
    timers_[id].live = false;
    ++timers_[id].generation;
  }
  void SetIdle(int id, bool idle) {
    if (timers_[id].live) timers_[id].idle = idle;
  }
  bool Live(int id) const { return timers_[id].live; }
  // Heap entries dispatched, idle and cancelled ticks included.
  int64_t popped() const { return popped_; }

  void RunUntil(Timestamp end) {
    while (!heap_.empty() && heap_.top().at <= end) {
      const Entry e = heap_.top();
      heap_.pop();
      ++popped_;
      now_ = e.at;
      if (e.kind == Fired::kEvent) {
        visit_(Fired::kEvent, e.id);
        continue;
      }
      if (timers_[e.id].generation != e.generation) continue;  // cancelled
      if (!timers_[e.id].idle) visit_(Fired::kTick, e.id);
      const Timer& t = timers_[e.id];
      if (t.generation != e.generation) continue;  // cancelled in the tick
      heap_.push(Entry{now_ + t.period, next_seq_++, Fired::kTick, e.id,
                       e.generation});
    }
    if (now_ < end) now_ = end;
  }

 private:
  struct Timer {
    Duration period = Duration::Zero();
    uint32_t generation = 0;
    bool live = false;
    bool idle = false;
  };
  struct Entry {
    Timestamp at;
    int64_t seq;
    Fired kind;
    int id;
    uint32_t generation;
    bool operator>(const Entry& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  Visit visit_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  Timer timers_[kTimers];
  Timestamp now_ = Timestamp::Zero();
  int64_t next_seq_ = 0;
  int64_t popped_ = 0;
};

// The same interface over an EventLoop and RepeatingTasks.
class CohortLoop {
 public:
  using Visit = std::function<void(Fired, int)>;
  explicit CohortLoop(Visit visit) : visit_(std::move(visit)) {}

  Timestamp now() const { return loop_.now(); }
  void At(Timestamp at, int id) {
    loop_.ScheduleAt(at, [this, id] { visit_(Fired::kEvent, id); });
  }
  void Start(int id, Duration period) {
    timers_[id] = std::make_unique<RepeatingTask>(
        &loop_, period, [this, id] { visit_(Fired::kTick, id); });
  }
  void Cancel(int id) { timers_[id].reset(); }
  void SetIdle(int id, bool idle) {
    if (timers_[id]) timers_[id]->SetIdle(idle);
  }
  bool Live(int id) const { return timers_[id] != nullptr; }
  void RunUntil(Timestamp end) { loop_.RunUntil(end); }
  const EventLoop& loop() const { return loop_; }

 private:
  EventLoop loop_;
  Visit visit_;
  std::unique_ptr<RepeatingTask> timers_[kTimers];
};

// 5-, 33- and 50-ms grids, plus a period beyond the wheel horizon so a
// cohort also re-enters the loop through the overflow heap.
Duration PickPeriod(Random& rng) {
  switch (rng.UniformInt(0, 6)) {
    case 0:
    case 1:
    case 2: return Duration::Millis(5);
    case 3:
    case 4: return Duration::Millis(33);
    case 5: return Duration::Millis(50);
    default: return Duration::Millis(700);
  }
}

// One model under the script: every dispatch is logged, then draws its
// action from the model's own generator. Both models draw in dispatch
// order, so they take the same actions for as long as their orders agree.
template <typename Model>
struct Scripted {
  explicit Scripted(uint64_t seed)
      : rng(seed),
        model([this](Fired kind, int id) { OnDispatch(kind, id); }) {}

  void OnDispatch(Fired kind, int id) {
    log.push_back(Dispatch{model.now(), kind, id});
    const int64_t action = rng.UniformInt(0, 99);
    const Duration period = PickPeriod(rng);
    const int timer = static_cast<int>(rng.UniformInt(0, kTimers - 1));
    if (action < 14) {
      // Zero delay: from a tick, lands behind the grid point's members.
      model.At(model.now(), next_event++);
    } else if (action < 30) {
      // Exactly one period ahead: ties with the next round of every timer
      // of that period firing now.
      model.At(model.now() + period, next_event++);
    } else if (action < 36) {
      model.At(model.now() + Duration::Micros(rng.UniformInt(0, 60'000)),
               next_event++);
    } else if (action < 44) {
      if (!model.Live(timer)) model.Start(timer, period);
    } else if (action < 52) {
      if (model.Live(timer)) model.Cancel(timer);
    } else if (action < 64) {
      model.SetIdle(timer, rng.UniformInt(0, 2) == 0);
    }
  }

  Random rng;
  Model model;
  std::vector<Dispatch> log;
  int next_event = 1'000'000;
};

// Drives both models through one script: timers started at t = 0 on shared
// phases, one-shots on their grid points (and off them), then RunUntil
// boundaries at `boundaries`, comparing the dispatch logs at each.
void RunRepeatingDifferential(uint64_t seed,
                              const std::vector<Timestamp>& boundaries) {
  Scripted<RearmHeap> heap(seed);
  Scripted<CohortLoop> cohorts(seed);
  Random setup(seed ^ 0x5eedULL);
  struct Step {
    bool timer;
    int id;
    Duration period;
    Timestamp at;
  };
  std::vector<Step> steps;
  for (int id = 0; id < kTimers / 2; ++id) {
    steps.push_back({true, id, PickPeriod(setup), Timestamp::Zero()});
  }
  for (int i = 0; i < 60; ++i) {
    const Duration grid = PickPeriod(setup);
    Timestamp at = Timestamp::Zero() + grid * setup.UniformInt(0, 40);
    if (setup.UniformInt(0, 3) == 0) {
      at = at + Duration::Micros(setup.UniformInt(1, 4'999));
    }
    steps.push_back({false, i, Duration::Zero(), at});
  }
  for (const Step& step : steps) {
    if (step.timer) {
      heap.model.Start(step.id, step.period);
      cohorts.model.Start(step.id, step.period);
    } else {
      heap.model.At(step.at, step.id);
      cohorts.model.At(step.at, step.id);
    }
  }
  for (const Timestamp end : boundaries) {
    heap.model.RunUntil(end);
    cohorts.model.RunUntil(end);
    ASSERT_EQ(cohorts.model.now(), heap.model.now());
    ASSERT_EQ(cohorts.log.size(), heap.log.size())
        << "seed " << seed << ": diverged by " << end.us() << "us";
  }
  for (size_t i = 0; i < heap.log.size(); ++i) {
    ASSERT_TRUE(cohorts.log[i] == heap.log[i])
        << "seed " << seed << ", dispatch " << i << ": cohort ("
        << cohorts.log[i].at.us() << "us, " << cohorts.log[i].id
        << ") vs reference (" << heap.log[i].at.us() << "us, "
        << heap.log[i].id << ")";
  }
  // Cohorts batch co-phased ticks into fewer loop dispatches.
  EXPECT_LT(cohorts.model.loop().executed_events(), heap.model.popped());
}

TEST(RepeatingCohortDifferential, BoundariesOnGridPoints) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed * 7919);
    std::vector<Timestamp> boundaries;
    Timestamp t = Timestamp::Zero();
    while (t < Timestamp::Seconds(3.0)) {
      t = t + Duration::Millis(5) * rng.UniformInt(1, 20);
      boundaries.push_back(t);
    }
    RunRepeatingDifferential(seed, boundaries);
    if (HasFatalFailure()) return;
  }
}

TEST(RepeatingCohortDifferential, BoundariesOffTheGrid) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    Random rng(seed);
    std::vector<Timestamp> boundaries;
    Timestamp t = Timestamp::Zero();
    while (t < Timestamp::Seconds(3.0)) {
      t = t + Duration::Micros(rng.UniformInt(1, 12'000));
      boundaries.push_back(t);
    }
    RunRepeatingDifferential(seed, boundaries);
    if (HasFatalFailure()) return;
  }
}

TEST(RepeatingCohortDifferential, OneLongRun) {
  for (uint64_t seed = 200; seed < 206; ++seed) {
    RunRepeatingDifferential(seed, {Timestamp::Seconds(4.0)});
    if (HasFatalFailure()) return;
  }
}

TEST(RepeatingCohort, CoPhasedTimersShareOneLoopEntry) {
  EventLoop loop;
  int ticks = 0;
  std::vector<std::unique_ptr<RepeatingTask>> timers;
  for (int i = 0; i < 60; ++i) {
    timers.push_back(std::make_unique<RepeatingTask>(
        &loop, Duration::Millis(5), [&ticks] { ++ticks; }));
  }
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunUntil(Timestamp::Millis(100));
  EXPECT_EQ(ticks, 60 * 20);
  EXPECT_EQ(loop.executed_events(), 20);
  EXPECT_EQ(loop.pending_events(), 1u);
}

TEST(RepeatingCohort, IdleTimerKeepsItsGridAndSkipsItsTick) {
  EventLoop loop;
  std::vector<Timestamp> fired;
  RepeatingTask task(&loop, Duration::Millis(5),
                     [&] { fired.push_back(loop.now()); });
  loop.RunUntil(Timestamp::Millis(7));
  task.SetIdle(true);
  loop.RunUntil(Timestamp::Millis(23));
  task.SetIdle(false);
  loop.RunUntil(Timestamp::Millis(30));
  EXPECT_EQ(fired, (std::vector<Timestamp>{Timestamp::Millis(5),
                                           Timestamp::Millis(25),
                                           Timestamp::Millis(30)}));
}

TEST(TimerWheelPastClamp, CountsAndClampsScheduleInThePast) {
  EventLoop loop;
  int ran_at_now = 0;
  loop.ScheduleIn(Duration::Millis(10), [&] {
    // From t=10ms, schedule for t=5ms: must clamp to now and count.
    loop.ScheduleAt(Timestamp::Zero() + Duration::Millis(5), [&] {
      ran_at_now = loop.now().us() == 10'000 ? 1 : -1;
    });
  });
  EXPECT_EQ(loop.clamped_past_events(), 0);
  loop.RunAll();
  EXPECT_EQ(ran_at_now, 1);
  EXPECT_EQ(loop.clamped_past_events(), 1);
}

TEST(TimerWheelPastClamp, InvariantFiresWhenEnabled) {
  ScopedInvariants scoped;
  EventLoop loop;
  loop.ScheduleIn(Duration::Millis(10),
                  [&] { loop.ScheduleAt(Timestamp::Zero(), [] {}); });
  loop.RunAll();
  EXPECT_EQ(loop.clamped_past_events(), 1);
  const auto violations = InvariantRegistry::Snapshot();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].component, "EventLoop");
}

TEST(TimerWheelPastClamp, NoFalsePositivesOnNormalSchedules) {
  ScopedInvariants scoped;
  EventLoop loop;
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    loop.ScheduleIn(Duration::Micros(i * 100), [&] { ++fired; });
  }
  loop.RunAll();
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(loop.clamped_past_events(), 0);
  EXPECT_EQ(InvariantRegistry::violation_count(), 0);
}

}  // namespace
}  // namespace converge
