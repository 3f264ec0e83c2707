// Discrete-event simulation core.
//
// Single-threaded, deterministic: events at the same timestamp run in the
// order they were scheduled (stable tie-break by insertion sequence). All
// Converge components take an `EventLoop*` and never read wall-clock time.
//
// Steady-state scheduling is allocation-free: callbacks are stored in a
// small-buffer-optimized InlineFunction (big enough for an in-flight
// RtpPacket capture) inside a recycled slot array, and every pending entry
// sits in one binary min-heap on the exact (timestamp, seq) key. Each
// conference owns its loop, so the heap holds one call's pending set: on
// perfbench seed 1000 a mean of 326 entries at insert (max 1,218) on
// hub-fleet and 55 (max 154) on paper-driving.
//
// Repeating timers of one period tick as a cohort: the cohort keeps its
// members' pending firings in a FIFO and holds a single loop entry, keyed by
// its front firing, so the co-phased 5-ms ticks of a whole conference cost
// one heap insert and one dispatch per grid point instead of one each (see
// StartRepeating).
//
// The dispatch order is bit-for-bit identical to a single global min-heap on
// (timestamp, seq) in which every repeating timer re-arms itself with a fresh
// seq after each tick — pinned by the differential tests against a reference
// heap and the seed-era call fixtures.
#pragma once

#include <cstdint>
#include <vector>

#include "util/inline_function.h"
#include "util/ring_buffer.h"
#include "util/time.h"

namespace converge {

class EventLoop {
 public:
  // The smallest size at which every hot-path capture stays inline: a
  // link-delivery continuation (Link::kDeliverInlineBytes, derived from this)
  // carrying a 64-byte RtpPacket or a 72-byte RtcpPacket plus its routing
  // context. The RTCP hops are the limit; the WireHop static_asserts in
  // session/conference.cc pin it. Oversized captures still work; they fall
  // back to the heap inside InlineFunction, which counts them
  // (InlineFunctionHeapFallbacks).
  static constexpr size_t kCallbackInlineBytes = 144;
  using Callback = InlineFunction<void(), kCallbackInlineBytes>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Timestamp now() const { return now_; }

  // Schedule `cb` to run at absolute time `at` (clamped to now; the clamp is
  // counted — see clamped_past_events()). Takes the callback by rvalue
  // reference so a packet-carrying capture is moved exactly once — from the
  // call site straight into its recycled slot — instead of hopping through
  // every by-value parameter on the way.
  void ScheduleAt(Timestamp at, Callback&& cb);
  // Schedule `cb` to run `delay` from now.
  void ScheduleIn(Duration delay, Callback&& cb);

  // Run until the queue drains or `end` is reached (events at exactly `end`
  // still execute).
  void RunUntil(Timestamp end);
  // Run until the queue drains entirely.
  void RunAll();

  // Loop entries, not ticks: a cohort's members wait behind its single
  // entry, and one cohort dispatch runs every member due before the loop's
  // next entry.
  size_t pending_events() const { return heap_.size(); }
  int64_t executed_events() const { return executed_; }
  // Number of ScheduleAt calls whose timestamp was already in the past and
  // got clamped to now. Scheduling in the past is almost always a component
  // bug (a stale timer or a miscomputed deadline) that the clamp would
  // otherwise mask; the counter makes it observable, and with the invariant
  // harness enabled each clamp also reports through CONVERGE_INVARIANT.
  int64_t clamped_past_events() const { return clamped_past_; }

  // First-class repeating timers (the machinery under RepeatingTask).
  // StartRepeating arms `tick` every `period`; the returned handle cancels
  // via CancelRepeating. Slot-generation based: the tick is stored once in a
  // recycled slot and cancellation bumps the slot's generation, so a pending
  // firing of a cancelled timer becomes a no-op — no allocation, no
  // shared_ptr liveness flag, no dangling `this`.
  //
  // Each firing is a (due, seq) key that takes next_seq_++ exactly where a
  // self-rescheduling timer would call ScheduleIn: at the start, and after
  // each tick returns, for due = now + period. Every timer of one period
  // joins that period's cohort, whose FIFO of firings is therefore sorted by
  // (due, seq). The cohort's one loop entry carries its front firing's key;
  // its dispatcher runs firings in FIFO order for as long as the next one
  // sorts before the loop's next entry, then re-enters the loop keyed by
  // the next firing. The (at, seq) order of every tick and event is thus
  // the per-timer heap's, by construction.
  uint64_t StartRepeating(Duration period, Callback tick);
  void CancelRepeating(uint64_t handle);
  // An idle timer keeps its place and still takes its seq every period,
  // but its tick is not called until it is set busy again.
  void SetRepeatingIdle(uint64_t handle, bool idle);

 private:
  struct Entry {
    Timestamp at;
    int64_t seq;
    uint32_t slot;
  };
  // Min-heap on (at, seq) expressed as std::*_heap's max-heap of "later".
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  struct RepeatingSlot {
    Callback tick;
    uint32_t generation = 0;
    // TraceRecorder participant tag when the timer started; restored around
    // each tick while a recorder is installed.
    int32_t participant = -1;
    bool idle = false;
  };
  // One pending firing of a cohort member: the loop key it would carry as
  // its own entry.
  struct Firing {
    Timestamp due;
    int64_t seq;
    uint32_t slot;
    uint32_t generation;
  };
  struct Cohort {
    Duration period;
    RingQueue<Firing> firings;  // (due, seq) order
    // A loop entry keyed by the front firing is pending, or the dispatcher
    // is running and will re-enter the loop itself.
    bool armed = false;
  };

  uint32_t AcquireSlot(Callback&& cb);
  void Insert(Entry entry);
  void ArmCohort(uint32_t cohort);
  void RunCohort(uint32_t cohort);

  Timestamp now_ = Timestamp::Zero();
  int64_t next_seq_ = 0;
  int64_t executed_ = 0;
  int64_t clamped_past_ = 0;
  bool tag_participants_ = false;  // a recorder was installed at RunUntil

  std::vector<Entry> heap_;  // every pending entry, heap (Later)

  // Recycled callback slots. `slot_participant_` is conference participant
  // attribution: each event remembers the TraceRecorder participant tag
  // active when it was scheduled, and dispatch restores it (only while a
  // recorder is installed), so self-rescheduling component tasks — pacer
  // drains, RTCP timers — inherit their owner's tag transitively without
  // any component knowing about participants.
  std::vector<Callback> slots_;
  std::vector<int32_t> slot_participant_;
  std::vector<uint32_t> free_slots_;

  // Repeating-timer table (slot-generation cancellation) and one cohort per
  // distinct period, found by a linear scan at StartRepeating (a call arms a
  // handful of periods).
  std::vector<RepeatingSlot> repeating_;
  std::vector<uint32_t> repeating_free_;
  std::vector<Cohort> cohorts_;
};

// Repeating timer helper: invokes `tick` every `period` until cancelled or
// the owning loop stops running. Cancel by destroying the handle; calling
// Stop() from inside the tick itself is safe — the task will not fire again.
// Thin RAII wrapper over EventLoop::StartRepeating/CancelRepeating: the tick
// lives in the loop's recycled repeating-slot table as an InlineFunction and
// its firings queue in the period's cohort, so arming and firing are
// allocation-free once the cohort's FIFO has grown. SetIdle(true) skips the
// tick (the timer keeps its grid and its place) until SetIdle(false).
class RepeatingTask {
 public:
  RepeatingTask(EventLoop* loop, Duration period, EventLoop::Callback tick)
      : loop_(loop), handle_(loop->StartRepeating(period, std::move(tick))) {}
  ~RepeatingTask() { Stop(); }
  RepeatingTask(const RepeatingTask&) = delete;
  RepeatingTask& operator=(const RepeatingTask&) = delete;

  void Stop() {
    if (!stopped_) {
      stopped_ = true;
      loop_->CancelRepeating(handle_);
    }
  }

  void SetIdle(bool idle) { loop_->SetRepeatingIdle(handle_, idle); }

 private:
  EventLoop* loop_;
  uint64_t handle_;
  bool stopped_ = false;
};

}  // namespace converge
