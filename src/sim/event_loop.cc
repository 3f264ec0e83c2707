#include "sim/event_loop.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/invariants.h"
#include "util/trace_recorder.h"

namespace converge {

EventLoop::EventLoop() : bucket_head_(kWheelTicks, -1) {}

uint32_t EventLoop::AcquireSlot(Callback&& cb) {
  const int32_t participant = TraceRecorder::CurrentParticipant();
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
    slot_meta_[slot].participant = participant;
    return slot;
  }
  slots_.push_back(std::move(cb));
  slot_meta_.push_back(SlotMeta{Timestamp::Zero(), 0, -1, participant});
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::Insert(Entry entry) {
  const int64_t tick = TickOf(entry.at);
  if (tick <= cursor_tick_) {
    // The open tick (or, after a RunUntil boundary left the cursor parked on
    // a future tick, an earlier one): the cursor heap's exact (at, seq)
    // order puts it in its rightful place among the already-expanded events.
    cursor_.push_back(entry);
    std::push_heap(cursor_.begin(), cursor_.end(), Later{});
  } else if (tick < cursor_tick_ + static_cast<int64_t>(kWheelTicks)) {
    // Within the wheel horizon: O(1) intrusive push onto the tick's bucket.
    // The window invariant guarantees one round per bucket, so draining
    // never has to filter entries by tick.
    const size_t b = static_cast<uint64_t>(tick) & kWheelMask;
    SlotMeta& meta = slot_meta_[entry.slot];
    meta.at = entry.at;
    meta.seq = entry.seq;
    meta.next = bucket_head_[b];
    bucket_head_[b] = static_cast<int32_t>(entry.slot);
    ++near_count_;
  } else {
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

void EventLoop::ScheduleAt(Timestamp at, Callback&& cb) {
  if (at < now_) {
    ++clamped_past_;
    CONVERGE_INVARIANT("EventLoop", now_, at >= now_,
                       "schedule-in-the-past clamped: at=" + at.ToString() +
                           " now=" + now_.ToString());
    at = now_;
  }
  const uint32_t slot = AcquireSlot(std::move(cb));
  Insert(Entry{at, next_seq_++, slot});
}

void EventLoop::ScheduleIn(Duration delay, Callback&& cb) {
  ScheduleAt(now_ + delay, std::move(cb));
}

void EventLoop::DumpBucket(int64_t tick) {
  const size_t b = static_cast<uint64_t>(tick) & kWheelMask;
  int32_t head = bucket_head_[b];
  bucket_head_[b] = -1;
  while (head != -1) {
    const SlotMeta& meta = slot_meta_[head];
    cursor_.push_back(Entry{meta.at, meta.seq, static_cast<uint32_t>(head)});
    std::push_heap(cursor_.begin(), cursor_.end(), Later{});
    head = meta.next;
    --near_count_;
  }
}

bool EventLoop::AdvanceCursor(Timestamp end) {
  const int64_t end_tick = TickOf(end);
  while (near_count_ > 0 || !overflow_.empty()) {
    int64_t next_tick;
    if (near_count_ > 0) {
      // Some bucket inside the window is populated; scan forward. Bounded by
      // kWheelTicks probes, each a 4-byte load.
      next_tick = cursor_tick_;
      do {
        ++next_tick;
      } while (bucket_head_[static_cast<uint64_t>(next_tick) & kWheelMask] ==
               -1);
    } else {
      // Wheel empty: jump straight to the earliest far event.
      next_tick = TickOf(overflow_.front().at);
    }
    if (next_tick > end_tick) return false;
    cursor_tick_ = next_tick;
    DumpBucket(next_tick);
    // The window slid forward: pull far events that are now inside it.
    const int64_t window_end =
        cursor_tick_ + static_cast<int64_t>(kWheelTicks);
    while (!overflow_.empty() && TickOf(overflow_.front().at) < window_end) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      Entry entry = overflow_.back();
      overflow_.pop_back();
      if (TickOf(entry.at) <= cursor_tick_) {
        cursor_.push_back(entry);
        std::push_heap(cursor_.begin(), cursor_.end(), Later{});
      } else {
        const size_t b = static_cast<uint64_t>(TickOf(entry.at)) & kWheelMask;
        SlotMeta& meta = slot_meta_[entry.slot];
        meta.at = entry.at;
        meta.seq = entry.seq;
        meta.next = bucket_head_[b];
        bucket_head_[b] = static_cast<int32_t>(entry.slot);
        ++near_count_;
      }
    }
    if (!cursor_.empty()) return true;
  }
  return false;
}

void EventLoop::RunUntil(Timestamp end) {
  // Restoring the scheduling-time participant tag only matters when a trace
  // recorder is installed; skip the TLS store entirely otherwise so untraced
  // dispatch stays a plain pop + call.
  const bool tag_participants = TraceRecorder::Current() != nullptr;
  tag_participants_ = tag_participants;
  for (;;) {
    if (cursor_.empty() && !AdvanceCursor(end)) break;
    if (cursor_.front().at > end) break;
    std::pop_heap(cursor_.begin(), cursor_.end(), Later{});
    const Entry entry = cursor_.back();
    cursor_.pop_back();
    // Move the callback out before running it: the callback may schedule
    // more events, which can reuse the slot.
    Callback cb = std::move(slots_[entry.slot]);
    slots_[entry.slot] = nullptr;
    free_slots_.push_back(entry.slot);
    now_ = entry.at;
    ++executed_;
    if (tag_participants) {
      TraceRecorder::SetCurrentParticipant(slot_meta_[entry.slot].participant);
    }
    cb();
  }
  if (tag_participants) TraceRecorder::SetCurrentParticipant(-1);
  if (end.IsFinite() && now_ < end) now_ = end;
}

void EventLoop::RunAll() { RunUntil(Timestamp::PlusInfinity()); }

uint64_t EventLoop::StartRepeating(Duration period, Callback tick) {
  uint32_t slot;
  if (!repeating_free_.empty()) {
    slot = repeating_free_.back();
    repeating_free_.pop_back();
  } else {
    slot = static_cast<uint32_t>(repeating_.size());
    repeating_.emplace_back();
  }
  RepeatingSlot& rs = repeating_[slot];
  rs.tick = std::move(tick);
  rs.participant = TraceRecorder::CurrentParticipant();
  rs.idle = false;
  uint32_t cohort = 0;
  while (cohort < cohorts_.size() && cohorts_[cohort].period != period) {
    ++cohort;
  }
  if (cohort == cohorts_.size()) {
    cohorts_.push_back(Cohort{period, {}, false});
  }
  Cohort& c = cohorts_[cohort];
  c.firings.push_back(Firing{now_ + period, next_seq_++, slot, rs.generation});
  if (!c.armed) ArmCohort(cohort);
  return (static_cast<uint64_t>(slot) << 32) | rs.generation;
}

void EventLoop::CancelRepeating(uint64_t handle) {
  const uint32_t slot = static_cast<uint32_t>(handle >> 32);
  const uint32_t generation = static_cast<uint32_t>(handle);
  if (slot >= repeating_.size()) return;
  RepeatingSlot& rs = repeating_[slot];
  if (rs.generation != generation) return;  // already cancelled / reused
  ++rs.generation;
  rs.tick = nullptr;
  repeating_free_.push_back(slot);
}

void EventLoop::SetRepeatingIdle(uint64_t handle, bool idle) {
  const uint32_t slot = static_cast<uint32_t>(handle >> 32);
  if (slot >= repeating_.size()) return;
  RepeatingSlot& rs = repeating_[slot];
  if (rs.generation == static_cast<uint32_t>(handle)) rs.idle = idle;
}

void EventLoop::ArmCohort(uint32_t cohort) {
  Cohort& c = cohorts_[cohort];
  c.armed = true;
  const Firing& front = c.firings.front();
  Insert(Entry{front.due, front.seq,
               AcquireSlot([this, cohort] { RunCohort(cohort); })});
}

void EventLoop::RunCohort(uint32_t cohort) {
  // The loop entry just dispatched carried the front firing's key, and
  // now_ is its due time. Appends (re-arms and timers started inside a
  // tick) go to the back with due = now_ + period and a fresh seq, so the
  // FIFO stays in (due, seq) order and the front never changes under us.
  for (;;) {
    const Firing firing = cohorts_[cohort].firings.front();
    cohorts_[cohort].firings.pop_front();
    RepeatingSlot& rs = repeating_[firing.slot];
    bool rearm = rs.generation == firing.generation;  // else cancelled
    if (rearm && !rs.idle) {
      if (tag_participants_) {
        TraceRecorder::SetCurrentParticipant(rs.participant);
      }
      // Move the tick out while it runs: the tick may cancel its own timer
      // (which frees and possibly re-populates the slot) without destroying
      // the callable mid-call.
      Callback tick = std::move(rs.tick);
      tick();
      RepeatingSlot& after = repeating_[firing.slot];
      rearm = after.generation == firing.generation;
      if (rearm) after.tick = std::move(tick);
    }
    Cohort& c = cohorts_[cohort];
    if (rearm) {
      c.firings.push_back(Firing{now_ + c.period, next_seq_++, firing.slot,
                                 firing.generation});
    }
    if (c.firings.empty()) {
      c.armed = false;
      return;
    }
    // Every loop entry at now_ sits in cursor_ (its tick is <= the open
    // tick), so the next firing runs inline exactly when it sorts before
    // the cursor's front; otherwise the cohort re-enters the loop.
    const Firing& next = c.firings.front();
    const bool next_is_first =
        next.due == now_ &&
        (cursor_.empty() ||
         Later{}(cursor_.front(), Entry{next.due, next.seq, 0}));
    if (!next_is_first) {
      ArmCohort(cohort);
      return;
    }
  }
}

}  // namespace converge
