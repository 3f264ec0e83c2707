#include "sim/event_loop.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/invariants.h"
#include "util/trace_recorder.h"

namespace converge {

uint32_t EventLoop::AcquireSlot(Callback&& cb) {
  const int32_t participant = TraceRecorder::CurrentParticipant();
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(cb);
    slot_participant_[slot] = participant;
    return slot;
  }
  slots_.push_back(std::move(cb));
  slot_participant_.push_back(participant);
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::Insert(Entry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
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

void EventLoop::RunUntil(Timestamp end) {
  // Restoring the scheduling-time participant tag only matters when a trace
  // recorder is installed; skip the TLS store entirely otherwise so untraced
  // dispatch stays a plain pop + call.
  const bool tag_participants = TraceRecorder::Current() != nullptr;
  tag_participants_ = tag_participants;
  while (!heap_.empty() && heap_.front().at <= end) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry entry = heap_.back();
    heap_.pop_back();
    // Move the callback out before running it: the callback may schedule
    // more events, which can reuse the slot.
    Callback cb = std::move(slots_[entry.slot]);
    slots_[entry.slot] = nullptr;
    free_slots_.push_back(entry.slot);
    now_ = entry.at;
    ++executed_;
    if (tag_participants) {
      TraceRecorder::SetCurrentParticipant(slot_participant_[entry.slot]);
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
    // The next firing runs inline exactly when it is due now and sorts
    // before every other pending entry; otherwise the cohort re-enters the
    // loop.
    const Firing& next = c.firings.front();
    const bool next_is_first =
        next.due == now_ &&
        (heap_.empty() ||
         Later{}(heap_.front(), Entry{next.due, next.seq, 0}));
    if (!next_is_first) {
      ArmCohort(cohort);
      return;
    }
  }
}

}  // namespace converge
