#include "sim/event_loop.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/invariants.h"
#include "util/trace_recorder.h"

namespace converge {

uint32_t EventLoop::AcquireSlot(Callback&& cb, int32_t participant) {
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

void EventLoop::Insert(const Entry& entry) {
  if (root_spent_) {
    root_spent_ = false;
    SiftDown(entry);
    return;
  }
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventLoop::SiftDown(const Entry& entry) {
  const size_t n = heap_.size();
  size_t hole = 0;
  for (size_t child = 1; child < n; child = 2 * hole + 1) {
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], entry)) break;
    heap_[hole] = heap_[child];
    hole = child;
  }
  heap_[hole] = entry;
}

void EventLoop::PopRoot() {
  root_spent_ = false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

const EventLoop::Entry* EventLoop::FirstOther() const {
  if (!root_spent_) return heap_.empty() ? nullptr : &heap_[0];
  if (heap_.size() < 2) return nullptr;
  if (heap_.size() == 2 || Before(heap_[1], heap_[2])) return &heap_[1];
  return &heap_[2];
}

EventLoop::Key EventLoop::TakeKey(Timestamp at) {
  if (at < now_) {
    ++clamped_past_;
    CONVERGE_INVARIANT("EventLoop", now_, at >= now_,
                       "schedule-in-the-past clamped: at=" + at.ToString() +
                           " now=" + now_.ToString());
    at = now_;
  }
  return Key{at, next_seq_++, TraceRecorder::CurrentParticipant()};
}

void EventLoop::ScheduleAt(Timestamp at, Callback&& cb) {
  const Key key = TakeKey(at);
  Insert(Entry{key.at, key.seq, AcquireSlot(std::move(cb), key.participant),
               0});
}

void EventLoop::ScheduleIn(Duration delay, Callback&& cb) {
  ScheduleAt(now_ + delay, std::move(cb));
}

uint32_t EventLoop::AddTarget(Target* target) {
  targets_.push_back(target);
  return static_cast<uint32_t>(targets_.size() - 1);
}

void EventLoop::RunUntil(Timestamp end) {
  // Restoring the scheduling-time participant tag only matters when a trace
  // recorder is installed; skip the TLS store entirely otherwise so untraced
  // dispatch stays a plain pop + call.
  const bool tag_participants = TraceRecorder::Current() != nullptr;
  tag_participants_ = tag_participants;
  while (!heap_.empty() && heap_.front().at <= end) {
    const Entry entry = heap_.front();
    root_spent_ = true;
    now_ = entry.at;
    ++executed_;
    if (entry.slot == kCohortSlot) {
      RunCohort(entry.arg);
    } else if (entry.slot & kTargetBit) {
      targets_[entry.slot & ~kTargetBit]->OnLoopEntry(entry.arg);
    } else {
      // Move the callback out before running it: the callback may schedule
      // more events, which can reuse the slot.
      Callback cb = std::move(slots_[entry.slot]);
      slots_[entry.slot] = nullptr;
      free_slots_.push_back(entry.slot);
      if (tag_participants) {
        TraceRecorder::SetCurrentParticipant(slot_participant_[entry.slot]);
      }
      cb();
    }
    if (root_spent_) PopRoot();
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
  Insert(Entry{front.due, front.seq, kCohortSlot, cohort});
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
    // loop. The cohort's own spent entry may still be the heap's root, so
    // the comparison is with the first entry besides it.
    const Firing& next = c.firings.front();
    const Entry* other = FirstOther();
    const bool next_is_first =
        next.due == now_ &&
        (other == nullptr || Before(Entry{next.due, next.seq, 0, 0}, *other));
    if (!next_is_first) {
      ArmCohort(cohort);
      return;
    }
  }
}

}  // namespace converge
