#include "net/link.h"

#include <algorithm>
#include <utility>

namespace converge {
namespace {
// Floor on the instantaneous service rate: an outage makes transmission very
// slow (forcing queue drops) rather than dividing by zero.
constexpr int64_t kMinServiceBps = 10'000;
}  // namespace

Link::Link(EventLoop* loop, Config config, Random rng)
    : loop_(loop),
      config_(std::move(config)),
      rng_(rng),
      target_(loop->AddTarget(this)) {}

int64_t Link::QueueLimitBytes(DataRate capacity) const {
  const int64_t delay_based = capacity.BytesIn(config_.max_queue_delay);
  return std::max(config_.min_queue_bytes, delay_based);
}

void Link::Send(int64_t bytes, DeliverFn&& on_deliver, DropFn on_drop) {
  Enqueue(bytes, std::move(on_deliver), std::move(on_drop), Duration::Zero(),
          /*recheck=*/false);
}

void Link::Enqueue(int64_t bytes, DeliverFn&& on_deliver, DropFn on_drop,
                   Duration extra_delay, bool recheck) {
  ++stats_.packets_sent;
  const DataRate capacity = CapacityNow();
  if (queued_bytes_ + bytes > QueueLimitBytes(capacity)) {
    ++stats_.packets_queue_dropped;
    if (on_drop) on_drop(/*queue_drop=*/true);
    return;
  }
  const uint32_t recheck_slot =
      recheck ? recheck_slots_.Put(extra_delay, bytes, nullptr) : kNoRecheck;
  queue_.push_back(Pending{bytes, deliver_slots_.Put(std::move(on_deliver)),
                           recheck_slot, std::move(on_drop)});
  queued_bytes_ += bytes;
  if (!busy_) StartTransmission(capacity);
}

void Link::StartTransmission(DataRate capacity) {
  busy_ = true;
  // The packet in service stays at the queue head until its service time
  // elapses; the link's finish entry names only the link.
  const int64_t rate_bps = std::max<int64_t>(kMinServiceBps, capacity.bps());
  const Duration tx =
      DataRate::BitsPerSec(rate_bps).TransmitTime(queue_.front().bytes);
  finish_ = loop_->TakeKey(loop_->now() + tx);
  loop_->Arm(finish_, target_, kFinishEntry);
}

void Link::OnLoopEntry(uint32_t arg) {
  if (arg == kFinishEntry) {
    loop_->RestoreParticipant(finish_.participant);
    FinishTransmission();
    return;
  }
  Arrival arrival;
  if (arg == kArrivalEntry) {
    arrival = arrivals_.front();
    arrivals_.pop_front();
    if (!arrivals_.empty()) {
      loop_->Arm(arrivals_.front().key, target_, kArrivalEntry);
    }
  } else {
    arrival = detached_.Take(arg - kDetachedEntry);
  }
  loop_->RestoreParticipant(arrival.key.participant);
  Arrive(arrival.parcel);
}

void Link::FinishTransmission() {
  // Work on the head slot in place; pop_front (which resets the slot and
  // destroys whatever we did not move out) runs before the next
  // transmission starts.
  Pending& pkt = queue_.front();
  queued_bytes_ -= pkt.bytes;
  const bool lost =
      config_.loss != nullptr && config_.loss->ShouldDrop(loop_->now(), rng_);
  if (lost) {
    ++stats_.packets_lost;
    DropFn on_drop = std::move(pkt.on_drop);
    deliver_slots_.Take(pkt.deliver);
    if (pkt.recheck != kNoRecheck) recheck_slots_.Take(pkt.recheck);
    queue_.pop_front();
    if (on_drop) on_drop(/*queue_drop=*/false);
  } else {
    ++stats_.packets_delivered;
    stats_.bytes_delivered += pkt.bytes;
    // The arrival takes its seq before the next finish does.
    const EventLoop::Key key = loop_->TakeKey(loop_->now() + PropDelayNow());
    // A re-decided packet may still be dropped at arrival, so its drop
    // callback travels with it.
    if (pkt.recheck != kNoRecheck) {
      recheck_slots_[pkt.recheck].on_drop = std::move(pkt.on_drop);
    }
    const Parcel parcel{pkt.deliver, pkt.recheck};
    queue_.pop_front();
    Launch(key, parcel);
  }
  if (queue_.empty()) {
    busy_ = false;
  } else {
    StartTransmission(CapacityNow());
  }
}

void Link::Launch(const EventLoop::Key& key, Parcel parcel) {
  if (arrivals_.empty()) {
    arrivals_.push_back(Arrival{key, parcel});
    loop_->Arm(key, target_, kArrivalEntry);
  } else if (key.at < arrivals_.back().key.at) {
    // Its seq is the newest, so it sorts before the back only by time.
    loop_->Arm(key, target_, kDetachedEntry + detached_.Put(key, parcel));
  } else {
    arrivals_.push_back(Arrival{key, parcel});
  }
}

void Link::Arrive(Parcel parcel) {
  if (parcel.recheck == kNoRecheck) {
    Deliver(parcel.deliver);
    return;
  }
  const Timestamp now = loop_->now();
  Recheck recheck = recheck_slots_.Take(parcel.recheck);
  const ArrivalVerdict verdict = OnArrival(now + recheck.extra_delay);
  if (verdict.drop) {
    deliver_slots_.Take(parcel.deliver);
    --stats_.packets_delivered;
    stats_.bytes_delivered -= recheck.bytes;
    ++stats_.packets_lost;
    if (recheck.on_drop) recheck.on_drop(/*queue_drop=*/false);
  } else if (verdict.deliver_at > now) {
    Launch(loop_->TakeKey(verdict.deliver_at),
           Parcel{parcel.deliver, kNoRecheck});
  } else {
    Deliver(parcel.deliver);
  }
}

void Link::Deliver(uint32_t slot) { deliver_slots_.Take(slot)(loop_->now()); }

}  // namespace converge
