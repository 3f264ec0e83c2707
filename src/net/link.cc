#include "net/link.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace converge {
namespace {
// Floor on the instantaneous service rate: an outage makes transmission very
// slow (forcing queue drops) rather than dividing by zero.
constexpr int64_t kMinServiceBps = 10'000;
}  // namespace

Link::Link(EventLoop* loop, Config config, Random rng)
    : loop_(loop), config_(std::move(config)), rng_(rng) {}

int64_t Link::QueueLimitBytes() const {
  const int64_t delay_based =
      CapacityNow().BytesIn(config_.max_queue_delay);
  return std::max(config_.min_queue_bytes, delay_based);
}

void Link::Send(int64_t bytes, DeliverFn&& on_deliver, DropFn on_drop) {
  Enqueue(bytes, std::move(on_deliver), std::move(on_drop), Duration::Zero(),
          /*recheck=*/false);
}

void Link::Enqueue(int64_t bytes, DeliverFn&& on_deliver, DropFn on_drop,
                   Duration extra_delay, bool recheck) {
  ++stats_.packets_sent;
  if (queued_bytes_ + bytes > QueueLimitBytes()) {
    ++stats_.packets_queue_dropped;
    if (on_drop) on_drop(/*queue_drop=*/true);
    return;
  }
  const uint32_t recheck_slot =
      recheck ? recheck_slots_.Put(Recheck{extra_delay, bytes, nullptr})
              : kNoRecheck;
  queue_.push_back(Pending{bytes, deliver_slots_.Put(std::move(on_deliver)),
                           recheck_slot, std::move(on_drop)});
  queued_bytes_ += bytes;
  if (!busy_) StartTransmission();
}

void Link::StartTransmission() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  // The packet in service stays at the queue head until its service time
  // elapses, so the completion event captures only `this` — no callback or
  // packet state is dragged through the event loop per transmission.
  const int64_t rate_bps =
      std::max<int64_t>(kMinServiceBps, CapacityNow().bps());
  const Duration tx =
      DataRate::BitsPerSec(rate_bps).TransmitTime(queue_.front().bytes);
  loop_->ScheduleIn(tx, [this] { FinishTransmission(); });
}

void Link::FinishTransmission() {
  // Work on the head slot in place; pop_front (which resets the slot and
  // destroys whatever we did not move out) runs before rescheduling.
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
    const Timestamp arrival = loop_->now() + PropDelayNow();
    // A re-decided packet may still be dropped at arrival, so its drop
    // callback travels with it.
    if (pkt.recheck != kNoRecheck) {
      recheck_slots_[pkt.recheck].on_drop = std::move(pkt.on_drop);
    }
    const Arrival entry{arrival, inflight_seq_++, pkt.deliver, pkt.recheck};
    queue_.pop_front();
    inflight_.push_back(entry);
    std::push_heap(inflight_.begin(), inflight_.end(), std::greater<>{});
    loop_->ScheduleAt(arrival, [this] { DeliverNext(); });
  }
  StartTransmission();
}

void Link::DeliverNext() {
  std::pop_heap(inflight_.begin(), inflight_.end(), std::greater<>{});
  const Arrival arrival = inflight_.back();
  inflight_.pop_back();
  if (arrival.recheck == kNoRecheck) {
    DeliverFromSlot(arrival.slot, arrival.at);
    return;
  }
  Recheck recheck = recheck_slots_.Take(arrival.recheck);
  const ArrivalVerdict verdict = OnArrival(arrival.at + recheck.extra_delay);
  if (verdict.drop) {
    deliver_slots_.Take(arrival.slot);
    --stats_.packets_delivered;
    stats_.bytes_delivered -= recheck.bytes;
    ++stats_.packets_lost;
    if (recheck.on_drop) recheck.on_drop(/*queue_drop=*/false);
  } else if (verdict.deliver_at > arrival.at) {
    loop_->ScheduleAt(verdict.deliver_at,
                      [this, slot = arrival.slot, at = verdict.deliver_at] {
                        DeliverFromSlot(slot, at);
                      });
  } else {
    DeliverFromSlot(arrival.slot, arrival.at);
  }
}

void Link::DeliverFromSlot(uint32_t slot, Timestamp at) {
  deliver_slots_.Take(slot)(at);
}

}  // namespace converge
