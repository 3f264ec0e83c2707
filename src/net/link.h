// Directed bottleneck link: trace-driven service rate, DropTail byte queue,
// propagation delay, and a pluggable loss model at egress.
//
// The service model mirrors trace-driven emulators (mahimahi-style): a packet
// that reaches the head of the queue occupies the link for
// bytes / capacity(now); queued packets wait behind it. The queue is bounded
// either by a fixed byte budget or by `max_queue_delay` worth of bytes at the
// current capacity, whichever the config selects.
//
// The ingress (Send) and the instantaneous capacity / propagation delay are
// virtual so a decorator can inject faults without touching callers: see
// FaultyLink in net/fault_injector.h, which MakeLink() substitutes whenever
// the config carries a non-empty FaultPlan.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/fault_plan.h"
#include "net/loss_model.h"
#include "net/trace.h"
#include "sim/event_loop.h"
#include "util/inline_function.h"
#include "util/random.h"
#include "util/ring_buffer.h"

namespace converge {

class Link {
 public:
  struct Config {
    BandwidthTrace capacity;
    Duration prop_delay = Duration::Millis(20);
    // Optional time-varying propagation delay (µs values); overrides
    // prop_delay when non-empty. Models reroutes/handovers where a path's
    // base latency changes without any congestion signal.
    ValueTrace prop_delay_trace;
    // Queue bound: bytes admitted while the backlog (including the packet in
    // service) is below capacity(now) * max_queue_delay, floored at
    // `min_queue_bytes` so outages do not shrink the queue to nothing.
    Duration max_queue_delay = Duration::Millis(250);
    int64_t min_queue_bytes = 30'000;
    std::shared_ptr<LossModel> loss;  // null => lossless
    // Scripted fault events layered on top of the organic capacity/loss
    // model. The base Link ignores it; MakeLink() (net/fault_injector.h)
    // returns a FaultyLink when the plan is non-empty.
    FaultPlan faults;
  };

  struct Stats {
    int64_t packets_sent = 0;
    int64_t packets_delivered = 0;
    int64_t packets_lost = 0;        // random + fault-injected loss
    int64_t packets_queue_dropped = 0;
    int64_t bytes_delivered = 0;
  };

  // Small-buffer-optimized so a delivery continuation carrying a whole
  // RtpPacket stays allocation-free; follows EventLoop::kCallbackInlineBytes.
  static constexpr size_t kDeliverInlineBytes =
      EventLoop::kCallbackInlineBytes - 24;
  using DeliverFn = InlineFunction<void(Timestamp), kDeliverInlineBytes>;
  // A drop callback captures an owner pointer or two; every Pending and
  // Recheck record carries one.
  using DropFn = InlineFunction<void(bool), 16>;

  Link(EventLoop* loop, Config config, Random rng);
  virtual ~Link() = default;
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  // Enqueue `bytes` for transmission. Exactly one of the callbacks fires
  // per copy (see SendCopies for duplication faults).
  virtual void Send(int64_t bytes, DeliverFn&& on_deliver,
                    DropFn on_drop = nullptr);

  // How many copies of the next packet the caller should Send. Plain links
  // always answer 1; a FaultyLink inside a duplication window may answer 2.
  // Byte-level links cannot clone an in-flight payload themselves (the
  // delivery continuation owns it, move-only), so callers that can copy
  // their payload cheaply — the RTP transmit path — consult this to realize
  // duplication end-to-end. Draws RNG: call exactly once per packet.
  virtual int SendCopies() { return 1; }

  virtual DataRate CapacityNow() const {
    return config_.capacity.CapacityAt(loop_->now());
  }
  virtual Duration PropDelayNow() const {
    if (config_.prop_delay_trace.empty()) return config_.prop_delay;
    return Duration::Micros(
        static_cast<int64_t>(config_.prop_delay_trace.ValueAt(loop_->now())));
  }
  int64_t queued_bytes() const { return queued_bytes_; }
  const Stats& stats() const { return stats_; }
  double current_loss_rate() const {
    return config_.loss ? config_.loss->AverageRate(loop_->now()) : 0.0;
  }

 protected:
  EventLoop* loop() const { return loop_; }
  const Config& config() const { return config_; }

  // The fate of a packet that a subclass re-decides at arrival (see
  // Enqueue): dropped, or delivered at `deliver_at`.
  struct ArrivalVerdict {
    bool drop = false;
    Timestamp deliver_at;
  };

  // Enqueues like Send. With `recheck`, the packet's fate is decided again
  // when it arrives: OnArrival gets the arrival time plus `extra_delay` and
  // its verdict either drops the packet (a delivery converted to a loss;
  // on_drop fires) or delivers it — at once when the verdict is the
  // arrival time itself, else from an event at the verdict's time. The
  // continuation and the drop callback stay in their in-flight slot until
  // then, so a re-decided packet costs no allocation.
  void Enqueue(int64_t bytes, DeliverFn&& on_deliver, DropFn on_drop,
               Duration extra_delay, bool recheck);
  virtual ArrivalVerdict OnArrival(Timestamp target) {
    return ArrivalVerdict{false, target};
  }

  // Fault-injection stat hook (FaultyLink only): an ingress fault drop
  // counts as sent+lost.
  void RecordInjectedSendDrop() {
    ++stats_.packets_sent;
    ++stats_.packets_lost;
  }

 private:
  // Recycled storage addressed by a 4-byte index: after warm-up, parking
  // and taking back never touch the allocator.
  template <typename T>
  class SlotPool {
   public:
    uint32_t Put(T value) {
      if (free_.empty()) {
        slots_.push_back(std::move(value));
        return static_cast<uint32_t>(slots_.size() - 1);
      }
      const uint32_t slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(value);
      return slot;
    }
    T& operator[](uint32_t slot) { return slots_[slot]; }
    T Take(uint32_t slot) {
      T value = std::move(slots_[slot]);
      free_.push_back(slot);
      return value;
    }

   private:
    std::vector<T> slots_;
    std::vector<uint32_t> free_;
  };

  static constexpr uint32_t kNoRecheck = UINT32_MAX;
  // A queued packet. Its delivery continuation parks in deliver_slots_ at
  // Enqueue and stays there until delivered or lost, so it is moved once
  // and the queue ring holds 4 bytes of it.
  struct Pending {
    int64_t bytes = 0;
    uint32_t deliver = 0;           // index into deliver_slots_
    uint32_t recheck = kNoRecheck;  // index into recheck_slots_
    DropFn on_drop;
  };
  // What a re-decided packet needs at arrival besides its continuation.
  // Only packets enqueued with `recheck` take one, so a link outside fault
  // windows never grows the table.
  struct Recheck {
    Duration extra_delay;
    int64_t bytes = 0;
    DropFn on_drop;
  };
  int64_t QueueLimitBytes() const;
  void StartTransmission();
  void FinishTransmission();
  // Arrival event of the packet whose continuation sits in deliver `slot`.
  void Arrive(uint32_t slot, uint32_t recheck_slot);
  // Runs (and frees) the continuation in `slot` with now() as the delivery
  // time.
  void Deliver(uint32_t slot);

  EventLoop* loop_;
  Config config_;
  Random rng_;
  // Recycled ring: after the queue grows to its steady-state depth once, the
  // per-packet enqueue/dequeue path never touches the allocator (a deque
  // allocates/frees chunks as it slides through memory).
  RingQueue<Pending> queue_;
  int64_t queued_bytes_ = 0;
  bool busy_ = false;
  // Recycled continuation slots. A propagating packet's continuation stays
  // in its slot and its arrival event captures the slot index, so the event
  // fits the loop's inline callback buffer (wrapping the continuation itself
  // would not) and the loop's (arrival, seq) order is the delivery order. A
  // packet whose OnArrival verdict postpones it keeps its slot until
  // delivered.
  SlotPool<DeliverFn> deliver_slots_;
  SlotPool<Recheck> recheck_slots_;
  Stats stats_;
};

}  // namespace converge
