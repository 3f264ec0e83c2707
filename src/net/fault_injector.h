// Deterministic fault injection for links.
//
// FaultInjector evaluates a FaultPlan packet by packet: given the current
// sim time (and a seeded RNG for the stochastic events — burst loss, jitter
// draws, duplication), it decides what happens to a packet at ingress and at
// delivery. FaultyLink is a Link decorator that applies those decisions to
// any traffic crossing it; Path/Network construct it transparently via
// MakeLink() whenever a Link::Config carries a non-empty plan, so senders,
// pacers and schedulers never know faults exist.
//
// Outage semantics (pinned; regression-tested): packets offered during an
// outage window are lost at ingress. Packets already in service or in
// flight whose delivery falls inside a window follow the event's
// InFlightPolicy — kDrop (default) loses them, kDelayToEnd parks them until
// the window closes. Without this, a link entering an outage would keep
// delivering pre-outage packets at their original timestamps.
#pragma once

#include <memory>

#include "net/fault_plan.h"
#include "net/link.h"
#include "sim/event_loop.h"
#include "util/random.h"

namespace converge {

class FaultInjector {
 public:
  // Ingress-time decision for one packet.
  struct SendDecision {
    bool drop = false;       // outage / handover burst loss at ingress
    Duration extra_delay;    // reorder/jitter delay drawn for this packet
    int copies = 1;          // 2 => deliver the packet twice (duplication)
  };

  // Delivery-time decision (outage windows swallowing in-flight packets).
  struct DeliveryAction {
    bool drop = false;
    bool delay = false;
    Timestamp deliver_at;  // valid when `delay`
  };

  struct Stats {
    int64_t outage_send_drops = 0;
    int64_t burst_loss_drops = 0;
    int64_t inflight_outage_drops = 0;
    int64_t inflight_outage_delays = 0;
    int64_t jittered_packets = 0;
    int64_t duplicated_packets = 0;
  };

  FaultInjector(FaultPlan plan, Random rng);

  // Decides the fate of a packet offered at `now`. Consumes RNG only inside
  // active stochastic windows, so runs without active faults draw nothing
  // and plans replay identically for identical traffic.
  SendDecision OnSend(Timestamp now);

  // Duplication draw for the *next* packet (consumed by Link::SendCopies —
  // callers clone the payload, the injector only decides). Kept separate
  // from OnSend so byte-level sends and payload-level duplication stay
  // independently deterministic.
  int DrawCopies(Timestamp now);

  // Evaluates the outage policy for a packet arriving at `arrival`
  // (after any jitter). Chained outage windows are followed until the
  // delivery time escapes them all or a kDrop window swallows the packet.
  DeliveryAction OnDelivery(Timestamp arrival);

  // True while an outage window could still affect in-flight packets —
  // FaultyLink only re-decides deliveries at arrival until the last outage
  // has passed.
  bool OutagePending(Timestamp now) const {
    return plan_.LastOutageEnd().IsFinite() && now < plan_.LastOutageEnd();
  }

  double CapacityScale(Timestamp t) const { return plan_.CapacityScaleAt(t); }
  Duration DelayStep(Timestamp t) const { return plan_.DelayStepAt(t); }

  const FaultPlan& plan() const { return plan_; }
  const Stats& stats() const { return stats_; }

 private:
  FaultPlan plan_;
  Random rng_;
  Stats stats_;
};

// Link decorator applying a FaultPlan. Capacity (rate cliffs), propagation
// delay (handover RTT steps) and ingress/delivery packet fates are all
// overridden; the underlying queueing/service/loss model is inherited.
class FaultyLink final : public Link {
 public:
  FaultyLink(EventLoop* loop, Config config, Random rng);

  void Send(int64_t bytes, DeliverFn&& on_deliver,
            DropFn on_drop = nullptr) override;
  int SendCopies() override;
  DataRate CapacityNow() const override;
  Duration PropDelayNow() const override;

  const FaultInjector& injector() const { return injector_; }

 protected:
  ArrivalVerdict OnArrival(Timestamp target) override;

 private:
  FaultInjector injector_;
};

// Factory used by Path: a plain Link for an empty plan, a FaultyLink
// otherwise. This is the single seam through which the fault subsystem
// enters the network stack.
std::unique_ptr<Link> MakeLink(EventLoop* loop, Link::Config config,
                               Random rng);

}  // namespace converge
