#include "net/fault_injector.h"

#include <utility>

namespace converge {

FaultInjector::FaultInjector(FaultPlan plan, Random rng)
    : plan_(std::move(plan)), rng_(rng) {}

FaultInjector::SendDecision FaultInjector::OnSend(Timestamp now) {
  SendDecision d;
  if (plan_.InOutage(now)) {
    d.drop = true;
    ++stats_.outage_send_drops;
    return d;
  }
  const double burst_loss = plan_.ExtraLossAt(now);
  if (burst_loss > 0.0 && rng_.Bernoulli(burst_loss)) {
    d.drop = true;
    ++stats_.burst_loss_drops;
    return d;
  }
  const Duration jitter = plan_.MaxJitterAt(now);
  if (jitter > Duration::Zero()) {
    d.extra_delay =
        Duration::Micros(rng_.UniformInt(0, jitter.us()));
    if (d.extra_delay > Duration::Zero()) ++stats_.jittered_packets;
  }
  return d;
}

int FaultInjector::DrawCopies(Timestamp now) {
  const double p = plan_.DuplicateProbAt(now);
  if (p > 0.0 && rng_.Bernoulli(p)) {
    ++stats_.duplicated_packets;
    return 2;
  }
  return 1;
}

FaultInjector::DeliveryAction FaultInjector::OnDelivery(Timestamp arrival) {
  DeliveryAction action;
  Timestamp t = arrival;
  // Follow chained windows: a kDelayToEnd outage may release the packet
  // straight into the next window.
  for (int hops = 0; hops < 16; ++hops) {
    if (!plan_.InOutage(t)) break;
    if (plan_.OutagePolicy(t) == InFlightPolicy::kDrop) {
      action.drop = true;
      action.delay = false;
      ++stats_.inflight_outage_drops;
      return action;
    }
    t = *plan_.OutageEnd(t);
    action.delay = true;
  }
  if (action.delay) {
    action.deliver_at = t;
    ++stats_.inflight_outage_delays;
  }
  return action;
}

FaultyLink::FaultyLink(EventLoop* loop, Config config, Random rng)
    : Link(loop, config, rng.Fork()),
      injector_(config.faults, rng.Fork()) {}

DataRate FaultyLink::CapacityNow() const {
  const double scale = injector_.CapacityScale(loop()->now());
  const DataRate base = Link::CapacityNow();
  return scale >= 1.0 ? base : base * scale;
}

Duration FaultyLink::PropDelayNow() const {
  return Link::PropDelayNow() + injector_.DelayStep(loop()->now());
}

int FaultyLink::SendCopies() { return injector_.DrawCopies(loop()->now()); }

void FaultyLink::Send(int64_t bytes, DeliverFn&& on_deliver,
                      DropFn on_drop) {
  const Timestamp now = loop()->now();
  const FaultInjector::SendDecision decision = injector_.OnSend(now);
  if (decision.drop) {
    RecordInjectedSendDrop();
    if (on_drop) on_drop(/*queue_drop=*/false);
    return;
  }
  // Outside every fault window nothing can touch this packet between here
  // and delivery; otherwise its fate is decided again at arrival (jitter
  // shifts it; an outage window may swallow or park it). Either way the
  // base link carries it allocation-free.
  const bool recheck = injector_.OutagePending(now) ||
                       !decision.extra_delay.IsZero();
  Enqueue(bytes, std::move(on_deliver), std::move(on_drop),
          decision.extra_delay, recheck);
}

Link::ArrivalVerdict FaultyLink::OnArrival(Timestamp target) {
  const FaultInjector::DeliveryAction action = injector_.OnDelivery(target);
  if (action.drop) return ArrivalVerdict{true, target};
  return ArrivalVerdict{false, action.delay ? action.deliver_at : target};
}

std::unique_ptr<Link> MakeLink(EventLoop* loop, Link::Config config,
                               Random rng) {
  if (config.faults.empty()) {
    return std::make_unique<Link>(loop, std::move(config), rng);
  }
  return std::make_unique<FaultyLink>(loop, std::move(config), rng);
}

}  // namespace converge
