#include "net/fault_plan.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace converge {

FaultEvent FaultEvent::Outage(Timestamp start, Duration duration,
                              InFlightPolicy in_flight) {
  FaultEvent e;
  e.kind = FaultKind::kOutage;
  e.start = start;
  e.duration = duration;
  e.in_flight = in_flight;
  return e;
}

FaultEvent FaultEvent::RateCliff(Timestamp start, Duration duration,
                                 double fraction) {
  FaultEvent e;
  e.kind = FaultKind::kRateCliff;
  e.start = start;
  e.duration = duration;
  e.fraction = std::clamp(fraction, 0.001, 1.0);
  return e;
}

FaultEvent FaultEvent::Handover(Timestamp start, Duration duration,
                                Duration rtt_step, double burst_loss,
                                Duration burst) {
  FaultEvent e;
  e.kind = FaultKind::kHandover;
  e.start = start;
  e.duration = duration;
  e.rtt_step = rtt_step;
  e.burst_loss = std::clamp(burst_loss, 0.0, 1.0);
  e.burst = burst.IsZero() ? duration : std::min(burst, duration);
  return e;
}

FaultEvent FaultEvent::Reorder(Timestamp start, Duration duration,
                               Duration jitter, double duplicate_prob) {
  FaultEvent e;
  e.kind = FaultKind::kReorder;
  e.start = start;
  e.duration = duration;
  e.jitter = jitter;
  e.duplicate_prob = std::clamp(duplicate_prob, 0.0, 1.0);
  return e;
}

FaultEvent FaultEvent::JitterSpike(Timestamp start, Duration duration,
                                   Duration jitter) {
  FaultEvent e;
  e.kind = FaultKind::kJitterSpike;
  e.start = start;
  e.duration = duration;
  e.jitter = jitter;
  return e;
}

std::string ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kOutage:
      return "outage";
    case FaultKind::kRateCliff:
      return "cliff";
    case FaultKind::kHandover:
      return "handover";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kJitterSpike:
      return "jitter";
  }
  return "?";
}

FaultPlan& FaultPlan::Add(FaultEvent event) {
  if (event.kind == FaultKind::kOutage) {
    last_outage_end_ = std::max(last_outage_end_, event.end());
  }
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.start < b.start; });
  events_.insert(pos, event);
  return *this;
}

bool FaultPlan::InOutage(Timestamp t) const {
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if (e.kind == FaultKind::kOutage && e.Contains(t)) return true;
  }
  return false;
}

std::vector<std::pair<Timestamp, Timestamp>> FaultPlan::OutageWindows()
    const {
  std::vector<std::pair<Timestamp, Timestamp>> windows;
  for (const FaultEvent& e : events_) {
    if (e.kind == FaultKind::kOutage) windows.emplace_back(e.start, e.end());
  }
  return windows;
}

std::optional<Timestamp> FaultPlan::OutageEnd(Timestamp t) const {
  std::optional<Timestamp> end;
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if (e.kind == FaultKind::kOutage && e.Contains(t)) {
      if (!end || e.end() > *end) end = e.end();
    }
  }
  return end;
}

InFlightPolicy FaultPlan::OutagePolicy(Timestamp t) const {
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if (e.kind == FaultKind::kOutage && e.Contains(t)) return e.in_flight;
  }
  return InFlightPolicy::kDrop;
}

double FaultPlan::CapacityScaleAt(Timestamp t) const {
  double scale = 1.0;
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if (e.kind == FaultKind::kRateCliff && e.Contains(t)) scale *= e.fraction;
  }
  return scale;
}

Duration FaultPlan::DelayStepAt(Timestamp t) const {
  Duration step = Duration::Zero();
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if (e.kind == FaultKind::kHandover && e.Contains(t)) step += e.rtt_step;
  }
  return step;
}

double FaultPlan::ExtraLossAt(Timestamp t) const {
  double loss = 0.0;
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if (e.kind == FaultKind::kHandover && t >= e.start &&
        t < e.start + e.burst) {
      loss = std::max(loss, e.burst_loss);
    }
  }
  return loss;
}

Duration FaultPlan::MaxJitterAt(Timestamp t) const {
  Duration jitter = Duration::Zero();
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if ((e.kind == FaultKind::kReorder || e.kind == FaultKind::kJitterSpike) &&
        e.Contains(t)) {
      jitter = std::max(jitter, e.jitter);
    }
  }
  return jitter;
}

double FaultPlan::DuplicateProbAt(Timestamp t) const {
  double p = 0.0;
  for (const FaultEvent& e : events_) {
    if (e.start > t) break;
    if (e.kind == FaultKind::kReorder && e.Contains(t)) {
      p = std::max(p, e.duplicate_prob);
    }
  }
  return p;
}

std::string FaultPlan::Describe() const {
  std::ostringstream os;
  bool first = true;
  for (const FaultEvent& e : events_) {
    if (!first) os << " ";
    first = false;
    os << ToString(e.kind) << "[" << e.start.seconds() << "s+"
       << e.duration.seconds() << "s";
    switch (e.kind) {
      case FaultKind::kOutage:
        os << (e.in_flight == InFlightPolicy::kDrop ? " drop" : " delay");
        break;
      case FaultKind::kRateCliff:
        os << " x" << e.fraction;
        break;
      case FaultKind::kHandover:
        os << " rtt+" << e.rtt_step.ms() << "ms loss"
           << static_cast<int>(e.burst_loss * 100) << "%";
        break;
      case FaultKind::kReorder:
        os << " jit" << e.jitter.ms() << "ms dup"
           << static_cast<int>(e.duplicate_prob * 100) << "%";
        break;
      case FaultKind::kJitterSpike:
        os << " jit" << e.jitter.ms() << "ms";
        break;
    }
    os << "]";
  }
  return os.str();
}

}  // namespace converge
