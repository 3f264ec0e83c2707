// Scripted, seed-deterministic network fault plans (the hostile dynamics of
// the paper's driving/walking traces, §6, Figs 9-13, made explicit): a
// FaultPlan is a list of timed events — full path outage, partial rate cliff,
// handover (RTT step + burst loss), reorder/duplication window, jitter spike
// — that a FaultyLink decorator (net/fault_injector.h) applies on top of any
// Link. Plans are plain data: the same plan + the same seed reproduces the
// same packet-level behaviour byte for byte.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/time.h"

namespace converge {

enum class FaultKind : uint8_t {
  kOutage,      // 100% loss for the window
  kRateCliff,   // capacity multiplied by `fraction`
  kHandover,    // propagation-delay step, with burst loss at the cut-over
  kReorder,     // per-packet extra delay in [0, jitter] + duplication
  kJitterSpike  // per-packet extra delay in [0, jitter], no duplication
};

// What happens to packets already in service / in flight when their delivery
// falls inside an outage window. The pinned default is kDrop: a radio that
// lost its link does not park frames for later (regression-tested in
// tests/fault_injector_test.cc).
enum class InFlightPolicy : uint8_t {
  kDrop,       // in-flight packets arriving inside the window are lost
  kDelayToEnd  // ... are held and delivered when the window ends
};

struct FaultEvent {
  FaultKind kind = FaultKind::kOutage;
  Timestamp start;
  Duration duration;

  // kRateCliff: capacity scale in (0, 1].
  double fraction = 1.0;
  // kHandover: added propagation delay while the window is active. The step
  // decays to zero when the window ends (the new attachment point settles).
  Duration rtt_step;
  // kHandover: Bernoulli loss applied during the first `burst` of the
  // window (the make-before-break gap). Zero `burst` means the full window.
  double burst_loss = 0.0;
  Duration burst;
  // kReorder / kJitterSpike: per-packet extra delivery delay in [0, jitter].
  Duration jitter;
  // kReorder: probability that a packet is delivered twice.
  double duplicate_prob = 0.0;
  // kOutage: in-flight semantics (see InFlightPolicy).
  InFlightPolicy in_flight = InFlightPolicy::kDrop;

  Timestamp end() const { return start + duration; }
  bool Contains(Timestamp t) const { return t >= start && t < end(); }

  static FaultEvent Outage(Timestamp start, Duration duration,
                           InFlightPolicy in_flight = InFlightPolicy::kDrop);
  static FaultEvent RateCliff(Timestamp start, Duration duration,
                              double fraction);
  static FaultEvent Handover(Timestamp start, Duration duration,
                             Duration rtt_step, double burst_loss = 0.15,
                             Duration burst = Duration::Millis(300));
  static FaultEvent Reorder(Timestamp start, Duration duration,
                            Duration jitter, double duplicate_prob = 0.0);
  static FaultEvent JitterSpike(Timestamp start, Duration duration,
                                Duration jitter);
};

std::string ToString(FaultKind kind);

class FaultPlan {
 public:
  FaultPlan& Add(FaultEvent event);

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  // --- aggregate queries at time t (what the injector evaluates) ---
  bool InOutage(Timestamp t) const;
  // Latest end among outage windows containing t.
  std::optional<Timestamp> OutageEnd(Timestamp t) const;
  // Policy of the outage window containing t (kDrop when none).
  InFlightPolicy OutagePolicy(Timestamp t) const;
  // Product of all active rate-cliff fractions (1.0 when none active).
  double CapacityScaleAt(Timestamp t) const;
  // Sum of all active handover RTT steps.
  Duration DelayStepAt(Timestamp t) const;
  // Max Bernoulli loss among active handover burst windows.
  double ExtraLossAt(Timestamp t) const;
  // Max per-packet jitter among active reorder/jitter windows.
  Duration MaxJitterAt(Timestamp t) const;
  // Max duplication probability among active reorder windows.
  double DuplicateProbAt(Timestamp t) const;
  // End of the last outage window; MinusInfinity when the plan has none.
  // Lets the FaultyLink skip delivery wrapping (and its allocations) once
  // no outage can affect in-flight packets anymore.
  Timestamp LastOutageEnd() const { return last_outage_end_; }

  // Every kOutage window as a [start, end) pair, in event order. The
  // cascaded hub fabric (session/conference.h) reads a hub's plan through
  // this to schedule hub failure at each window start and recovery at its
  // end.
  std::vector<std::pair<Timestamp, Timestamp>> OutageWindows() const;

  // Compact one-line schema, e.g.
  // "outage[10s+2s] handover[14s+1s rtt+40ms loss15%] cliff[20s+5s x0.25]".
  std::string Describe() const;

 private:
  std::vector<FaultEvent> events_;  // sorted by start time
  Timestamp last_outage_end_ = Timestamp::MinusInfinity();
};

}  // namespace converge
