// Runtime invariant harness: cheap, always-on-in-tests assertions that core
// components (packet/frame buffers, GCC, pacer, schedulers, FEC, path
// manager) register at their state-transition points.
//
// Checking is off by default and costs one relaxed atomic load per check
// site, so production/bench runs pay nothing measurable. Tests flip it on
// with `ScopedInvariants`; a violated condition records the component, the
// failed condition text, the simulation time and a detail string into a
// process-wide sink that the test inspects (and fails on) afterwards.
// Violations never alter component behaviour — enabling the harness cannot
// change simulation results, which keeps fault-injected runs byte-identical
// with and without it.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "util/time.h"

namespace converge {

struct InvariantViolation {
  std::string component;  // e.g. "FrameBuffer"
  std::string condition;  // stringified failed condition
  std::string detail;     // values at the moment of violation
  std::string context;    // run label (variant + seed), set by Call::Run
  Timestamp at;           // sim time; MinusInfinity when the component
                          // has no clock (pure-function controllers)
};

class InvariantRegistry {
 public:
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool on);

  // Records one violation (thread-safe; callable from parallel bench
  // workers). Storage is capped; the total count keeps incrementing.
  static void Report(const char* component, const char* condition,
                     Timestamp at, std::string detail);
  // Records violations a pure checker collected (NormalizeConferenceConfig,
  // NormalizeMembership), in order, when checking is enabled.
  static void ReportAll(const std::vector<InvariantViolation>& violations);

  // Thread-local run label attached to subsequent violations on this
  // thread — Call::Run sets "<variant> seed=<n>" so a violation inside a
  // parallel multi-seed sweep names the run that produced it.
  static void SetContext(std::string context);

  static int64_t violation_count();
  static std::vector<InvariantViolation> Snapshot();
  static void Clear();

  // Flight-recorder tail captured from the reporting thread's TraceRecorder
  // at the moment the first violation was stored (empty when no recorder
  // was installed). Describe() and WriteLog() append it, so a traced chaos
  // run that trips an invariant ships the controllers' recent history with
  // the violation report.
  static std::string FlightRecorderTail();

  // Human-readable dump of the first `max_entries` violations, for test
  // failure messages.
  static std::string Describe(size_t max_entries = 16);
  // Writes the full violation list to `path` (CI failure artifact).
  // Returns false if the file could not be written.
  static bool WriteLog(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

// RAII test scope: clears the sink and enables checking; disables on exit
// (violations stay recorded for inspection).
class ScopedInvariants {
 public:
  ScopedInvariants() {
    InvariantRegistry::Clear();
    InvariantRegistry::SetEnabled(true);
  }
  ~ScopedInvariants() { InvariantRegistry::SetEnabled(false); }
  ScopedInvariants(const ScopedInvariants&) = delete;
  ScopedInvariants& operator=(const ScopedInvariants&) = delete;
};

// The check macro. `detail` is an expression yielding std::string and is
// evaluated only on violation, so check sites stay allocation-free.
#define CONVERGE_INVARIANT(component, at, cond, detail)                     \
  do {                                                                      \
    if (::converge::InvariantRegistry::enabled() && !(cond)) {              \
      ::converge::InvariantRegistry::Report((component), #cond, (at),       \
                                            (detail));                      \
    }                                                                       \
  } while (0)

}  // namespace converge
