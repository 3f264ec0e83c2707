#include "util/invariants.h"

#include <fstream>
#include <mutex>
#include <sstream>

#include "util/trace_recorder.h"

namespace converge {
namespace {

// Storage cap: a systematically broken invariant in a long stress run must
// not exhaust memory; the count keeps the true total.
constexpr size_t kMaxStoredViolations = 10'000;

std::mutex& Mutex() {
  static std::mutex mu;
  return mu;
}

std::vector<InvariantViolation>& Violations() {
  static std::vector<InvariantViolation> v;
  return v;
}

std::atomic<int64_t>& Count() {
  static std::atomic<int64_t> c{0};
  return c;
}

thread_local std::string t_context;

// Tail of the reporting thread's flight recorder, captured under Mutex()
// when the first violation is stored.
std::string& FlightTail() {
  static std::string tail;
  return tail;
}

std::string FormatTime(Timestamp at) {
  if (!at.IsFinite()) return "no-sim-time";
  std::ostringstream os;
  os << at.ms() << " ms";
  return os.str();
}

}  // namespace

std::atomic<bool> InvariantRegistry::enabled_{false};

void InvariantRegistry::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

void InvariantRegistry::Report(const char* component, const char* condition,
                               Timestamp at, std::string detail) {
  Count().fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(Mutex());
  if (Violations().size() >= kMaxStoredViolations) return;
  if (Violations().empty() && FlightTail().empty()) {
    // First stored violation: if this thread is tracing, preserve the
    // recent component history — the post-mortem for chaos/CI artifacts.
    if (TraceRecorder* trace = TraceRecorder::Current()) {
      FlightTail() = trace->DescribeTail();
    }
  }
  Violations().push_back(InvariantViolation{component, condition,
                                            std::move(detail), t_context, at});
}

void InvariantRegistry::ReportAll(
    const std::vector<InvariantViolation>& violations) {
  if (!enabled()) return;
  for (const InvariantViolation& v : violations) {
    Report(v.component.c_str(), v.condition.c_str(), v.at, v.detail);
  }
}

void InvariantRegistry::SetContext(std::string context) {
  t_context = std::move(context);
}

int64_t InvariantRegistry::violation_count() {
  return Count().load(std::memory_order_relaxed);
}

std::vector<InvariantViolation> InvariantRegistry::Snapshot() {
  std::lock_guard<std::mutex> lock(Mutex());
  return Violations();
}

void InvariantRegistry::Clear() {
  std::lock_guard<std::mutex> lock(Mutex());
  Violations().clear();
  Count().store(0, std::memory_order_relaxed);
  FlightTail().clear();
}

std::string InvariantRegistry::FlightRecorderTail() {
  std::lock_guard<std::mutex> lock(Mutex());
  return FlightTail();
}

std::string InvariantRegistry::Describe(size_t max_entries) {
  const auto violations = Snapshot();
  std::ostringstream os;
  os << violation_count() << " invariant violation(s)";
  if (violations.empty()) return os.str();
  os << ":\n";
  size_t shown = 0;
  for (const InvariantViolation& v : violations) {
    if (shown++ >= max_entries) {
      os << "  ... (" << violations.size() - max_entries << " more stored)\n";
      break;
    }
    os << "  [" << v.component << " @ " << FormatTime(v.at) << "] "
       << v.condition;
    if (!v.detail.empty()) os << " — " << v.detail;
    if (!v.context.empty()) os << " (" << v.context << ")";
    os << "\n";
  }
  const std::string tail = FlightRecorderTail();
  if (!tail.empty()) os << tail;
  return os.str();
}

bool InvariantRegistry::WriteLog(const std::string& path) {
  const auto violations = Snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out << "total_violations=" << violation_count() << "\n";
  for (const InvariantViolation& v : violations) {
    out << v.component << "\t" << FormatTime(v.at) << "\t" << v.condition
        << "\t" << v.detail << "\t" << v.context << "\n";
  }
  const std::string tail = FlightRecorderTail();
  if (!tail.empty()) out << tail;
  return static_cast<bool>(out);
}

}  // namespace converge
