// Time-varying value traces: piecewise-constant samples of link capacity or
// loss rate. Traces can repeat periodically (so a 180 s trace covers calls of
// any length) and can be loaded from / saved to CSV.
#pragma once

#include <string>
#include <vector>

#include "util/time.h"

namespace converge {

struct TraceSample {
  Timestamp at;
  double value;  // bits/sec for bandwidth traces, fraction for loss traces.
};

class ValueTrace {
 public:
  ValueTrace() = default;
  explicit ValueTrace(std::vector<TraceSample> samples, bool repeat = true);

  // Constant-valued trace.
  static ValueTrace Constant(double value);

  // Piecewise-constant lookup; before the first sample returns the first
  // value, after the last sample either wraps (repeat) or holds.
  double ValueAt(Timestamp t) const;

  bool empty() const { return samples_.empty(); }
  const std::vector<TraceSample>& samples() const { return samples_; }

  // CSV format: one `seconds,value` row per sample.
  static ValueTrace LoadCsv(const std::string& path, bool repeat = true);
  bool SaveCsv(const std::string& path) const;

  // Pointwise transform (e.g. scaling a capacity trace).
  ValueTrace Scaled(double factor) const;

 private:
  std::vector<TraceSample> samples_;
  bool repeat_ = true;
};

// Strongly-typed convenience wrapper for capacity traces.
class BandwidthTrace {
 public:
  BandwidthTrace() : trace_(ValueTrace::Constant(0)) {}
  explicit BandwidthTrace(ValueTrace trace) : trace_(std::move(trace)) {}
  static BandwidthTrace Constant(DataRate rate) {
    return BandwidthTrace(ValueTrace::Constant(static_cast<double>(rate.bps())));
  }

  DataRate CapacityAt(Timestamp t) const {
    return DataRate::BitsPerSec(static_cast<int64_t>(trace_.ValueAt(t)));
  }
  const ValueTrace& trace() const { return trace_; }

 private:
  ValueTrace trace_;
};

}  // namespace converge
