// Streaming statistics helpers used by the QoE metrics pipeline and by the
// congestion controller / QoE monitor internals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "util/time.h"

namespace converge {

// Welford running mean / variance with min/max.
class RunningStat {
 public:
  void Add(double x);
  void Clear();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Stores samples; answers arbitrary quantiles. Intended for offline QoE
// reporting (per-frame latency percentiles etc.), not hot paths.
class SampleSet {
 public:
  void Add(double x) {
    samples_.push_back(x);
    dirty_ = true;
  }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }
  // q in [0,1]; linear interpolation between order statistics. The sorted
  // order is cached with dirty-bit invalidation, so a multi-quantile report
  // (p5/p50/p95/p99...) sorts once, not once per quantile.
  double Quantile(double q) const;
  double Mean() const;
  double Stddev() const;
  const std::vector<double>& samples() const { return samples_; }

 private:
  const std::vector<double>& SortedCache() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = true;
};

// Exponentially weighted moving average.
class Ewma {
 public:
  explicit Ewma(double alpha) : alpha_(alpha) {}
  void Add(double x) {
    if (!initialized_) {
      value_ = x;
      initialized_ = true;
    } else {
      value_ = alpha_ * x + (1.0 - alpha_) * value_;
    }
  }
  bool initialized() const { return initialized_; }
  double value() const { return value_; }
  void Reset() { initialized_ = false; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Windowed byte-rate estimator: bytes observed in the trailing window.
// Keeps the window's byte total as it goes, so Rate is O(1) amortized.
class RateEstimator {
 public:
  explicit RateEstimator(Duration window = Duration::Millis(500))
      : window_(window) {}

  void AddBytes(Timestamp now, int64_t bytes);
  DataRate Rate(Timestamp now) const;
  void Clear() {
    events_.clear();
    total_ = 0;
  }

 private:
  void Evict(Timestamp now) const;

  Duration window_;
  mutable std::deque<std::pair<Timestamp, int64_t>> events_;
  mutable int64_t total_ = 0;  // sum of events_' bytes
};

// Fixed-bin histogram over [lo, hi); out-of-range values clamp to edge bins.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);
  void Add(double x);
  int64_t count() const { return count_; }
  const std::vector<int64_t>& bins() const { return bins_; }
  double BinCenter(int i) const;

 private:
  double lo_, hi_;
  std::vector<int64_t> bins_;
  int64_t count_ = 0;
};

}  // namespace converge
