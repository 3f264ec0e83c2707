#include "util/stats.h"

#include <cmath>
#include <numeric>

namespace converge {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Clear() { *this = RunningStat(); }

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double SampleSet::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  const std::vector<double>& sorted = SortedCache();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double SampleSet::Mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

double SampleSet::Stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = Mean();
  double acc = 0.0;
  for (double x : samples_) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

const std::vector<double>& SampleSet::SortedCache() const {
  if (dirty_) {
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }
  return sorted_;
}

void RateEstimator::AddBytes(Timestamp now, int64_t bytes) {
  events_.emplace_back(now, bytes);
  total_ += bytes;
  Evict(now);
}

DataRate RateEstimator::Rate(Timestamp now) const {
  Evict(now);
  if (events_.empty() || window_.IsZero()) return DataRate::Zero();
  // Average over the observed span, not the full window, so a source that
  // has only been running for part of the window is not under-reported.
  Duration span = now - events_.front().first;
  if (span > window_) span = window_;
  if (span < Duration::Millis(1)) span = Duration::Millis(1);
  return DataRate::BitsPerSec(total_ * 8 * 1'000'000 / span.us());
}

void RateEstimator::Evict(Timestamp now) const {
  const Timestamp cutoff = now - window_;
  while (!events_.empty() && events_.front().first < cutoff) {
    total_ -= events_.front().second;
    events_.pop_front();
  }
}

}  // namespace converge
