#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/random.h"
#include "util/stats.h"
#include "util/time.h"

namespace converge {
namespace {

TEST(TimeTest, DurationArithmetic) {
  const Duration a = Duration::Millis(100);
  const Duration b = Duration::Millis(50);
  EXPECT_EQ((a + b).ms(), 150.0);
  EXPECT_EQ((a - b).ms(), 50.0);
  EXPECT_EQ((a * 2.0).ms(), 200.0);
  EXPECT_EQ((a / 2).ms(), 50.0);
  EXPECT_DOUBLE_EQ(a / b, 2.0);
  EXPECT_LT(b, a);
  EXPECT_TRUE(Duration::Zero().IsZero());
  EXPECT_TRUE(Duration::Infinity().IsInfinite());
}

TEST(TimeTest, TimestampArithmetic) {
  const Timestamp t = Timestamp::Seconds(1.0);
  EXPECT_EQ((t + Duration::Millis(500)).ms(), 1500.0);
  EXPECT_EQ((t - Timestamp::Millis(400)).ms(), 600.0);
  EXPECT_TRUE(t.IsFinite());
  EXPECT_FALSE(Timestamp::PlusInfinity().IsFinite());
  EXPECT_FALSE(Timestamp::MinusInfinity().IsFinite());
}

TEST(TimeTest, DataRateConversions) {
  const DataRate r = DataRate::MegabitsPerSec(8.0);
  EXPECT_EQ(r.bps(), 8'000'000);
  // 1000 bytes at 8 Mbps -> 1 ms.
  EXPECT_EQ(r.TransmitTime(1000).ms(), 1.0);
  EXPECT_EQ(r.BytesIn(Duration::Millis(1)), 1000);
  EXPECT_EQ((r * 0.5).mbps(), 4.0);
}

TEST(TimeTest, ZeroRateTransmitIsInfinite) {
  EXPECT_TRUE(DataRate::Zero().TransmitTime(100).IsInfinite());
}

TEST(RandomTest, Deterministic) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, UniformBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
    const int64_t n = rng.UniformInt(-5, 5);
    EXPECT_GE(n, -5);
    EXPECT_LE(n, 5);
  }
}

TEST(RandomTest, BernoulliRate) {
  Random rng(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(RandomTest, BernoulliEdges) {
  Random rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RandomTest, GaussianMoments) {
  Random rng(3);
  RunningStat st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(st.mean(), 5.0, 0.1);
  EXPECT_NEAR(st.stddev(), 2.0, 0.1);
}

TEST(RandomTest, ExponentialMean) {
  Random rng(5);
  RunningStat st;
  for (int i = 0; i < 20000; ++i) st.Add(rng.Exponential(4.0));
  EXPECT_NEAR(st.mean(), 4.0, 0.2);
}

TEST(StatsTest, RunningStatBasics) {
  RunningStat st;
  st.Add(1.0);
  st.Add(2.0);
  st.Add(3.0);
  EXPECT_EQ(st.count(), 3);
  EXPECT_DOUBLE_EQ(st.mean(), 2.0);
  EXPECT_DOUBLE_EQ(st.variance(), 1.0);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 3.0);
  st.Clear();
  EXPECT_EQ(st.count(), 0);
}

TEST(StatsTest, SampleSetQuantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.Add(i);
  EXPECT_NEAR(s.Quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(s.Quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(s.Quantile(0.5), 50.5, 1e-9);
  EXPECT_NEAR(s.Mean(), 50.5, 1e-9);
}

TEST(StatsTest, EwmaConverges) {
  Ewma e(0.5);
  EXPECT_FALSE(e.initialized());
  e.Add(10.0);
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  for (int i = 0; i < 50; ++i) e.Add(0.0);
  EXPECT_LT(e.value(), 1e-6);
}

TEST(StatsTest, RateEstimatorWindow) {
  RateEstimator est(Duration::Millis(1000));
  Timestamp t = Timestamp::Zero();
  // 125 bytes/ms == 1 Mbps.
  for (int i = 0; i < 1000; ++i) {
    est.AddBytes(t, 125);
    t += Duration::Millis(1);
  }
  EXPECT_NEAR(est.Rate(t).mbps(), 1.0, 0.05);
  // After the window drains, the rate drops to zero.
  EXPECT_EQ(est.Rate(t + Duration::Seconds(2.0)).bps(), 0);
}

// The running total answers exactly what summing the trailing window does,
// through adds, reads at later times, repeated timestamps and clears.
TEST(StatsTest, RateEstimatorMatchesBruteForceSum) {
  Random rng(7);
  for (int run = 0; run < 20; ++run) {
    const Duration window = Duration::Millis(rng.UniformInt(1, 800));
    RateEstimator est(window);
    std::vector<std::pair<Timestamp, int64_t>> added;
    Timestamp t = Timestamp::Millis(rng.UniformInt(0, 1000));
    for (int step = 0; step < 2000; ++step) {
      t += Duration::Micros(rng.UniformInt(0, 3) == 0
                                ? 0
                                : rng.UniformInt(1, 40'000));
      const int64_t op = rng.UniformInt(0, 99);
      if (op < 60) {
        const int64_t bytes = rng.UniformInt(0, 1500);
        est.AddBytes(t, bytes);
        added.emplace_back(t, bytes);
        continue;
      }
      if (op == 99) {
        est.Clear();
        added.clear();
        continue;
      }
      // The reference: every add inside (t - window, ...] still held.
      const Timestamp cutoff = t - window;
      int64_t total = 0;
      Timestamp oldest = Timestamp::PlusInfinity();
      for (const auto& [at, bytes] : added) {
        if (at < cutoff) continue;
        total += bytes;
        oldest = std::min(oldest, at);
      }
      int64_t want = 0;
      if (oldest.IsFinite()) {
        Duration span = std::min(t - oldest, window);
        span = std::max(span, Duration::Millis(1));
        want = total * 8 * 1'000'000 / span.us();
      }
      ASSERT_EQ(est.Rate(t).bps(), want) << "run " << run << " step " << step;
    }
  }
}

}  // namespace
}  // namespace converge
