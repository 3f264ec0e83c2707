#include <gtest/gtest.h>

#include "cc/aimd.h"
#include "cc/cc_controller.h"
#include "cc/coupling.h"
#include "cc/cross.h"
#include "cc/gcc.h"
#include "cc/loss_based.h"
#include "cc/nada.h"
#include "cc/pacer.h"
#include "cc/trendline.h"
#include "sim/event_loop.h"
#include "util/invariants.h"

namespace converge {
namespace {

TEST(TrendlineTest, StableDelaysStayNormal) {
  TrendlineEstimator est;
  Timestamp send = Timestamp::Zero();
  for (int i = 0; i < 200; ++i) {
    send += Duration::Millis(10);
    est.OnPacketFeedback(send, send + Duration::Millis(30));
  }
  EXPECT_EQ(est.State(), BandwidthUsage::kNormal);
}

TEST(TrendlineTest, GrowingQueueDetectsOveruse) {
  TrendlineEstimator est;
  Timestamp send = Timestamp::Zero();
  Duration queue = Duration::Millis(30);
  for (int i = 0; i < 300; ++i) {
    send += Duration::Millis(10);
    queue += Duration::Millis(3);  // steadily building queue
    est.OnPacketFeedback(send, send + queue);
  }
  EXPECT_EQ(est.State(), BandwidthUsage::kOverusing);
  EXPECT_GT(est.trend(), 0.0);
}

TEST(TrendlineTest, DrainingQueueDetectsUnderuse) {
  TrendlineEstimator est;
  Timestamp send = Timestamp::Zero();
  Duration queue = Duration::Millis(1000);
  // The queue drains continuously through the whole window.
  for (int i = 0; i < 150; ++i) {
    send += Duration::Millis(10);
    queue -= Duration::Millis(4);
    est.OnPacketFeedback(send, send + Duration::Millis(30) + queue);
  }
  EXPECT_EQ(est.State(), BandwidthUsage::kUnderusing);
}

TEST(AimdTest, IncreasesWhenNormal) {
  AimdRateControl aimd({}, DataRate::KilobitsPerSec(500));
  Timestamp now = Timestamp::Zero();
  DataRate acked = DataRate::KilobitsPerSec(500);
  for (int i = 0; i < 20; ++i) {
    now += Duration::Millis(100);
    acked = aimd.rate();  // the network delivers what we send
    aimd.Update(BandwidthUsage::kNormal, acked, now);
  }
  EXPECT_GT(aimd.rate().kbps(), 550.0);
}

TEST(AimdTest, DecreasesOnOveruse) {
  AimdRateControl aimd({}, DataRate::MegabitsPerSec(10));
  const DataRate measured = DataRate::MegabitsPerSec(6);
  aimd.Update(BandwidthUsage::kOverusing, measured, Timestamp::Millis(100));
  EXPECT_NEAR(aimd.rate().mbps(), 6.0 * 0.85, 0.01);
}

TEST(AimdTest, HoldsOnUnderuse) {
  AimdRateControl aimd({}, DataRate::MegabitsPerSec(5));
  aimd.Update(BandwidthUsage::kUnderusing, DataRate::MegabitsPerSec(5),
              Timestamp::Millis(100));
  EXPECT_EQ(aimd.rate(), DataRate::MegabitsPerSec(5));
}

TEST(AimdTest, RespectsMinMax) {
  AimdRateControl::Config c;
  c.min_rate = DataRate::KilobitsPerSec(100);
  c.max_rate = DataRate::KilobitsPerSec(1000);
  AimdRateControl aimd(c, DataRate::KilobitsPerSec(150));
  aimd.Update(BandwidthUsage::kOverusing, DataRate::KilobitsPerSec(10),
              Timestamp::Millis(1));
  EXPECT_EQ(aimd.rate(), c.min_rate);
  aimd.SetRate(DataRate::MegabitsPerSec(100));
  EXPECT_EQ(aimd.rate(), c.max_rate);
}

TEST(LossBasedTest, BacksOffAboveHighLoss) {
  LossBasedControl lb({}, DataRate::MegabitsPerSec(10));
  lb.OnLossReport(0.2, Timestamp::Millis(100));
  EXPECT_NEAR(lb.rate().mbps(), 10.0 * (1.0 - 0.5 * 0.2), 0.01);
}

TEST(LossBasedTest, GrowsBelowLowLoss) {
  LossBasedControl lb({}, DataRate::MegabitsPerSec(1));
  lb.OnLossReport(0.0, Timestamp::Millis(100));
  EXPECT_NEAR(lb.rate().mbps(), 1.05, 0.001);
  // Increase is rate-limited: immediate second report does not compound.
  lb.OnLossReport(0.0, Timestamp::Millis(120));
  EXPECT_NEAR(lb.rate().mbps(), 1.05, 0.001);
  lb.OnLossReport(0.0, Timestamp::Millis(400));
  EXPECT_NEAR(lb.rate().mbps(), 1.1025, 0.001);
}

TEST(LossBasedTest, HoldsInMiddleBand) {
  LossBasedControl lb({}, DataRate::MegabitsPerSec(5));
  lb.OnLossReport(0.05, Timestamp::Millis(100));
  EXPECT_EQ(lb.rate(), DataRate::MegabitsPerSec(5));
  EXPECT_GT(lb.smoothed_loss(), 0.0);
}

TEST(GccTest, TargetIsMinOfBranches) {
  GccController::Config c;
  c.start_rate = DataRate::MegabitsPerSec(5);
  GccController gcc(c);
  // Heavy loss drives the loss branch below the delay branch.
  for (int i = 0; i < 10; ++i) {
    gcc.OnReceiverReport(0.3, Duration::Millis(50),
                         Timestamp::Millis(100 * (i + 1)));
  }
  EXPECT_LT(gcc.target_rate().mbps(), 5.0);
  EXPECT_GT(gcc.loss_estimate(), 0.2);
}

TEST(GccTest, SmoothedRttTracksReports) {
  GccController gcc;
  for (int i = 0; i < 50; ++i) {
    gcc.OnReceiverReport(0.0, Duration::Millis(80),
                         Timestamp::Millis(100 * (i + 1)));
  }
  EXPECT_NEAR(gcc.smoothed_rtt().ms(), 80.0, 2.0);
}

TEST(GccTest, GoodputFromTransportFeedback) {
  GccController gcc;
  std::vector<PacketResult> results;
  Timestamp t = Timestamp::Millis(1000);
  // 100 packets x 1250 bytes over 500 ms => 2 Mbps.
  for (int i = 0; i < 100; ++i) {
    PacketResult r;
    r.transport_seq = i;
    r.bytes = 1250;
    r.send_time = t - Duration::Millis(40);
    r.recv_time = t;
    r.received = true;
    results.push_back(r);
    t += Duration::Millis(5);
  }
  gcc.OnTransportFeedback(results, t);
  EXPECT_NEAR(gcc.goodput().mbps(), 2.0, 0.5);
}

TEST(PacerTest, PacesAtConfiguredRate) {
  EventLoop loop;
  int64_t sent_bytes = 0;
  Pacer pacer(&loop, {},
              [&](RtpPacket&& p) { sent_bytes += p.wire_size(); });
  pacer.SetRate(DataRate::MegabitsPerSec(1));  // paced at 1.25 Mbps

  // Offer 1.5 Mbps (three 1250-byte packets every 20 ms): more than the
  // pacer drains, so it stays backlogged, but the backlog grows by only
  // ~0.25 Mbps and stays below the 400-ms shedding bound.
  RepeatingTask offer(&loop, Duration::Millis(20), [&] {
    for (int i = 0; i < 3; ++i) {
      RtpPacket p;
      p.payload_bytes = 1222;  // wire = 1250
      pacer.Enqueue(p);
    }
  });
  loop.RunUntil(Timestamp::Seconds(1.0));
  // ~1.25 Mbps -> ~156 KB/s.
  EXPECT_NEAR(static_cast<double>(sent_bytes), 156250.0, 156250.0 * 0.1);
  EXPECT_GT(pacer.queue_packets(), 0u);
  EXPECT_EQ(pacer.stats().packets_dropped, 0);
}

TEST(PacerTest, RtxJumpsAheadOfMediaBacklog) {
  EventLoop loop;
  std::vector<Priority> order;
  Pacer pacer(&loop, {}, [&](RtpPacket&& p) { order.push_back(p.priority); });
  pacer.SetRate(DataRate::MegabitsPerSec(2));
  for (int i = 0; i < 5; ++i) {
    RtpPacket media;
    media.payload_bytes = 1100;
    pacer.Enqueue(media);
  }
  RtpPacket rtx;
  rtx.priority = Priority::kRetransmit;
  rtx.payload_bytes = 1100;
  pacer.Enqueue(rtx);
  loop.RunUntil(Timestamp::Millis(100));
  ASSERT_FALSE(order.empty());
  // The retransmission overtakes the queued media.
  EXPECT_EQ(order.front(), Priority::kRetransmit);
}

TEST(PacerTest, StaleRtxDropped) {
  EventLoop loop;
  int rtx_sent = 0;
  Pacer pacer(&loop, {}, [&](RtpPacket&& p) {
    if (p.priority == Priority::kRetransmit) ++rtx_sent;
  });
  pacer.SetRate(DataRate::KilobitsPerSec(1));  // effectively stalled
  RtpPacket rtx;
  rtx.priority = Priority::kRetransmit;
  rtx.payload_bytes = 1100;
  pacer.Enqueue(rtx);
  loop.RunUntil(Timestamp::Seconds(2.0));
  // Too old to matter by the time bandwidth would have allowed it.
  EXPECT_EQ(rtx_sent, 0);
  EXPECT_EQ(pacer.stats().packets_dropped, 1);
}

TEST(AimdTest, QuietTimeAcceleratesRecovery) {
  // After a decrease, a long congestion-free stretch ramps much faster
  // than the base 8%/s (the outage-recovery behaviour).
  AimdRateControl slow({}, DataRate::MegabitsPerSec(10));
  AimdRateControl fast({}, DataRate::MegabitsPerSec(10));
  // Both decrease to the same point at t=0.
  slow.Update(BandwidthUsage::kOverusing, DataRate::KilobitsPerSec(100),
              Timestamp::Millis(0));
  fast.Update(BandwidthUsage::kOverusing, DataRate::KilobitsPerSec(100),
              Timestamp::Millis(0));
  ASSERT_EQ(slow.rate(), fast.rate());

  // `slow` updates right after the decrease (quiet < 2 s): gentle.
  DataRate acked = slow.rate();
  for (int i = 1; i <= 10; ++i) {
    acked = slow.rate();
    slow.Update(BandwidthUsage::kNormal, acked,
                Timestamp::Millis(100 * i));
  }
  // `fast` has been quiet for 10 s before its updates: aggressive ramp.
  acked = fast.rate();
  for (int i = 1; i <= 10; ++i) {
    acked = fast.rate();
    fast.Update(BandwidthUsage::kNormal, acked,
                Timestamp::Millis(10000 + 100 * i));
  }
  EXPECT_GT(fast.rate().bps(), slow.rate().bps());
}

TEST(PacerTest, ShedsStaleBacklog) {
  EventLoop loop;
  int sent = 0;
  Pacer pacer(&loop, {}, [&](RtpPacket&&) { ++sent; });
  pacer.SetRate(DataRate::MegabitsPerSec(1));
  for (int i = 0; i < 1000; ++i) {
    RtpPacket p;
    p.payload_bytes = 1222;
    pacer.Enqueue(p);
  }
  loop.RunUntil(Timestamp::Seconds(2.0));
  EXPECT_GT(pacer.stats().packets_dropped, 0);
  // Backlog is bounded by the queue-time cap.
  EXPECT_LE(pacer.QueueDelay(), Duration::Millis(450));
}

TEST(PacerTest, SetsSendTimestamp) {
  EventLoop loop;
  Timestamp seen = Timestamp::MinusInfinity();
  Pacer pacer(&loop, {}, [&](RtpPacket&& p) { seen = p.send_time; });
  pacer.SetRate(DataRate::MegabitsPerSec(10));
  RtpPacket p;
  p.payload_bytes = 100;
  pacer.Enqueue(p);
  loop.RunUntil(Timestamp::Millis(20));
  EXPECT_TRUE(seen.IsFinite());
  EXPECT_GT(seen, Timestamp::Zero());
}

TEST(TrendlineTest, DetectorTransitionsThroughAllStates) {
  // Pin the detector's state sequence: stable -> overuse (queue building)
  // -> underuse (queue draining) -> normal (stable again).
  TrendlineEstimator est;
  Timestamp send = Timestamp::Zero();
  Duration queue = Duration::Millis(30);
  for (int i = 0; i < 100; ++i) {
    send += Duration::Millis(10);
    est.OnPacketFeedback(send, send + queue);
  }
  EXPECT_EQ(est.State(), BandwidthUsage::kNormal);
  for (int i = 0; i < 200; ++i) {
    send += Duration::Millis(10);
    queue += Duration::Millis(3);
    est.OnPacketFeedback(send, send + queue);
  }
  EXPECT_EQ(est.State(), BandwidthUsage::kOverusing);
  for (int i = 0; i < 150; ++i) {
    send += Duration::Millis(10);
    if (queue > Duration::Millis(8)) queue -= Duration::Millis(4);
    est.OnPacketFeedback(send, send + queue);
  }
  EXPECT_EQ(est.State(), BandwidthUsage::kUnderusing);
  for (int i = 0; i < 300; ++i) {
    send += Duration::Millis(10);
    est.OnPacketFeedback(send, send + queue);
  }
  EXPECT_EQ(est.State(), BandwidthUsage::kNormal);
}

TEST(TrendlineTest, DetectorGainCountsDeltasBeyondRegressionWindow) {
  // Regression for the dead gain cap: the detector scales the trend by
  // min(num_deltas, 60), where num_deltas counts ALL observed inter-group
  // deltas — it is NOT bounded by the regression window size. With a small
  // window (4 points) a modest 3 ms/group buildup still reaches the
  // overuse threshold because the gain keeps growing to 60; the pre-fix
  // code scaled by window_.size() (capped at the window), leaving the
  // modified trend permanently under the threshold here.
  TrendlineEstimator::Config config;
  config.window_size = 4;
  TrendlineEstimator est(config);
  Timestamp send = Timestamp::Zero();
  Duration queue = Duration::Millis(30);
  for (int i = 0; i < 300; ++i) {
    send += Duration::Millis(10);
    queue += Duration::Millis(3);
    est.OnPacketFeedback(send, send + queue);
  }
  EXPECT_GT(est.num_deltas(), 60);  // raw count keeps growing past the cap
  EXPECT_EQ(est.State(), BandwidthUsage::kOverusing);
}

TEST(AimdTest, LinkCapacityVarianceTracksSampleSpread) {
  // Regression for the frozen capacity variance: scattered throughput
  // samples at decrease points must widen the near-capacity band (variance
  // rises above the 0.4 floor); tight samples must let it decay back down.
  // Pre-fix the variance was initialized to 0.4 and never written again.
  AimdRateControl aimd({}, DataRate::MegabitsPerSec(10));
  EXPECT_DOUBLE_EQ(aimd.link_capacity_variance(), 0.4);

  Timestamp now = Timestamp::Zero();
  // Widely scattered capacity samples: alternate 2 and 8 Mbps decreases.
  for (int i = 0; i < 30; ++i) {
    now += Duration::Millis(500);
    const DataRate measured =
        (i % 2 == 0) ? DataRate::MegabitsPerSec(2) : DataRate::MegabitsPerSec(8);
    aimd.SetRate(DataRate::MegabitsPerSec(10));
    aimd.Update(BandwidthUsage::kOverusing, measured, now);
  }
  const double spread_var = aimd.link_capacity_variance();
  EXPECT_GT(spread_var, 0.4);
  EXPECT_LE(spread_var, 2.5);

  // Tight samples exactly at the estimate: variance decays back to the
  // floor instead of staying pinned at the widened value.
  for (int i = 0; i < 100; ++i) {
    now += Duration::Millis(500);
    const DataRate at_estimate =
        DataRate::BitsPerSec(static_cast<int64_t>(aimd.link_capacity_estimate_bps()));
    aimd.SetRate(DataRate::MegabitsPerSec(10));
    aimd.Update(BandwidthUsage::kOverusing, at_estimate, now);
  }
  EXPECT_LT(aimd.link_capacity_variance(), spread_var);
  EXPECT_NEAR(aimd.link_capacity_variance(), 0.4, 1e-9);
}

TEST(GccTest, ZeroRttReportStillFeedsLossBranch) {
  // Accept-loss-only policy: a receiver report whose SR echo produced no
  // RTT sample (rtt <= 0) must still drive the loss branch — rejecting the
  // whole report would blind loss-based control exactly when SRs are lost.
  // The bogus zero RTT itself is NOT folded into srtt.
  GccController gcc;
  const double srtt_before = gcc.smoothed_rtt().ms();
  for (int i = 0; i < 10; ++i) {
    gcc.OnReceiverReport(0.3, Duration::Zero(),
                         Timestamp::Millis(100 * (i + 1)));
  }
  EXPECT_GT(gcc.loss_estimate(), 0.2);             // loss consumed
  EXPECT_LT(gcc.target_rate().kbps(), 300.0);      // loss branch acted
  EXPECT_DOUBLE_EQ(gcc.smoothed_rtt().ms(), srtt_before);  // rtt rejected
}

// --- CcController factory -------------------------------------------------

TEST(CcControllerTest, FactoryBuildsEveryAlgorithm) {
  CcConfig config;
  for (const CcAlgorithm a :
       {CcAlgorithm::kGcc, CcAlgorithm::kNada, CcAlgorithm::kCross}) {
    config.algorithm = a;
    auto cc = MakeCcController(config);
    ASSERT_NE(cc, nullptr);
    EXPECT_EQ(cc->name(), ToString(a));
    EXPECT_EQ(cc->target_rate(), config.start_rate);
  }
}

TEST(CcControllerTest, TokenParsingRoundTrips) {
  CcAlgorithm a = CcAlgorithm::kGcc;
  EXPECT_TRUE(ParseCcAlgorithm("nada", &a));
  EXPECT_EQ(a, CcAlgorithm::kNada);
  EXPECT_TRUE(ParseCcAlgorithm("cross", &a));
  EXPECT_EQ(a, CcAlgorithm::kCross);
  EXPECT_TRUE(ParseCcAlgorithm("gcc", &a));
  EXPECT_EQ(a, CcAlgorithm::kGcc);
  EXPECT_FALSE(ParseCcAlgorithm("bbr", &a));

  CcCoupling c = CcCoupling::kUncoupled;
  EXPECT_TRUE(ParseCcCoupling("mp-weighted", &c));
  EXPECT_EQ(c, CcCoupling::kWeighted);
  EXPECT_TRUE(ParseCcCoupling("mp-rr", &c));
  EXPECT_EQ(c, CcCoupling::kRoundRobin);
  EXPECT_TRUE(ParseCcCoupling("mp-best", &c));
  EXPECT_EQ(c, CcCoupling::kBestPath);
  EXPECT_TRUE(ParseCcCoupling("uncoupled", &c));
  EXPECT_EQ(c, CcCoupling::kUncoupled);
  EXPECT_FALSE(ParseCcCoupling("mp-olia", &c));
}

TEST(CcControllerTest, ForgedAlgorithmScreamsAndFallsBackToGcc) {
  InvariantRegistry::Clear();
  ScopedInvariants enable;
  CcConfig config;
  config.algorithm = static_cast<CcAlgorithm>(99);
  auto cc = MakeCcController(config);
  ASSERT_NE(cc, nullptr);
  EXPECT_STREQ(cc->name(), "gcc");
  EXPECT_GT(InvariantRegistry::violation_count(), 0);
  InvariantRegistry::Clear();
}

// --- NADA ------------------------------------------------------------------

// One clean feedback batch: `count` packets, `owd` one-way delay, spaced
// `spacing` apart, ending at `now`.
std::vector<PacketResult> CleanBatch(Timestamp now, int count, Duration owd,
                                     Duration spacing, int64_t* seq) {
  std::vector<PacketResult> results;
  for (int i = 0; i < count; ++i) {
    PacketResult r;
    r.transport_seq = (*seq)++;
    r.bytes = 1200;
    r.recv_time = now - spacing * static_cast<int64_t>(count - 1 - i);
    r.send_time = r.recv_time - owd;
    r.received = true;
    results.push_back(r);
  }
  return results;
}

TEST(NadaTest, RampsUpWhenUncongested) {
  CcConfig config;
  config.start_rate = DataRate::KilobitsPerSec(300);
  NadaController nada(config);
  int64_t seq = 0;
  Timestamp now = Timestamp::Zero();
  // 10 s of clean 50-packet batches at constant 30 ms OWD: no queuing
  // signal, so the accelerated ramp-up should push well past start.
  for (int batch = 0; batch < 100; ++batch) {
    now += Duration::Millis(100);
    nada.OnTransportFeedback(
        CleanBatch(now, 50, Duration::Millis(30), Duration::Millis(2), &seq),
        now);
  }
  EXPECT_GT(nada.target_rate().kbps(), 600.0);
  EXPECT_LT(nada.queue_delay_ms(), 5.0);
}

TEST(NadaTest, BacksOffOnQueueBuildup) {
  CcConfig config;
  config.start_rate = DataRate::MegabitsPerSec(2);
  NadaController nada(config);
  int64_t seq = 0;
  Timestamp now = Timestamp::Zero();
  // Establish the 30 ms baseline, then grow the OWD to 230 ms: the
  // composite signal sits far above XREF and the gradual update must pull
  // the rate down.
  for (int batch = 0; batch < 10; ++batch) {
    now += Duration::Millis(100);
    nada.OnTransportFeedback(
        CleanBatch(now, 50, Duration::Millis(30), Duration::Millis(2), &seq),
        now);
  }
  const double rate_before = nada.target_rate().kbps();
  Duration owd = Duration::Millis(30);
  for (int batch = 0; batch < 50; ++batch) {
    now += Duration::Millis(100);
    if (owd < Duration::Millis(230)) owd += Duration::Millis(10);
    nada.OnTransportFeedback(
        CleanBatch(now, 50, owd, Duration::Millis(2), &seq), now);
  }
  EXPECT_GT(nada.queue_delay_ms(), 50.0);
  EXPECT_LT(nada.target_rate().kbps(), rate_before * 0.8);
}

TEST(NadaTest, ZeroRttReportStillConsumesLoss) {
  NadaController nada(CcConfig{});
  const double srtt_before = nada.smoothed_rtt().ms();
  for (int i = 0; i < 10; ++i) {
    nada.OnReceiverReport(0.25, Duration::Zero(),
                          Timestamp::Millis(100 * (i + 1)));
  }
  EXPECT_GT(nada.loss_estimate(), 0.2);
  EXPECT_DOUBLE_EQ(nada.smoothed_rtt().ms(), srtt_before);
}

// --- Cross -----------------------------------------------------------------

TEST(CrossTest, IncreasesWithHeadroom) {
  CcConfig config;
  config.start_rate = DataRate::KilobitsPerSec(400);
  CrossController cross(config);
  int64_t seq = 0;
  Timestamp now = Timestamp::Zero();
  for (int batch = 0; batch < 100; ++batch) {
    now += Duration::Millis(100);
    cross.OnTransportFeedback(
        CleanBatch(now, 50, Duration::Millis(25), Duration::Millis(2), &seq),
        now);
  }
  EXPECT_GT(cross.target_rate().kbps(), 700.0);
  EXPECT_LT(cross.queue_delay_ms(), 10.0);
}

TEST(CrossTest, BacksOffAboveQueueBudget) {
  CcConfig config;
  config.start_rate = DataRate::MegabitsPerSec(2);
  CrossController cross(config);
  int64_t seq = 0;
  Timestamp now = Timestamp::Zero();
  for (int batch = 0; batch < 10; ++batch) {
    now += Duration::Millis(100);
    cross.OnTransportFeedback(
        CleanBatch(now, 50, Duration::Millis(25), Duration::Millis(2), &seq),
        now);
  }
  const double rate_before = cross.target_rate().kbps();
  // Hold the queue 100 ms over the 50 ms budget for 5 s.
  for (int batch = 0; batch < 50; ++batch) {
    now += Duration::Millis(100);
    cross.OnTransportFeedback(
        CleanBatch(now, 50, Duration::Millis(175), Duration::Millis(2), &seq),
        now);
  }
  EXPECT_GT(cross.queue_delay_ms(), 50.0);
  EXPECT_LT(cross.target_rate().kbps(), rate_before * 0.7);
}

TEST(CrossTest, HeavyLossBacksOffDebounced) {
  CcConfig config;
  config.start_rate = DataRate::KilobitsPerSec(400);
  CrossController cross(config);
  int64_t seq = 0;
  // One batch: 40 received, 40 lost (50% loss, far over the 10% gate).
  auto lossy_batch = [&](Timestamp now) {
    std::vector<PacketResult> results =
        CleanBatch(now, 40, Duration::Millis(30), Duration::Millis(1), &seq);
    for (int i = 0; i < 40; ++i) {
      PacketResult r;
      r.transport_seq = seq++;
      r.bytes = 1200;
      r.send_time = now - Duration::Millis(30);
      r.received = false;
      results.push_back(r);
    }
    return results;
  };
  const double before = cross.target_rate().kbps();
  // Two heavy-loss batches 50 ms apart: only the first may back the rate
  // off (the 300 ms debounce absorbs the second).
  cross.OnTransportFeedback(lossy_batch(Timestamp::Millis(100)),
                            Timestamp::Millis(100));
  const double after_first = cross.target_rate().kbps();
  cross.OnTransportFeedback(lossy_batch(Timestamp::Millis(150)),
                            Timestamp::Millis(150));
  const double after_second = cross.target_rate().kbps();
  EXPECT_LT(after_first, before);
  EXPECT_DOUBLE_EQ(after_second, after_first);
  // A third batch past the debounce window backs off again.
  cross.OnTransportFeedback(lossy_batch(Timestamp::Millis(600)),
                            Timestamp::Millis(600));
  EXPECT_LT(cross.target_rate().kbps(), after_second);
}

// --- Coupling --------------------------------------------------------------

PathCcSnapshot Snap(int64_t target_kbps, int64_t goodput_kbps) {
  PathCcSnapshot s;
  s.target = DataRate::KilobitsPerSec(target_kbps);
  s.goodput = DataRate::KilobitsPerSec(goodput_kbps);
  return s;
}

TEST(CouplingTest, UncoupledIsIdentity) {
  const std::vector<PathCcSnapshot> paths = {Snap(1000, 900), Snap(400, 350)};
  const auto rates = CoupleRates(CcCoupling::kUncoupled, paths,
                                 DataRate::KilobitsPerSec(50));
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0], paths[0].target);
  EXPECT_EQ(rates[1], paths[1].target);
}

TEST(CouplingTest, WeightedSplitsAggregateByGoodputShare) {
  const std::vector<PathCcSnapshot> paths = {Snap(1000, 1500), Snap(1000, 500)};
  const auto rates = CoupleRates(CcCoupling::kWeighted, paths,
                                 DataRate::KilobitsPerSec(50));
  ASSERT_EQ(rates.size(), 2u);
  // Aggregate 2000 kbps split 75/25 by goodput share.
  EXPECT_NEAR(rates[0].kbps(), 1500.0, 1.0);
  EXPECT_NEAR(rates[1].kbps(), 500.0, 1.0);
  EXPECT_NEAR(rates[0].kbps() + rates[1].kbps(), 2000.0, 1.0);

  // No goodput anywhere yet: equal split, not a division by zero.
  const std::vector<PathCcSnapshot> cold = {Snap(600, 0), Snap(200, 0)};
  const auto cold_rates = CoupleRates(CcCoupling::kWeighted, cold,
                                      DataRate::KilobitsPerSec(50));
  EXPECT_NEAR(cold_rates[0].kbps(), 400.0, 1.0);
  EXPECT_NEAR(cold_rates[1].kbps(), 400.0, 1.0);
}

TEST(CouplingTest, RoundRobinSplitsAggregateEqually) {
  const std::vector<PathCcSnapshot> paths = {Snap(900, 800), Snap(300, 200),
                                             Snap(300, 100)};
  const auto rates = CoupleRates(CcCoupling::kRoundRobin, paths,
                                 DataRate::KilobitsPerSec(50));
  ASSERT_EQ(rates.size(), 3u);
  for (const DataRate& r : rates) EXPECT_NEAR(r.kbps(), 500.0, 1.0);
}

TEST(CouplingTest, BestPathPinsAggregateToHighestTarget) {
  const std::vector<PathCcSnapshot> paths = {Snap(400, 300), Snap(1000, 900)};
  const DataRate floor = DataRate::KilobitsPerSec(50);
  const auto rates = CoupleRates(CcCoupling::kBestPath, paths, floor);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_NEAR(rates[1].kbps(), 1400.0, 1.0);  // aggregate on the best path
  EXPECT_EQ(rates[0], floor);                 // loser held at the floor

  // Ties go to the first path, deterministically.
  const std::vector<PathCcSnapshot> tied = {Snap(500, 0), Snap(500, 0)};
  const auto tie_rates = CoupleRates(CcCoupling::kBestPath, tied, floor);
  EXPECT_NEAR(tie_rates[0].kbps(), 1000.0, 1.0);
  EXPECT_EQ(tie_rates[1], floor);
}

TEST(CouplingTest, AllocationsRespectTheFloor) {
  const DataRate floor = DataRate::KilobitsPerSec(50);
  const std::vector<PathCcSnapshot> paths = {Snap(60, 10000), Snap(60, 1)};
  for (const CcCoupling c :
       {CcCoupling::kUncoupled, CcCoupling::kWeighted, CcCoupling::kRoundRobin,
        CcCoupling::kBestPath}) {
    for (const DataRate& r : CoupleRates(c, paths, floor)) {
      EXPECT_GE(r, floor) << ToString(c);
    }
  }
}

TEST(CouplingTest, ForgedCouplingScreamsAndFallsBackToIdentity) {
  InvariantRegistry::Clear();
  ScopedInvariants enable;
  const std::vector<PathCcSnapshot> paths = {Snap(800, 700), Snap(200, 100)};
  const auto rates = CoupleRates(static_cast<CcCoupling>(77), paths,
                                 DataRate::KilobitsPerSec(50));
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0], paths[0].target);
  EXPECT_EQ(rates[1], paths[1].target);
  EXPECT_GT(InvariantRegistry::violation_count(), 0);
  InvariantRegistry::Clear();
}

TEST(PacerTest, QueueDelayReflectsBacklog) {
  EventLoop loop;
  Pacer pacer(&loop, {}, [](RtpPacket&&) {});
  pacer.SetRate(DataRate::MegabitsPerSec(1));
  EXPECT_EQ(pacer.QueueDelay(), Duration::Zero());
  RtpPacket p;
  p.payload_bytes = 125000 - 28;  // 1 second at 1 Mbps (wire size 125 kB)
  pacer.Enqueue(p);
  EXPECT_NEAR(pacer.QueueDelay().seconds(), 0.8, 0.05);  // 1.25x pacing
}

}  // namespace
}  // namespace converge
