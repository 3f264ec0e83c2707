#include <gtest/gtest.h>

#include "core/video_aware_scheduler.h"
#include "fec/converge_fec_controller.h"
#include "session/sender.h"

namespace converge {
namespace {

class SenderTest : public testing::Test {
 protected:
  void Build(int num_streams = 1, bool per_path_nack = true) {
    Sender::Config config;
    config.per_path_nack = per_path_nack;
    for (int i = 0; i < num_streams; ++i) {
      Sender::StreamConfig sc;
      sc.ssrc = 0x1000 + static_cast<uint32_t>(i);
      sc.camera.stream_id = i;
      config.streams.push_back(sc);
    }
    config.max_total_rate = DataRate::MegabitsPerSec(10);
    sender_ = std::make_unique<Sender>(
        &loop_, config, &scheduler_, &fec_, std::vector<PathId>{0, 1},
        Random(1),
        [this](PathId path, const RtpPacket& p) {
          sent_.emplace_back(path, p);
        },
        [this](PathId path, const RtcpPacket& p) {
          rtcp_.emplace_back(path, p);
        });
    sender_->Start();
  }

  // Simulates receiver feedback keeping GCC happy on both paths.
  void FeedHealthyFeedback(Duration for_time) {
    const Timestamp end = loop_.now() + for_time;
    while (loop_.now() < end) {
      loop_.RunUntil(loop_.now() + Duration::Millis(50));
      for (PathId path : {0, 1}) {
        // Acknowledge everything sent on this path in the last interval.
        TransportFeedback fb;
        for (const auto& [p, pkt] : sent_) {
          if (p != path) continue;
          if (pkt.send_time < loop_.now() - Duration::Millis(60)) continue;
          TransportFeedback::Arrival a;
          a.mp_transport_seq = pkt.mp_transport_seq;
          a.recv_time = pkt.send_time + Duration::Millis(25);
          fb.arrivals.push_back(a);
        }
        RtcpPacket rtcp;
        rtcp.path_id = path;
        rtcp.payload = fb;
        sender_->HandleRtcp(rtcp, loop_.now());

        ReceiverReport rr;
        rr.fraction_lost = 0.0;
        rr.last_sr_time = loop_.now() - Duration::Millis(50);
        rr.delay_since_last_sr = Duration::Millis(0);
        RtcpPacket rtcp2;
        rtcp2.path_id = path;
        rtcp2.payload = rr;
        sender_->HandleRtcp(rtcp2, loop_.now());
      }
    }
  }

  // The first media packet sent, by value (sent_ keeps growing).
  std::optional<RtpPacket> FirstMedia() const {
    for (const auto& [path, p] : sent_) {
      if (p.kind == PayloadKind::kMedia) return p;
    }
    return std::nullopt;
  }

  int CountKind(PayloadKind kind) const {
    int n = 0;
    for (const auto& [path, p] : sent_) {
      if (p.kind == kind) ++n;
    }
    return n;
  }

  EventLoop loop_;
  VideoAwareScheduler scheduler_;
  ConvergeFecController fec_;
  std::unique_ptr<Sender> sender_;
  std::vector<std::pair<PathId, RtpPacket>> sent_;
  std::vector<std::pair<PathId, RtcpPacket>> rtcp_;
};

TEST_F(SenderTest, SendsMediaOnBothKindsOfTimers) {
  Build();
  FeedHealthyFeedback(Duration::Seconds(2.0));
  EXPECT_GT(CountKind(PayloadKind::kMedia), 30);
  EXPECT_GT(CountKind(PayloadKind::kPps), 30);
  EXPECT_GE(CountKind(PayloadKind::kSps), 1);  // at least the first keyframe
  EXPECT_GT(sender_->stats().frames_encoded, 50);
}

TEST_F(SenderTest, MultipathHeadersStampedPerPath) {
  Build();
  FeedHealthyFeedback(Duration::Seconds(1.0));
  std::map<PathId, uint16_t> expected_seq;
  for (const auto& [path, p] : sent_) {
    EXPECT_EQ(p.path_id, path);
    auto [it, inserted] = expected_seq.emplace(path, p.mp_seq);
    if (!inserted) {
      EXPECT_EQ(p.mp_seq, static_cast<uint16_t>(it->second + 1));
      it->second = p.mp_seq;
    }
  }
  EXPECT_GE(expected_seq.size(), 1u);
}

TEST_F(SenderTest, RateRampsWithCleanFeedback) {
  Build();
  const DataRate before = sender_->current_encoder_target();
  FeedHealthyFeedback(Duration::Seconds(5.0));
  EXPECT_GT(sender_->current_encoder_target().bps(), before.bps());
}

TEST_F(SenderTest, NackTriggersRtxWithDedup) {
  Build();
  FeedHealthyFeedback(Duration::Seconds(1.0));
  // Pick a media packet that was sent (by value: sent_ keeps growing).
  std::optional<RtpPacket> victim;
  for (const auto& [path, p] : sent_) {
    if (p.kind == PayloadKind::kMedia) {
      victim = p;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value());

  // NACKs reference (path, per-path mp_seq).
  Nack nack;
  nack.seqs = {victim->mp_seq};
  RtcpPacket rtcp;
  rtcp.path_id = victim->path_id;
  rtcp.payload = nack;
  sender_->HandleRtcp(rtcp, loop_.now());
  sender_->HandleRtcp(rtcp, loop_.now());  // duplicate (other path copy)
  loop_.RunUntil(loop_.now() + Duration::Millis(50));

  EXPECT_EQ(sender_->stats().rtx_packets_sent, 1);
  int rtx_seen = 0;
  for (const auto& [path, p] : sent_) {
    if (p.via_rtx) {
      ++rtx_seen;
      EXPECT_EQ(p.seq, victim->seq);
      EXPECT_EQ(p.priority, Priority::kRetransmit);
    }
  }
  EXPECT_EQ(rtx_seen, 1);
}

// Both sent histories drop a packet once the path has sent for
// kSentHistoryHorizon since: a NACK or feedback naming it is declined and
// counted, while recent packets are still answered.
TEST_F(SenderTest, HistoriesAgeOutAfterTheHorizon) {
  Build();
  FeedHealthyFeedback(Duration::Seconds(1.0));
  const std::optional<RtpPacket> old = FirstMedia();
  ASSERT_TRUE(old.has_value());
  FeedHealthyFeedback(kSentHistoryHorizon);
  EXPECT_EQ(sender_->nack_horizon_misses(), 0);
  EXPECT_EQ(sender_->feedback_horizon_misses(), 0);

  auto nack_for = [&](const RtpPacket& p) {
    RtcpPacket rtcp;
    rtcp.path_id = p.path_id;
    rtcp.payload = Nack{0, {p.mp_seq}};
    sender_->HandleRtcp(rtcp, loop_.now());
  };
  nack_for(*old);
  EXPECT_EQ(sender_->stats().rtx_packets_sent, 0);
  EXPECT_EQ(sender_->nack_horizon_misses(), 1);

  TransportFeedback fb;
  fb.arrivals.push_back({old->mp_transport_seq, loop_.now()});
  RtcpPacket rtcp;
  rtcp.path_id = old->path_id;
  rtcp.payload = fb;
  sender_->HandleRtcp(rtcp, loop_.now());
  EXPECT_EQ(sender_->feedback_horizon_misses(), 1);

  std::optional<RtpPacket> recent;
  for (auto it = sent_.rbegin(); it != sent_.rend(); ++it) {
    if (it->second.kind == PayloadKind::kMedia && !it->second.via_rtx) {
      recent = it->second;
      break;
    }
  }
  ASSERT_TRUE(recent.has_value());
  nack_for(*recent);
  EXPECT_EQ(sender_->stats().rtx_packets_sent, 1);
  EXPECT_EQ(sender_->nack_horizon_misses(), 1);
}

TEST_F(SenderTest, KeyframeRequestForcesKeyframe) {
  Build();
  FeedHealthyFeedback(Duration::Seconds(1.0));
  const int64_t before = sender_->stats().keyframes_encoded;
  KeyframeRequest req;
  req.ssrc = 0x1000;
  RtcpPacket rtcp;
  rtcp.path_id = 0;
  rtcp.payload = req;
  sender_->HandleRtcp(rtcp, loop_.now());
  FeedHealthyFeedback(Duration::Millis(200));
  EXPECT_EQ(sender_->stats().keyframes_encoded, before + 1);
}

TEST_F(SenderTest, LegacySsrcNackRetransmits) {
  Build(/*num_streams=*/1, /*per_path_nack=*/false);
  FeedHealthyFeedback(Duration::Seconds(1.0));
  std::optional<RtpPacket> victim;
  for (const auto& [path, p] : sent_) {
    if (p.kind == PayloadKind::kMedia) {
      victim = p;
      break;
    }
  }
  ASSERT_TRUE(victim.has_value());

  // Legacy NACK addresses (ssrc, media seq) with no path attribution.
  Nack nack;
  nack.ssrc = victim->ssrc;
  nack.seqs = {victim->seq};
  RtcpPacket rtcp;
  rtcp.path_id = kInvalidPathId;
  rtcp.payload = nack;
  sender_->HandleRtcp(rtcp, loop_.now());
  sender_->HandleRtcp(rtcp, loop_.now());  // duplicate
  loop_.RunUntil(loop_.now() + Duration::Millis(50));
  EXPECT_EQ(sender_->stats().rtx_packets_sent, 1);
  for (const auto& [path, p] : sent_) {
    if (p.via_rtx) {
      EXPECT_EQ(p.seq, victim->seq);
      EXPECT_EQ(p.ssrc, victim->ssrc);
      // No per-path hole tag in legacy mode.
      EXPECT_EQ(p.rtx_for_path, kInvalidPathId);
    }
  }
}

// A sender keeps only the history of the NACK flavour its call negotiated,
// so a NACK of the other flavour finds nothing to retransmit.
TEST_F(SenderTest, PerPathSenderIgnoresSsrcNack) {
  Build(/*num_streams=*/1, /*per_path_nack=*/true);
  FeedHealthyFeedback(Duration::Seconds(1.0));
  std::optional<RtpPacket> victim = FirstMedia();
  ASSERT_TRUE(victim.has_value());
  Nack nack;
  nack.ssrc = victim->ssrc;
  nack.seqs = {victim->seq};
  sender_->HandleRtcp(RtcpPacket{kInvalidPathId, nack}, loop_.now());
  loop_.RunUntil(loop_.now() + Duration::Millis(50));
  EXPECT_EQ(sender_->stats().rtx_packets_sent, 0);
}

TEST_F(SenderTest, LegacySenderIgnoresPerPathNack) {
  Build(/*num_streams=*/1, /*per_path_nack=*/false);
  FeedHealthyFeedback(Duration::Seconds(1.0));
  std::optional<RtpPacket> victim = FirstMedia();
  ASSERT_TRUE(victim.has_value());
  sender_->HandleRtcp(RtcpPacket{victim->path_id, Nack{0, {victim->mp_seq}}},
                      loop_.now());
  loop_.RunUntil(loop_.now() + Duration::Millis(50));
  EXPECT_EQ(sender_->stats().rtx_packets_sent, 0);
}

TEST_F(SenderTest, QoeFeedbackReachesScheduler) {
  Build();
  QoeFeedback fb;
  fb.path_id = 1;
  fb.alpha = -5;
  fb.fcd = Duration::Millis(30);
  RtcpPacket rtcp;
  rtcp.path_id = 1;
  rtcp.payload = fb;
  sender_->HandleRtcp(rtcp, loop_.now());
  EXPECT_NEAR(scheduler_.alpha(1), -5.0, 1e-9);
}

TEST_F(SenderTest, SendsSenderReportsAndSdes) {
  Build();
  loop_.RunUntil(Timestamp::Seconds(1.0));
  int srs = 0;
  int sdes = 0;
  for (const auto& [path, p] : rtcp_) {
    if (std::holds_alternative<SenderReport>(p.payload)) ++srs;
    if (std::holds_alternative<SdesFrameRate>(p.payload)) ++sdes;
  }
  EXPECT_GE(srs, 10);
  EXPECT_GE(sdes, 1);
}

TEST_F(SenderTest, FecGeneratedUnderLoss) {
  Build();
  // Report loss on path 0 so the Converge controller budgets parity.
  for (int i = 0; i < 40; ++i) {
    ReceiverReport rr;
    rr.fraction_lost = 0.08;
    RtcpPacket rtcp;
    rtcp.path_id = 0;
    rtcp.payload = rr;
    sender_->HandleRtcp(rtcp, loop_.now());
    loop_.RunUntil(loop_.now() + Duration::Millis(50));
  }
  EXPECT_GT(CountKind(PayloadKind::kFec), 0);
}

TEST_F(SenderTest, DisabledPathReceivesProbeDuplicates) {
  Build();
  FeedHealthyFeedback(Duration::Seconds(1.0));
  // Hammer path 1 with negative feedback until the scheduler disables it.
  for (int i = 0; i < 10; ++i) {
    QoeFeedback fb;
    fb.path_id = 1;
    fb.alpha = -20;
    fb.fcd = Duration::Millis(2);
    RtcpPacket rtcp;
    rtcp.path_id = 1;
    rtcp.payload = fb;
    sender_->HandleRtcp(rtcp, loop_.now());
    FeedHealthyFeedback(Duration::Millis(100));
  }
  // The path cycles through disable -> probe -> (Eq. 3) re-enable; the
  // disable counter proves the cycle ran even if it is re-enabled now.
  FeedHealthyFeedback(Duration::Millis(500));
  EXPECT_GT(scheduler_.path_manager().disables(), 0);
  EXPECT_GT(sender_->stats().probe_packets_sent, 0);
  // Probe duplicates ride the disabled path and are marked as such.
  bool saw_probe_on_disabled = false;
  for (const auto& [path, p] : sent_) {
    if (p.is_probe_duplicate) {
      EXPECT_EQ(path, 1);
      EXPECT_EQ(p.kind, PayloadKind::kProbe);
      saw_probe_on_disabled = true;
    }
  }
  EXPECT_TRUE(saw_probe_on_disabled);
}

TEST_F(SenderTest, EncoderPushbackThrottlesUnderPacerBacklog) {
  Build();
  FeedHealthyFeedback(Duration::Seconds(3.0));
  const DataRate before = sender_->current_encoder_target();
  ASSERT_GT(before.kbps(), 400.0);
  // Stop acknowledging anything: GCC holds its rate but nothing drains
  // fast enough once we stop feeding transport feedback; the pacer backlog
  // grows and pushback kicks in. Simulate directly by ceasing feedback and
  // letting the encoder outrun the (stale) pacer rate: rates stay equal, so
  // instead verify pushback via the worst-queue path: enqueue artificially
  // by dropping the path rates through loss reports.
  for (int i = 0; i < 30; ++i) {
    ReceiverReport rr;
    rr.fraction_lost = 0.5;  // collapse both paths' loss-based rate
    for (PathId path : {0, 1}) {
      RtcpPacket rtcp;
      rtcp.path_id = path;
      rtcp.payload = rr;
      sender_->HandleRtcp(rtcp, loop_.now());
    }
    loop_.RunUntil(loop_.now() + Duration::Millis(50));
  }
  EXPECT_LT(sender_->current_encoder_target().bps(), before.bps());
}

TEST_F(SenderTest, MultiStreamSplitsEncoderBudget) {
  Build(/*num_streams=*/3);
  FeedHealthyFeedback(Duration::Seconds(2.0));
  std::set<uint32_t> ssrcs;
  for (const auto& [path, p] : sent_) ssrcs.insert(p.ssrc);
  EXPECT_GE(ssrcs.size(), 3u);
}

}  // namespace
}  // namespace converge
