// Endpoint-level RTCP machinery: per-path receiver reports (loss, SR echo),
// transport feedback with loss marking, NACK emission over per-path
// sequence spaces, and QoE feedback transport.
#include <gtest/gtest.h>

#include <map>

#include "session/metrics.h"
#include "session/receiver_endpoint.h"

namespace converge {
namespace {

class ReceiverEndpointTest : public testing::Test {
 protected:
  ReceiverEndpointTest() { Build(/*per_path_nack=*/true); }

  void Build(bool per_path_nack) {
    ReceiverEndpoint::Config config;
    config.ssrcs = {0x1000};
    config.feedback_interval = Duration::Millis(50);
    config.per_path_nack = per_path_nack;
    endpoint_ = std::make_unique<ReceiverEndpoint>(
        &loop_, config, nullptr,
        [this](PathId path, const RtcpPacket& packet) {
          sent_.emplace_back(path, packet);
        });
    endpoint_->Start();
  }

  RtpPacket MakePacket(PathId path, uint16_t mp_seq, uint16_t seq,
                       PayloadKind kind = PayloadKind::kMedia) {
    RtpPacket p;
    p.ssrc = 0x1000;
    p.seq = seq;
    p.mp_seq = mp_seq;
    p.mp_transport_seq = mp_seq;
    p.path_id = path;
    p.kind = kind;
    p.payload_bytes = 1000;
    p.send_time = loop_.now() - Duration::Millis(30);
    return p;
  }

  template <typename T>
  std::vector<std::pair<PathId, T>> Collect() const {
    std::vector<std::pair<PathId, T>> out;
    for (const auto& [path, pkt] : sent_) {
      if (const T* v = std::get_if<T>(&pkt.payload)) {
        out.emplace_back(path, *v);
      }
    }
    return out;
  }

  EventLoop loop_;
  std::unique_ptr<ReceiverEndpoint> endpoint_;
  std::vector<std::pair<PathId, RtcpPacket>> sent_;
};

TEST_F(ReceiverEndpointTest, PeriodicReceiverReportsPerPath) {
  for (uint16_t s = 0; s < 10; ++s) {
    endpoint_->OnRtpPacket(MakePacket(0, s, s), loop_.now(), 0);
    endpoint_->OnRtpPacket(MakePacket(1, s, 100 + s), loop_.now(), 1);
  }
  loop_.RunUntil(Timestamp::Millis(120));
  const auto reports = Collect<ReceiverReport>();
  int path0 = 0;
  int path1 = 0;
  for (const auto& [path, rr] : reports) {
    if (path == 0) ++path0;
    if (path == 1) ++path1;
    EXPECT_NEAR(rr.fraction_lost, 0.0, 1e-9);
  }
  EXPECT_GE(path0, 2);
  EXPECT_GE(path1, 2);
}

TEST_F(ReceiverEndpointTest, LossFractionReflectsMpSeqGaps) {
  // Path 0: receive mp_seq 0..9 except 3,4 -> 20% loss in the interval.
  for (uint16_t s = 0; s < 10; ++s) {
    if (s == 3 || s == 4) continue;
    endpoint_->OnRtpPacket(MakePacket(0, s, s), loop_.now(), 0);
  }
  loop_.RunUntil(Timestamp::Millis(60));
  const auto reports = Collect<ReceiverReport>();
  ASSERT_FALSE(reports.empty());
  EXPECT_NEAR(reports.front().second.fraction_lost, 0.2, 0.01);
}

TEST_F(ReceiverEndpointTest, TransportFeedbackMarksMissing) {
  endpoint_->OnRtpPacket(MakePacket(0, 0, 0), loop_.now(), 0);
  endpoint_->OnRtpPacket(MakePacket(0, 2, 2), loop_.now(), 0);  // 1 missing
  loop_.RunUntil(Timestamp::Millis(60));
  const auto feedbacks = Collect<TransportFeedback>();
  ASSERT_FALSE(feedbacks.empty());
  const TransportFeedback& fb = feedbacks.front().second;
  ASSERT_EQ(fb.arrivals.size(), 3u);
  EXPECT_TRUE(fb.arrivals[0].recv_time.IsFinite());
  EXPECT_FALSE(fb.arrivals[1].recv_time.IsFinite());  // the missing one
  EXPECT_TRUE(fb.arrivals[2].recv_time.IsFinite());
}

TEST_F(ReceiverEndpointTest, TransportFeedbackListsEachSeqOnceInOrder) {
  // One interval: transport seqs 0, 3, 1, 3 again, 2.
  const std::pair<uint16_t, int64_t> first_interval[] = {
      {0, 1}, {3, 2}, {1, 3}, {3, 4}, {2, 5}};
  for (const auto& [s, ms] : first_interval) {
    endpoint_->OnRtpPacket(MakePacket(0, s, s), Timestamp::Millis(ms), 0);
  }
  loop_.RunUntil(Timestamp::Millis(60));
  // The next: a late seq 2, at or below the reported 3, among 5 and 4.
  const std::pair<uint16_t, int64_t> second_interval[] = {
      {2, 61}, {5, 62}, {4, 63}};
  for (const auto& [s, ms] : second_interval) {
    endpoint_->OnRtpPacket(MakePacket(0, s, s), Timestamp::Millis(ms), 0);
  }
  loop_.RunUntil(Timestamp::Millis(110));

  const auto feedbacks = Collect<TransportFeedback>();
  ASSERT_EQ(feedbacks.size(), 2u);
  const auto& first = feedbacks[0].second.arrivals;
  ASSERT_EQ(first.size(), 4u);
  const int64_t first_times[] = {1, 3, 5, 4};  // seq 3: its last arrival
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].mp_transport_seq, static_cast<int64_t>(i));
    EXPECT_EQ(first[i].recv_time, Timestamp::Millis(first_times[i]));
  }
  const auto& second = feedbacks[1].second.arrivals;
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].mp_transport_seq, 4);
  EXPECT_EQ(second[0].recv_time, Timestamp::Millis(63));
  EXPECT_EQ(second[1].mp_transport_seq, 5);
  EXPECT_EQ(second[1].recv_time, Timestamp::Millis(62));
}

// An interval whose only arrivals are late (at or below the highest seq
// already reported) must not move the report point back: the interval
// after it reports only seqs never reported, each once.
TEST_F(ReceiverEndpointTest, LateOnlyIntervalDoesNotReportSeqsTwice) {
  for (uint16_t s = 0; s <= 5; ++s) {
    if (s == 3) continue;
    endpoint_->OnRtpPacket(MakePacket(0, s, s), Timestamp::Millis(1 + s), 0);
  }
  loop_.RunUntil(Timestamp::Millis(60));  // reports 0..5, 3 as lost
  endpoint_->OnRtpPacket(MakePacket(0, 3, 3), Timestamp::Millis(70), 0);
  loop_.RunUntil(Timestamp::Millis(110));  // only the late 3
  for (uint16_t s = 6; s <= 7; ++s) {
    endpoint_->OnRtpPacket(MakePacket(0, s, s), Timestamp::Millis(114 + s),
                           0);
  }
  loop_.RunUntil(Timestamp::Millis(160));

  std::map<int64_t, int> reported;
  for (const auto& [path, fb] : Collect<TransportFeedback>()) {
    for (const TransportFeedback::Arrival& a : fb.arrivals) {
      ++reported[a.mp_transport_seq];
    }
  }
  ASSERT_EQ(reported.size(), 8u);
  for (const auto& [seq, times] : reported) {
    EXPECT_EQ(times, 1) << "seq " << seq;
  }
}

// Per-second FCD/IFD take one sample per gathered frame. Frame 0, a single
// packet at t=0, gives a known (0, 0) sample; frame 1 (seqs 1..3) gathers at
// t=70 ms with FCD 30 ms and IFD 70 ms. Means of 15 and 35 ms then mean
// exactly one sample for frame 1, carrying its own delays.
class FrameDelaySamplesTest : public ReceiverEndpointTest {
 protected:
  FrameDelaySamplesTest() : metrics_(&loop_, {}) {
    ReceiverEndpoint::Config config;
    config.ssrcs = {0x1000};
    endpoint_ = std::make_unique<ReceiverEndpoint>(
        &loop_, config, &metrics_, [](PathId, const RtcpPacket&) {});
    Deliver(0, 0, /*first=*/true, /*last=*/true, 0);
  }

  void Deliver(uint16_t seq, int64_t frame_id, bool first, bool last,
               int64_t at_ms) {
    loop_.RunUntil(Timestamp::Millis(at_ms));
    RtpPacket p = MakePacket(0, mp_seq_, seq);
    ++mp_seq_;
    p.frame_id = static_cast<int32_t>(frame_id);
    p.first_in_frame = first;
    p.last_in_frame = last;
    p.marker = last;
    endpoint_->OnRtpPacket(p, Timestamp::Millis(at_ms), 0);
  }

  void ExpectOneSampleForFrameOne() {
    loop_.RunUntil(Timestamp::Millis(1010));
    ASSERT_FALSE(metrics_.time_series().empty());
    const SecondSample& second = metrics_.time_series().front();
    EXPECT_DOUBLE_EQ(second.fcd_ms, 15.0);
    EXPECT_DOUBLE_EQ(second.ifd_ms, 35.0);
  }

  MetricsCollector metrics_;
  uint16_t mp_seq_ = 0;
};

TEST_F(FrameDelaySamplesTest, LastPacketBeforeMiddleSamplesOnceAtGathering) {
  Deliver(1, 1, true, false, 40);
  Deliver(3, 1, false, true, 50);  // frame 1 still misses seq 2
  Deliver(2, 1, false, false, 70);
  ExpectOneSampleForFrameOne();
}

TEST_F(FrameDelaySamplesTest, DuplicateLastPacketAddsNoSample) {
  Deliver(1, 1, true, false, 40);
  Deliver(2, 1, false, false, 50);
  Deliver(3, 1, false, true, 70);
  Deliver(3, 1, false, true, 80);
  ExpectOneSampleForFrameOne();
}

TEST_F(ReceiverEndpointTest, SrEchoedInReceiverReport) {
  RtcpPacket sr_packet;
  sr_packet.path_id = 0;
  SenderReport sr;
  sr.send_time = Timestamp::Millis(5);
  sr_packet.payload = sr;
  endpoint_->OnRtcpPacket(sr_packet, Timestamp::Millis(20), 0);
  endpoint_->OnRtpPacket(MakePacket(0, 0, 0), loop_.now(), 0);
  loop_.RunUntil(Timestamp::Millis(60));
  const auto reports = Collect<ReceiverReport>();
  ASSERT_FALSE(reports.empty());
  EXPECT_EQ(reports.front().second.last_sr_time, Timestamp::Millis(5));
  EXPECT_GT(reports.front().second.delay_since_last_sr, Duration::Zero());
}

TEST_F(ReceiverEndpointTest, NackEmittedForPathGap) {
  endpoint_->OnRtpPacket(MakePacket(0, 0, 0), loop_.now(), 0);
  endpoint_->OnRtpPacket(MakePacket(0, 3, 3), loop_.now(), 0);
  loop_.RunUntil(Timestamp::Millis(30));
  const auto nacks = Collect<Nack>();
  ASSERT_FALSE(nacks.empty());
  EXPECT_EQ(nacks.front().first, 0);  // describes path 0
  EXPECT_EQ(nacks.front().second.seqs, (std::vector<uint16_t>{1, 2}));
}

TEST_F(ReceiverEndpointTest, CrossPathSkewDoesNotNack) {
  // Interleave two paths with per-path continuity.
  for (uint16_t s = 0; s < 20; ++s) {
    endpoint_->OnRtpPacket(MakePacket(s % 2, s / 2, s), loop_.now(), s % 2);
  }
  loop_.RunUntil(Timestamp::Millis(200));
  EXPECT_TRUE(Collect<Nack>().empty());
}

TEST_F(ReceiverEndpointTest, ProbeDuplicatesRefreshStatsOnly) {
  RtpPacket probe = MakePacket(1, 0, 50, PayloadKind::kProbe);
  probe.is_probe_duplicate = true;
  endpoint_->OnRtpPacket(probe, loop_.now(), 1);
  loop_.RunUntil(Timestamp::Millis(60));
  // The probe produced per-path reports for path 1 but no media metrics.
  bool saw_path1_report = false;
  for (const auto& [path, rr] : Collect<ReceiverReport>()) {
    if (path == 1) saw_path1_report = true;
  }
  EXPECT_TRUE(saw_path1_report);
  EXPECT_EQ(endpoint_->stats().media_bytes, 0);
}

TEST_F(ReceiverEndpointTest, SdesSetsExpectedFps) {
  RtcpPacket sdes_packet;
  SdesFrameRate sdes;
  sdes.ssrc = 0x1000;
  sdes.fps = 24.0;
  sdes_packet.payload = sdes;
  endpoint_->OnRtcpPacket(sdes_packet, loop_.now(), 0);
  EXPECT_NEAR(endpoint_->stream(0).qoe().expected_ifd().ms(), 1000.0 / 24.0,
              0.5);
}

TEST_F(ReceiverEndpointTest, LegacyNackModeStormsUnderCrossPathSkew) {
  // The §2.3 pathology: with standard SSRC-sequence NACK, packets still in
  // flight on the other (slower) path read as loss.
  Build(/*per_path_nack=*/false);
  // Even seqs arrive on path 0 now; odd seqs are "in flight" on path 1.
  for (uint16_t s = 0; s < 20; s += 2) {
    endpoint_->OnRtpPacket(MakePacket(0, s / 2, s), loop_.now(), 0);
  }
  loop_.RunUntil(Timestamp::Millis(40));
  const auto nacks = Collect<Nack>();
  ASSERT_FALSE(nacks.empty());
  EXPECT_EQ(nacks.front().second.ssrc, 0x1000u);  // SSRC-addressed
  size_t total = 0;
  for (const auto& [path, n] : nacks) total += n.seqs.size();
  EXPECT_GE(total, 5u);  // spurious requests for the in-flight odd seqs
}

TEST_F(ReceiverEndpointTest, LegacyNackClearedByLateArrival) {
  Build(/*per_path_nack=*/false);
  endpoint_->OnRtpPacket(MakePacket(0, 0, 0), loop_.now(), 0);
  endpoint_->OnRtpPacket(MakePacket(0, 1, 2), loop_.now(), 0);
  // Seq 1 arrives late from the other path before any retry exhausts.
  endpoint_->OnRtpPacket(MakePacket(1, 0, 1), loop_.now(), 1);
  loop_.RunUntil(Timestamp::Millis(400));
  EXPECT_EQ(endpoint_->nack().outstanding(), 0u);
}

TEST_F(ReceiverEndpointTest, RtxClearsNackChase) {
  endpoint_->OnRtpPacket(MakePacket(0, 0, 0), loop_.now(), 0);
  endpoint_->OnRtpPacket(MakePacket(0, 2, 2), loop_.now(), 0);
  loop_.RunUntil(Timestamp::Millis(30));
  ASSERT_FALSE(Collect<Nack>().empty());

  // RTX arrives (on any path) tagged with the hole it plugs.
  RtpPacket rtx = MakePacket(1, 0, 1);
  rtx.via_rtx = true;
  rtx.rtx_for_path = 0;
  rtx.rtx_for_mp_seq = 1;
  endpoint_->OnRtpPacket(rtx, loop_.now(), 1);
  const size_t nacks_before = Collect<Nack>().size();
  loop_.RunUntil(Timestamp::Millis(500));
  EXPECT_EQ(Collect<Nack>().size(), nacks_before);  // chase stopped
  EXPECT_EQ(endpoint_->nack().stats().recovered, 1);
}

}  // namespace
}  // namespace converge
