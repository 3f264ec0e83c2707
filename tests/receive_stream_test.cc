#include <gtest/gtest.h>

#include "fec/xor_fec.h"
#include "receiver/receiver.h"

namespace converge {
namespace {

class ReceiveStreamTest : public testing::Test {
 protected:
  ReceiveStreamTest() {
    VideoReceiveStream::Config config;
    config.ssrc = 0x1000;
    config.stream_id = 0;
    config.min_keyframe_request_interval = Duration::Millis(100);
    VideoReceiveStream::Callbacks callbacks;
    callbacks.send_keyframe_request = [this](uint32_t) { ++pli_; };
    callbacks.send_qoe_feedback = [this](const QoeFeedback& fb) {
      qoe_.push_back(fb);
    };
    callbacks.on_decoded = [this](const DecodedFrame& f) {
      decoded_.push_back(f.frame_id);
    };
    stream_ = std::make_unique<VideoReceiveStream>(&loop_, config, callbacks);
  }

  // Sends a complete frame: PPS + `media` media packets (SPS on keyframes).
  std::vector<RtpPacket> BuildFrame(int64_t frame_id, FrameKind kind,
                                    int media, int64_t gop) {
    std::vector<RtpPacket> out;
    auto make = [&](PayloadKind k, Priority prio, int64_t bytes) {
      RtpPacket p;
      p.ssrc = 0x1000;
      p.seq = next_seq_++;
      p.stream_id = 0;
      p.frame_id = frame_id;
      p.gop_id = gop;
      p.frame_kind = kind;
      p.kind = k;
      p.priority = prio;
      p.payload_bytes = bytes;
      p.capture_time = loop_.now();
      return p;
    };
    if (kind == FrameKind::kKey) {
      out.push_back(make(PayloadKind::kSps, Priority::kSps, 40));
    }
    out.push_back(make(PayloadKind::kPps, Priority::kPps, 20));
    for (int i = 0; i < media; ++i) {
      out.push_back(make(PayloadKind::kMedia,
                         kind == FrameKind::kKey ? Priority::kKeyframe
                                                 : Priority::kNone,
                         1000));
    }
    out.front().first_in_frame = true;
    out.back().last_in_frame = true;
    out.back().marker = true;
    return out;
  }

  void Deliver(const std::vector<RtpPacket>& packets,
               const std::vector<uint16_t>& skip_seqs = {}) {
    for (const auto& p : packets) {
      bool skip = false;
      for (uint16_t s : skip_seqs) {
        if (p.seq == s) skip = true;
      }
      if (!skip) stream_->OnRtpPacket(p, loop_.now(), 0);
    }
  }

  EventLoop loop_;
  std::unique_ptr<VideoReceiveStream> stream_;
  uint16_t next_seq_ = 0;
  int pli_ = 0;
  std::vector<QoeFeedback> qoe_;
  std::vector<int64_t> decoded_;
};

TEST_F(ReceiveStreamTest, DecodesCleanSequence) {
  Deliver(BuildFrame(0, FrameKind::kKey, 4, 0));
  for (int64_t i = 1; i <= 5; ++i) {
    loop_.RunUntil(loop_.now() + Duration::Millis(33));
    Deliver(BuildFrame(i, FrameKind::kDelta, 3, 0));
  }
  loop_.RunUntil(loop_.now() + Duration::Millis(50));
  EXPECT_EQ(decoded_.size(), 6u);
  EXPECT_EQ(stream_->GetStats().FrameDrops(), 0);
  EXPECT_EQ(pli_, 0);
}

TEST_F(ReceiveStreamTest, RtxHealsLostPacket) {
  Deliver(BuildFrame(0, FrameKind::kKey, 4, 0));
  const auto frame1 = BuildFrame(1, FrameKind::kDelta, 3, 0);
  // One media packet of frame 1 is lost in transit.
  const uint16_t lost = frame1[2].seq;
  Deliver(frame1, {lost});
  loop_.RunUntil(loop_.now() + Duration::Millis(33));
  Deliver(BuildFrame(2, FrameKind::kDelta, 3, 0));
  loop_.RunUntil(loop_.now() + Duration::Millis(30));

  // The endpoint's NACK machinery requests it; the RTX copy arrives.
  RtpPacket rtx = frame1[2];
  rtx.via_rtx = true;
  stream_->OnRtpPacket(rtx, loop_.now(), 0);
  loop_.RunUntil(loop_.now() + Duration::Millis(50));
  EXPECT_EQ(decoded_.size(), 3u);
  EXPECT_EQ(stream_->GetStats().FrameDrops(), 0);
}

// A copy that arrives after its frame left the packet buffer must not
// re-create the frame there (where it would wait to be counted destroyed):
// the stream's arrival record still holds its seq.
TEST_F(ReceiveStreamTest, LateCopyOfFinishedFrameIsADuplicate) {
  const auto key = BuildFrame(0, FrameKind::kKey, 4, 0);
  Deliver(key);
  loop_.RunUntil(loop_.now() + Duration::Millis(33));
  ASSERT_EQ(stream_->packet_buffer().stats().frames_assembled, 1);
  ASSERT_EQ(stream_->packet_buffer().size(), 0u);

  RtpPacket rtx = key[2];
  rtx.via_rtx = true;
  stream_->OnRtpPacket(rtx, loop_.now(), 1);
  EXPECT_EQ(stream_->packet_buffer().stats().duplicates, 1);
  EXPECT_EQ(stream_->packet_buffer().size(), 0u);
}

TEST_F(ReceiveStreamTest, FecRecoveryCompletesFrame) {
  Deliver(BuildFrame(0, FrameKind::kKey, 4, 0));
  const auto frame1 = BuildFrame(1, FrameKind::kDelta, 4, 0);
  // Parity over the frame's packets.
  std::vector<const RtpPacket*> ptrs;
  for (const auto& p : frame1) ptrs.push_back(&p);
  auto parity = XorFecEncoder::Generate(ptrs, 1, 1);
  parity[0].seq = 999;  // separate FEC sequence space

  const uint16_t lost = frame1[3].seq;
  Deliver(frame1, {lost});
  stream_->OnRtpPacket(parity[0], loop_.now(), 0);
  loop_.RunUntil(loop_.now() + Duration::Millis(50));
  EXPECT_EQ(decoded_.size(), 2u);
  EXPECT_EQ(stream_->fec().stats().packets_recovered, 1);
}

TEST_F(ReceiveStreamTest, UnhealedLossDropsFrameAndRequestsKeyframe) {
  Deliver(BuildFrame(0, FrameKind::kKey, 4, 0));
  const auto frame1 = BuildFrame(1, FrameKind::kDelta, 3, 0);
  Deliver(frame1, {frame1[1].seq});  // permanent loss
  for (int64_t i = 2; i <= 4; ++i) {
    loop_.RunUntil(loop_.now() + Duration::Millis(33));
    Deliver(BuildFrame(i, FrameKind::kDelta, 3, 0));
  }
  loop_.RunUntil(loop_.now() + Duration::Millis(400));
  EXPECT_GT(stream_->GetStats().FrameDrops(), 0);
  EXPECT_GE(pli_, 1);
  // Frames 2..4 were released but undecodable (chain broken at 1).
  EXPECT_EQ(decoded_.size(), 1u);
}

TEST_F(ReceiveStreamTest, KeyframeRequestsRateLimited) {
  Deliver(BuildFrame(0, FrameKind::kKey, 4, 0));
  // Cause repeated breakage within the rate-limit window.
  const auto f1 = BuildFrame(1, FrameKind::kDelta, 2, 0);
  Deliver(f1, {f1[1].seq});
  const auto f2 = BuildFrame(2, FrameKind::kDelta, 2, 0);
  Deliver(f2, {f2[1].seq});
  for (int64_t i = 3; i <= 8; ++i) Deliver(BuildFrame(i, FrameKind::kDelta, 2, 0));
  loop_.RunUntil(loop_.now() + Duration::Millis(90));
  EXPECT_LE(pli_, 1);
}

TEST_F(ReceiveStreamTest, RecoversAfterKeyframe) {
  Deliver(BuildFrame(0, FrameKind::kKey, 4, 0));
  const auto f1 = BuildFrame(1, FrameKind::kDelta, 3, 0);
  Deliver(f1, {f1[1].seq});  // break the chain
  loop_.RunUntil(loop_.now() + Duration::Millis(300));
  // New GOP arrives.
  Deliver(BuildFrame(2, FrameKind::kKey, 4, 1));
  Deliver(BuildFrame(3, FrameKind::kDelta, 3, 1));
  loop_.RunUntil(loop_.now() + Duration::Millis(100));
  EXPECT_GE(decoded_.size(), 3u);  // 0, 2, 3
}

}  // namespace
}  // namespace converge
