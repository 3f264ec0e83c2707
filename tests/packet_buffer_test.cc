#include <gtest/gtest.h>

#include "receiver/packet_buffer.h"

namespace converge {
namespace {

RtpPacket MakePacket(uint16_t seq, int64_t frame_id, bool first, bool last) {
  RtpPacket p;
  p.ssrc = 0x1000;
  p.seq = seq;
  p.stream_id = 0;
  p.frame_id = frame_id;
  p.gop_id = 0;
  p.kind = PayloadKind::kMedia;
  p.payload_bytes = 1000;
  p.first_in_frame = first;
  p.last_in_frame = last;
  p.marker = last;
  return p;
}

class PacketBufferTest : public testing::Test {
 protected:
  PacketBufferTest()
      : buffer_({.capacity_packets = 16},
                [this](GatheredFrame&& f) { frames_.push_back(std::move(f)); }) {}

  PacketBuffer buffer_;
  std::vector<GatheredFrame> frames_;
};

TEST_F(PacketBufferTest, AssemblesCompleteFrameInOrder) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(10), 0);
  buffer_.Insert(MakePacket(1, 0, false, false), Timestamp::Millis(12), 0);
  EXPECT_TRUE(frames_.empty());
  buffer_.Insert(MakePacket(2, 0, false, true), Timestamp::Millis(15), 1);
  ASSERT_EQ(frames_.size(), 1u);
  const AssembledFrame& f = frames_[0].frame;
  EXPECT_EQ(f.frame_id, 0);
  EXPECT_EQ(f.packets, 3);
  EXPECT_EQ(f.size_bytes, 3000);
  EXPECT_EQ(f.first_packet_time, Timestamp::Millis(10));
  EXPECT_EQ(f.complete_time, Timestamp::Millis(15));
  EXPECT_EQ(f.fcd, Duration::Millis(5));
  ASSERT_EQ(frames_[0].arrivals.size(), 3u);
  EXPECT_EQ(frames_[0].arrivals[2].path_id, 1);
}

TEST_F(PacketBufferTest, AssemblesOutOfOrderArrival) {
  buffer_.Insert(MakePacket(2, 0, false, true), Timestamp::Millis(15), 0);
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(16), 0);
  buffer_.Insert(MakePacket(1, 0, false, false), Timestamp::Millis(17), 0);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.fcd, Duration::Millis(2));
}

TEST_F(PacketBufferTest, DuplicatesIgnored) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(2), 1);
  EXPECT_EQ(buffer_.stats().duplicates, 1);
  EXPECT_EQ(buffer_.stats().inserted, 1);
}

TEST_F(PacketBufferTest, MissingMiddlePacketBlocksAssembly) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.Insert(MakePacket(2, 0, false, true), Timestamp::Millis(2), 0);
  EXPECT_TRUE(frames_.empty());
  buffer_.Insert(MakePacket(1, 0, false, false), Timestamp::Millis(9), 0);
  EXPECT_EQ(frames_.size(), 1u);
}

TEST_F(PacketBufferTest, OverflowEvictsOldestAndDestroysFrame) {
  // Frame 0 incomplete (missing seq 1), then flood with later frames.
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  uint16_t seq = 2;
  for (int frame = 1; frame <= 10; ++frame) {
    buffer_.Insert(MakePacket(seq, frame, true, false), Timestamp::Millis(frame), 0);
    buffer_.Insert(MakePacket(seq + 1, frame, false, false),
                   Timestamp::Millis(frame), 0);
    // Leave each frame incomplete so the buffer fills up.
    seq += 3;
  }
  EXPECT_GT(buffer_.stats().evicted, 0);
  EXPECT_GT(buffer_.stats().frames_destroyed, 0);
  EXPECT_LE(buffer_.size(), 16u);
}

TEST_F(PacketBufferTest, PurgeDropsFramesUpToId) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.Insert(MakePacket(3, 1, true, false), Timestamp::Millis(2), 0);
  buffer_.Insert(MakePacket(6, 2, true, false), Timestamp::Millis(3), 0);
  buffer_.PurgeFramesUpTo(1);
  EXPECT_EQ(buffer_.stats().purged, 2);
  EXPECT_EQ(buffer_.size(), 1u);
  // Frame 2 can still complete.
  buffer_.Insert(MakePacket(7, 2, false, true), Timestamp::Millis(4), 0);
  EXPECT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.frame_id, 2);
}

TEST_F(PacketBufferTest, PurgedFrameCannotAssembleLater) {
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(1), 0);
  buffer_.PurgeFramesUpTo(0);
  buffer_.Insert(MakePacket(1, 0, false, true), Timestamp::Millis(2), 0);
  EXPECT_TRUE(frames_.empty());
}

TEST_F(PacketBufferTest, TracksRecoveredPackets) {
  RtpPacket fec_recovered = MakePacket(1, 0, false, true);
  fec_recovered.via_fec = true;
  RtpPacket rtx = MakePacket(0, 0, true, false);
  rtx.via_rtx = true;
  buffer_.Insert(rtx, Timestamp::Millis(1), 0);
  buffer_.Insert(fec_recovered, Timestamp::Millis(2), 0);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.recovered_by_fec, 1);
  EXPECT_EQ(frames_[0].frame.recovered_by_rtx, 1);
}

TEST_F(PacketBufferTest, SingleShotFrame) {
  RtpPacket p = MakePacket(0, 0, true, true);
  buffer_.Insert(p, Timestamp::Millis(3), 2);
  ASSERT_EQ(frames_.size(), 1u);
  EXPECT_EQ(frames_[0].frame.fcd, Duration::Zero());
}

TEST_F(PacketBufferTest, FullBufferEvictsTheFirstInsertedNotTheLowestSeq) {
  // Frame 50's first packet arrives before fifteen lower seqs, each the
  // first packet of its own incomplete frame: the buffer is full.
  buffer_.Insert(MakePacket(100, 50, true, false), Timestamp::Millis(1), 0);
  for (uint16_t seq = 0; seq < 15; ++seq) {
    buffer_.Insert(MakePacket(seq, seq, true, false), Timestamp::Millis(2), 0);
  }
  ASSERT_EQ(buffer_.size(), 16u);
  EXPECT_EQ(buffer_.stats().evicted, 0);

  buffer_.Insert(MakePacket(15, 15, true, false), Timestamp::Millis(3), 0);
  EXPECT_EQ(buffer_.size(), 16u);
  EXPECT_EQ(buffer_.stats().evicted, 1);
  EXPECT_EQ(buffer_.stats().frames_destroyed, 1);
  // The lowest seq is still held; seq 100 is gone.
  buffer_.Insert(MakePacket(0, 0, true, false), Timestamp::Millis(4), 0);
  EXPECT_EQ(buffer_.stats().duplicates, 1);
  EXPECT_EQ(buffer_.stats().evicted, 1);
  buffer_.Insert(MakePacket(100, 50, true, false), Timestamp::Millis(5), 0);
  EXPECT_EQ(buffer_.stats().duplicates, 1);
  EXPECT_EQ(buffer_.stats().inserted, 18);
  // Frame 50 was destroyed: its packets never gather.
  buffer_.Insert(MakePacket(101, 50, false, true), Timestamp::Millis(6), 0);
  EXPECT_TRUE(frames_.empty());
}

TEST_F(PacketBufferTest, FrameAcrossSeqWrapAssembles) {
  buffer_.Insert(MakePacket(65534, 7, true, false), Timestamp::Millis(1), 0);
  buffer_.Insert(MakePacket(0, 7, false, false), Timestamp::Millis(2), 1);
  buffer_.Insert(MakePacket(1, 7, false, true), Timestamp::Millis(3), 0);
  EXPECT_TRUE(frames_.empty());
  buffer_.Insert(MakePacket(65535, 7, false, false), Timestamp::Millis(4), 1);
  ASSERT_EQ(frames_.size(), 1u);
  const GatheredFrame& g = frames_[0];
  EXPECT_EQ(g.frame.frame_id, 7);
  EXPECT_EQ(g.frame.packets, 4);
  EXPECT_EQ(g.frame.fcd, Duration::Millis(3));
  ASSERT_EQ(g.arrivals.size(), 4u);
  for (size_t i = 0; i < g.arrivals.size(); ++i) {
    EXPECT_EQ(g.arrivals[i].seq, 65534 + static_cast<int64_t>(i));
  }
  EXPECT_EQ(g.arrivals[1].arrival, Timestamp::Millis(4));
  EXPECT_EQ(buffer_.size(), 0u);
}

}  // namespace
}  // namespace converge
