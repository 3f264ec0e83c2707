#include <gtest/gtest.h>

#include "receiver/frame_buffer.h"

namespace converge {
namespace {

AssembledFrame MakeFrame(int64_t id, FrameKind kind = FrameKind::kDelta,
                         int64_t gop = 0) {
  AssembledFrame f;
  f.stream_id = 0;
  f.frame_id = id;
  f.gop_id = gop;
  f.kind = kind;
  return f;
}

class FrameBufferTest : public testing::Test {
 protected:
  FrameBufferTest()
      : buffer_(&loop_, {.capacity_frames = 4, .max_wait = Duration::Millis(100)},
                [this](const AssembledFrame& f) { released_.push_back(f.frame_id); },
                [this] { ++keyframe_requests_; },
                [this](int64_t upto) { purges_.push_back(upto); }) {}

  EventLoop loop_;
  FrameBuffer buffer_;
  std::vector<int64_t> released_;
  int keyframe_requests_ = 0;
  std::vector<int64_t> purges_;
};

TEST_F(FrameBufferTest, ReleasesInOrder) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  buffer_.Insert(MakeFrame(1));
  buffer_.Insert(MakeFrame(2));
  EXPECT_EQ(released_, (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(buffer_.stats().frames_released, 3);
}

TEST_F(FrameBufferTest, ReordersOutOfOrderInsertions) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  buffer_.Insert(MakeFrame(2));
  buffer_.Insert(MakeFrame(3));
  EXPECT_EQ(released_, (std::vector<int64_t>{0}));
  buffer_.Insert(MakeFrame(1));
  EXPECT_EQ(released_, (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(buffer_.stats().frames_dropped, 0);
}

TEST_F(FrameBufferTest, WaitTimeoutSkipsMissingFrame) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  buffer_.Insert(MakeFrame(2));  // frame 1 missing
  loop_.RunUntil(Timestamp::Millis(50));
  EXPECT_EQ(released_, (std::vector<int64_t>{0}));
  loop_.RunUntil(Timestamp::Millis(200));
  // After max_wait the buffer jumps: frame 1 dropped. Frame 2 is a delta
  // whose reference is gone, so it is purged rather than released, and a
  // keyframe is requested.
  EXPECT_EQ(released_, (std::vector<int64_t>{0}));
  EXPECT_EQ(buffer_.stats().frames_dropped, 2);
  EXPECT_GE(keyframe_requests_, 1);  // re-requested while dropping
  ASSERT_EQ(purges_.size(), 1u);
  EXPECT_EQ(purges_[0], 1);
}

TEST_F(FrameBufferTest, FullBufferForcesJumpWithoutWaiting) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  for (int64_t id = 2; id <= 5; ++id) buffer_.Insert(MakeFrame(id));
  // Capacity 4 reached -> immediate jump over frame 1; the buffered deltas
  // are undecodable without it and get dropped too.
  EXPECT_EQ(released_, (std::vector<int64_t>{0}));
  EXPECT_EQ(buffer_.stats().frames_dropped, 5);
  EXPECT_GE(keyframe_requests_, 1);

  // A fresh keyframe restores decoding.
  buffer_.Insert(MakeFrame(6, FrameKind::kKey, /*gop=*/1));
  EXPECT_EQ(released_, (std::vector<int64_t>{0, 6}));
}

TEST_F(FrameBufferTest, JumpPrefersBufferedKeyframe) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  buffer_.Insert(MakeFrame(2));
  buffer_.Insert(MakeFrame(3));
  buffer_.Insert(MakeFrame(4, FrameKind::kKey, /*gop=*/1));
  buffer_.Insert(MakeFrame(5, FrameKind::kDelta, /*gop=*/1));
  // Buffer full -> jump straight to the keyframe at 4, dropping 1-3.
  EXPECT_EQ(released_, (std::vector<int64_t>{0, 4, 5}));
  EXPECT_EQ(buffer_.stats().frames_dropped, 3);
  EXPECT_EQ(buffer_.stats().keyframe_jumps, 1);
  EXPECT_EQ(keyframe_requests_, 0);  // no request needed: chain restarts
}

TEST_F(FrameBufferTest, StaleFrameIgnoredAfterSkip) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  buffer_.Insert(MakeFrame(2));
  loop_.RunUntil(Timestamp::Millis(200));  // frame 1 skipped, 2 purged
  const int64_t drops = buffer_.stats().frames_dropped;
  EXPECT_EQ(drops, 2);
  buffer_.Insert(MakeFrame(1));  // arrives too late
  EXPECT_EQ(buffer_.stats().frames_dropped, drops);  // not double counted
  EXPECT_EQ(released_, (std::vector<int64_t>{0}));
}

TEST_F(FrameBufferTest, IfdTracksInsertionGap) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  loop_.ScheduleAt(Timestamp::Millis(40), [this] { buffer_.Insert(MakeFrame(1)); });
  loop_.RunUntil(Timestamp::Millis(50));
  EXPECT_EQ(buffer_.last_ifd(), Duration::Millis(40));
}

TEST_F(FrameBufferTest, TimerRearmsAfterProgress) {
  buffer_.Insert(MakeFrame(0, FrameKind::kKey));
  buffer_.Insert(MakeFrame(2));
  // Frame 1 shows up before the deadline: no drop.
  loop_.ScheduleAt(Timestamp::Millis(50), [this] { buffer_.Insert(MakeFrame(1)); });
  loop_.RunUntil(Timestamp::Millis(300));
  EXPECT_EQ(buffer_.stats().frames_dropped, 0);
  EXPECT_EQ(released_, (std::vector<int64_t>{0, 1, 2}));

  // A later gap still triggers the jump (timer re-arms). Frame 3 is
  // missing and frame 4 is an undecodable delta: both count as dropped.
  buffer_.Insert(MakeFrame(4));
  loop_.RunUntil(Timestamp::Millis(600));
  EXPECT_EQ(buffer_.stats().frames_dropped, 2);
}

}  // namespace
}  // namespace converge
