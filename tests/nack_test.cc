#include <gtest/gtest.h>

#include <cstring>

#include "receiver/nack_generator.h"
#include "util/trace_recorder.h"

namespace converge {
namespace {

class NackTest : public testing::Test {
 protected:
  NackTest()
      : nack_(&loop_,
              {.reorder_grace = Duration::Millis(10),
               .retry_interval = Duration::Millis(100),
               .max_retries = 3},
              [this](PathId path, const std::vector<uint16_t>& seqs) {
                for (uint16_t s : seqs) sent_.emplace_back(path, s);
              }) {}

  EventLoop loop_;
  NackGenerator nack_;
  std::vector<std::pair<PathId, uint16_t>> sent_;
};

TEST_F(NackTest, NoNackWithoutGap) {
  for (uint16_t s = 0; s < 10; ++s) nack_.OnPacket(0, s);
  loop_.RunUntil(Timestamp::Millis(500));
  EXPECT_TRUE(sent_.empty());
}

TEST_F(NackTest, GapTriggersNackAfterGrace) {
  nack_.OnPacket(0, 0);
  nack_.OnPacket(0, 3);  // 1, 2 missing on path 0
  loop_.RunUntil(Timestamp::Millis(5));
  EXPECT_TRUE(sent_.empty());  // still within the reorder grace window
  loop_.RunUntil(Timestamp::Millis(30));
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0], (std::pair<PathId, uint16_t>{0, 1}));
  EXPECT_EQ(sent_[1], (std::pair<PathId, uint16_t>{0, 2}));
}

TEST_F(NackTest, ReorderedArrivalCancelsNack) {
  nack_.OnPacket(0, 0);
  nack_.OnPacket(0, 2);
  nack_.OnPacket(0, 1);  // reorder fills the gap in time
  loop_.RunUntil(Timestamp::Millis(100));
  EXPECT_TRUE(sent_.empty());
  EXPECT_EQ(nack_.outstanding(), 0u);
}

TEST_F(NackTest, RetriesThenGivesUp) {
  nack_.OnPacket(0, 0);
  nack_.OnPacket(0, 2);
  loop_.RunUntil(Timestamp::Seconds(2.0));
  EXPECT_EQ(sent_.size(), 3u);  // 3 retries max for seq 1
  EXPECT_EQ(nack_.outstanding(), 0u);
  EXPECT_EQ(nack_.stats().abandoned, 1);
}

TEST_F(NackTest, ArrivalAfterNackCountsRecovered) {
  nack_.OnPacket(0, 0);
  nack_.OnPacket(0, 2);
  loop_.RunUntil(Timestamp::Millis(50));
  EXPECT_EQ(sent_.size(), 1u);
  nack_.OnPacket(0, 1);  // RTX arrived
  loop_.RunUntil(Timestamp::Seconds(2.0));
  EXPECT_EQ(sent_.size(), 1u);  // no more retries
  EXPECT_EQ(nack_.stats().recovered, 1);
}

TEST_F(NackTest, PathsTrackedIndependently) {
  // A gap on path 1 must not be confused with path 0's sequence space.
  nack_.OnPacket(0, 100);
  nack_.OnPacket(1, 10);
  nack_.OnPacket(1, 12);  // gap at (1, 11)
  nack_.OnPacket(0, 101);  // contiguous on path 0
  loop_.RunUntil(Timestamp::Millis(50));
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0], (std::pair<PathId, uint16_t>{1, 11}));
}

TEST_F(NackTest, CrossPathSkewProducesNoNacks) {
  // The core multipath property: interleaved delivery across two paths
  // (each FIFO) never looks like loss, no matter the skew.
  for (uint16_t s = 0; s < 50; ++s) nack_.OnPacket(0, s);
  for (uint16_t s = 0; s < 50; ++s) nack_.OnPacket(1, s);
  loop_.RunUntil(Timestamp::Seconds(1.0));
  EXPECT_TRUE(sent_.empty());
}

TEST_F(NackTest, BurstLossCappedAtOutstandingLimit) {
  NackGenerator capped(&loop_,
                       {.reorder_grace = Duration::Millis(5),
                        .retry_interval = Duration::Millis(100),
                        .max_retries = 3,
                        .max_outstanding_per_path = 16},
                       [this](PathId, const std::vector<uint16_t>& seqs) {
                         for (uint16_t s : seqs) sent_.emplace_back(0, s);
                       });
  capped.OnPacket(0, 0);
  capped.OnPacket(0, 500);  // 499 packets "lost" at once: a path collapse
  EXPECT_LE(capped.outstanding(), 16u);
  EXPECT_GE(capped.stats().abandoned, 483);
  loop_.RunUntil(Timestamp::Millis(50));
  EXPECT_LE(sent_.size(), 16u);  // no NACK storm
}

TEST_F(NackTest, EntriesExpireByAge) {
  NackGenerator aged(&loop_,
                     {.reorder_grace = Duration::Millis(5),
                      .retry_interval = Duration::Millis(500),
                      .max_retries = 100,
                      .max_age = Duration::Millis(200)},
                     [](PathId, const std::vector<uint16_t>&) {});
  aged.OnPacket(0, 0);
  aged.OnPacket(0, 2);
  loop_.RunUntil(Timestamp::Millis(400));
  // Expired long before the 100 retries could happen.
  EXPECT_EQ(aged.outstanding(), 0u);
  EXPECT_EQ(aged.stats().abandoned, 1);
}

TEST_F(NackTest, OnRecoveredClearsChase) {
  nack_.OnPacket(0, 0);
  nack_.OnPacket(0, 2);
  loop_.RunUntil(Timestamp::Millis(30));
  const size_t after_first = sent_.size();
  EXPECT_GE(after_first, 1u);
  nack_.OnRecovered(0, 1);
  loop_.RunUntil(Timestamp::Seconds(1.0));
  EXPECT_EQ(sent_.size(), after_first);  // no retries after recovery
  EXPECT_EQ(nack_.stats().recovered, 1);
}

TEST_F(NackTest, WrapAroundGapDetected) {
  nack_.OnPacket(0, 0xFFFE);
  nack_.OnPacket(0, 1);  // 0xFFFF and 0 missing across the wrap
  loop_.RunUntil(Timestamp::Millis(50));
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0].second, 0xFFFF);
  EXPECT_EQ(sent_[1].second, 0);
}

// Regression for the seq-truncation bug: entries used to store `s & 0xFFFF`
// next to the unwrapped key, and OnRecovered did a first-match linear scan
// on the truncated value — ambiguous whenever the chase list straddles the
// 0xFFFF→0x0000 boundary. Recovery at the boundary must erase exactly the
// right entry.
TEST_F(NackTest, RecoveryAcrossWrapBoundaryClearsRightEntry) {
  nack_.OnPacket(0, 0xFFFD);
  nack_.OnPacket(0, 2);  // missing: 0xFFFE, 0xFFFF, 0, 1 across the wrap
  EXPECT_EQ(nack_.outstanding(), 4u);

  nack_.OnRecovered(0, 0xFFFF);  // pre-wrap wire seq
  nack_.OnRecovered(0, 0);       // post-wrap wire seq
  EXPECT_EQ(nack_.outstanding(), 2u);
  EXPECT_EQ(nack_.stats().recovered, 2);

  // The survivors are exactly 0xFFFE and 1.
  loop_.RunUntil(Timestamp::Millis(50));
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0].second, 0xFFFE);
  EXPECT_EQ(sent_[1].second, 1);
}

// A recovery notice for a sequence that is not being chased (e.g. a stale
// duplicate RTX) must be a no-op — in particular it must not erase an alias
// 65536 away or disturb the unwrapper.
TEST_F(NackTest, SpuriousRecoveryIsNoOp) {
  nack_.OnPacket(0, 10);
  nack_.OnPacket(0, 13);  // missing: 11, 12
  nack_.OnRecovered(0, 11);
  EXPECT_EQ(nack_.outstanding(), 1u);
  // Same wire seq again, and one that was never missing.
  nack_.OnRecovered(0, 11);
  nack_.OnRecovered(0, 500);
  EXPECT_EQ(nack_.outstanding(), 1u);
  EXPECT_EQ(nack_.stats().recovered, 1);
  // Gap detection still works after the recovery calls.
  nack_.OnPacket(0, 15);  // 14 now missing too
  EXPECT_EQ(nack_.outstanding(), 2u);
}

// A stale arrival from >32768 behind unwraps FORWARD (int16 delta), which
// used to insert up to 65535 chase entries one by one before trimming. The
// generator must survive such a jump with bounded work and a bounded list.
TEST_F(NackTest, HugeForwardJumpIsBounded) {
  nack_.OnPacket(0, 100);
  nack_.OnPacket(0, 40000);  // unwraps ~39900 ahead
  EXPECT_LE(nack_.outstanding(), 64u);  // default max_outstanding_per_path
  EXPECT_GE(nack_.stats().abandoned, 39'800);
  // Still functional afterwards: the newest entries are chased.
  loop_.RunUntil(Timestamp::Millis(50));
  EXPECT_GT(sent_.size(), 0u);
  EXPECT_LE(sent_.size(), 64u);
}

// With nothing outstanding the 5-ms timer sleeps: Process is not called,
// so its "outstanding" trace counter is not sampled. A gap wakes it on its
// unchanged grid, and the NACK leaves at the first grid point past the
// reorder grace, as it would from a generator that ticked all along.
TEST(NackSleepTest, SleepsWithNothingOutstandingAndWakesOnItsGrid) {
  TraceRecorder recorder;
  TraceScope scope(&recorder);
  EventLoop loop;
  using Sent = std::pair<Timestamp, uint16_t>;
  std::vector<Sent> sent;
  NackGenerator nack(&loop, {.reorder_grace = Duration::Millis(10)},
                     [&](int64_t, const std::vector<uint16_t>& seqs) {
                       for (uint16_t s : seqs) sent.emplace_back(loop.now(), s);
                     });
  const auto ticks = [&recorder] {
    int n = 0;
    for (const TraceEvent& e : recorder.Snapshot()) {
      n += std::strcmp(e.name, "outstanding") == 0 ? 1 : 0;
    }
    return n;
  };

  nack.OnPacket(0, 0);
  loop.RunUntil(Timestamp::Micros(12'300));
  EXPECT_EQ(ticks(), 0);

  nack.OnPacket(0, 3);  // 1 and 2 missing from 12.3 ms, due at 22.3 ms
  loop.RunUntil(Timestamp::Millis(30));
  EXPECT_EQ(ticks(), 4);  // 15, 20, 25 and 30 ms
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_EQ(sent[0], (Sent{Timestamp::Millis(25), 1}));
  EXPECT_EQ(sent[1], (Sent{Timestamp::Millis(25), 2}));

  nack.OnPacket(0, 1);
  nack.OnPacket(0, 2);
  EXPECT_EQ(nack.outstanding(), 0u);
  loop.RunUntil(Timestamp::Millis(500));
  EXPECT_EQ(ticks(), 5);  // the 35-ms tick finds nothing and sleeps
  EXPECT_EQ(nack.stats().recovered, 2);
}

}  // namespace
}  // namespace converge
