#include <gtest/gtest.h>

#include "fec/converge_fec_controller.h"
#include "fec/fec_tables.h"
#include "fec/webrtc_fec_controller.h"
#include "fec/xor_fec.h"
#include "receiver/fec_recovery.h"

namespace converge {
namespace {

std::vector<RtpPacket> MakeMedia(int n, uint16_t first_seq = 0) {
  std::vector<RtpPacket> out;
  for (int i = 0; i < n; ++i) {
    RtpPacket p;
    p.ssrc = 0x1000;
    p.seq = static_cast<uint16_t>(first_seq + i);
    p.frame_id = 5;
    p.gop_id = 1;
    p.kind = PayloadKind::kMedia;
    p.payload_bytes = 1000 + i;
    out.push_back(p);
  }
  return out;
}

std::vector<const RtpPacket*> Ptrs(const std::vector<RtpPacket>& v) {
  std::vector<const RtpPacket*> out;
  for (const auto& p : v) out.push_back(&p);
  return out;
}

std::vector<uint16_t> ProtectedSeqs(const RtpPacket& parity) {
  std::vector<uint16_t> out;
  if (parity.fec) {
    for (const ProtectedPacketMeta& meta : parity.fec->covered) {
      out.push_back(meta.seq);
    }
  }
  return out;
}

TEST(XorFecTest, GeneratesRequestedParityCount) {
  const auto media = MakeMedia(10);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 3, 42);
  ASSERT_EQ(parity.size(), 3u);
  for (const auto& f : parity) {
    EXPECT_EQ(f.kind, PayloadKind::kFec);
    EXPECT_EQ(f.priority, Priority::kFec);
    ASSERT_NE(f.fec, nullptr);
    EXPECT_EQ(f.fec->block_id, 42);
    EXPECT_FALSE(f.fec->covered.empty());
  }
  // Interleaved groups: parity g covers seqs {g, g+3, g+6, ...}.
  EXPECT_EQ(ProtectedSeqs(parity[0]), (std::vector<uint16_t>{0, 3, 6, 9}));
  EXPECT_EQ(ProtectedSeqs(parity[1]), (std::vector<uint16_t>{1, 4, 7}));
  EXPECT_EQ(ProtectedSeqs(parity[2]), (std::vector<uint16_t>{2, 5, 8}));
}

TEST(XorFecTest, EveryMediaPacketCoveredExactlyOnce) {
  const auto media = MakeMedia(17);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 4, 0);
  std::map<uint16_t, int> coverage;
  for (const auto& f : parity) {
    for (uint16_t s : ProtectedSeqs(f)) ++coverage[s];
  }
  EXPECT_EQ(coverage.size(), 17u);
  for (const auto& [seq, n] : coverage) EXPECT_EQ(n, 1);
}

TEST(XorFecTest, ParityCountClampedToMediaCount) {
  const auto media = MakeMedia(2);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 10, 0);
  EXPECT_EQ(parity.size(), 2u);
}

TEST(XorFecTest, ZeroFecOrEmptyMediaYieldNothing) {
  const auto media = MakeMedia(5);
  EXPECT_TRUE(XorFecEncoder::Generate(Ptrs(media), 0, 0).empty());
  EXPECT_TRUE(XorFecEncoder::Generate({}, 3, 0).empty());
}

TEST(XorFecTest, ParityPayloadCoversLargestPacket) {
  const auto media = MakeMedia(6);  // sizes 1000..1005
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 1, 0);
  ASSERT_EQ(parity.size(), 1u);
  EXPECT_GE(parity[0].payload_bytes, 1005);
}

TEST(FecRecoveryTest, RecoversSingleLoss) {
  const auto media = MakeMedia(4);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 1, 7);

  std::vector<RtpPacket> recovered;
  FecRecoverer rec([&](const RtpPacket& p) { recovered.push_back(p); });
  // Deliver all but seq 2, then the parity packet.
  for (const auto& p : media) {
    if (p.seq != 2) rec.OnMediaPacket(p);
  }
  rec.OnFecPacket(parity[0]);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].seq, 2);
  EXPECT_TRUE(recovered[0].via_fec);
  EXPECT_EQ(recovered[0].frame_id, 5);
  EXPECT_EQ(recovered[0].payload_bytes, 1002);
  EXPECT_EQ(rec.stats().fec_used, 1);
}

TEST(FecRecoveryTest, CannotRecoverTwoLossesInOneGroup) {
  const auto media = MakeMedia(4);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 1, 7);
  std::vector<RtpPacket> recovered;
  FecRecoverer rec([&](const RtpPacket& p) { recovered.push_back(p); });
  rec.OnMediaPacket(media[0]);
  rec.OnMediaPacket(media[1]);  // seqs 2 and 3 missing
  rec.OnFecPacket(parity[0]);
  EXPECT_TRUE(recovered.empty());
  EXPECT_EQ(rec.stats().fec_used, 0);
  EXPECT_EQ(rec.pending(), 1u);
}

TEST(FecRecoveryTest, LateMediaArrivalTriggersPendingRecovery) {
  const auto media = MakeMedia(4);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 1, 7);
  std::vector<RtpPacket> recovered;
  FecRecoverer rec([&](const RtpPacket& p) { recovered.push_back(p); });
  rec.OnMediaPacket(media[0]);
  rec.OnMediaPacket(media[1]);
  rec.OnFecPacket(parity[0]);  // two missing: parked
  EXPECT_TRUE(recovered.empty());
  rec.OnMediaPacket(media[2]);  // now only seq 3 missing
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].seq, 3);
}

TEST(FecRecoveryTest, TwoParityPacketsRecoverTwoLossesInDistinctGroups) {
  const auto media = MakeMedia(6);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 2, 9);
  std::vector<RtpPacket> recovered;
  FecRecoverer rec([&](const RtpPacket& p) { recovered.push_back(p); });
  // Lose seq 0 (group 0) and seq 1 (group 1).
  for (const auto& p : media) {
    if (p.seq >= 2) rec.OnMediaPacket(p);
  }
  rec.OnFecPacket(parity[0]);
  rec.OnFecPacket(parity[1]);
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(rec.stats().fec_used, 2);
}

// After the 16-bit seq wraps, the newest arrivals must still count as
// seen: a record that keeps the lowest keys forgets them at once.
TEST(FecRecoveryTest, RecoversLossAfterSeqWrap) {
  std::vector<RtpPacket> recovered;
  FecRecoverer rec([&](const RtpPacket& p) { recovered.push_back(p); });
  RtpPacket p = MakeMedia(1).front();
  for (int i = 0; i < 0x10000 + 96; ++i) {
    p.seq = static_cast<uint16_t>(i);
    rec.OnMediaPacket(p);
  }
  const auto media = MakeMedia(4, 96);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 1, 7);
  for (const auto& m : media) {
    if (m.seq != 98) rec.OnMediaPacket(m);
  }
  rec.OnFecPacket(parity[0]);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].seq, 98);
  EXPECT_EQ(rec.stats().fec_used, 1);
  EXPECT_TRUE(rec.Seen(98));
}

// The record holds the newest kSeenWindow keys: keys older than that or
// ahead of the newest read as unseen, and advancing the newest clears the
// positions it passes.
TEST(FecRecoveryTest, SeenHoldsTheNewestWindowOnly) {
  FecRecoverer rec([](const RtpPacket&) { FAIL() << "unexpected recovery"; });
  RtpPacket p = MakeMedia(1).front();
  for (uint16_t seq : {0, 1, 3}) {
    p.seq = seq;
    rec.OnMediaPacket(p);
  }
  EXPECT_TRUE(rec.Seen(1));
  EXPECT_FALSE(rec.Seen(2));
  EXPECT_FALSE(rec.Seen(4));
  p.seq = FecRecoverer::kSeenWindow + 1;  // shares key 1's position
  rec.OnMediaPacket(p);
  EXPECT_FALSE(rec.Seen(0));
  EXPECT_FALSE(rec.Seen(1));
  EXPECT_TRUE(rec.Seen(3));
  EXPECT_FALSE(rec.Seen(4));  // passed by the advance
  EXPECT_TRUE(rec.Seen(FecRecoverer::kSeenWindow + 1));
  p.seq = 2;  // a late arrival inside the window still counts
  rec.OnMediaPacket(p);
  EXPECT_TRUE(rec.Seen(2));
}

TEST(FecRecoveryTest, NothingMissingCountsAsUnused) {
  const auto media = MakeMedia(4);
  const auto parity = XorFecEncoder::Generate(Ptrs(media), 1, 7);
  FecRecoverer rec([](const RtpPacket&) { FAIL() << "unexpected recovery"; });
  for (const auto& p : media) rec.OnMediaPacket(p);
  rec.OnFecPacket(parity[0]);
  EXPECT_EQ(rec.stats().fec_received, 1);
  EXPECT_EQ(rec.stats().fec_used, 0);
}

TEST(FecTablesTest, MatchesPaperCalibrationPoints) {
  // ~40% at 1% loss (Figure 12), rising with loss; keyframes doubled.
  EXPECT_NEAR(WebRtcProtectionFactor(0.01, FrameKind::kDelta), 0.40, 0.02);
  EXPECT_GT(WebRtcProtectionFactor(0.10, FrameKind::kDelta), 0.55);
  EXPECT_NEAR(WebRtcProtectionFactor(0.01, FrameKind::kKey), 0.80, 0.02);
  EXPECT_LT(WebRtcProtectionFactor(0.0, FrameKind::kDelta), 0.05);
}

TEST(FecTablesTest, MonotoneInLoss) {
  double prev = 0.0;
  for (double loss = 0.0; loss <= 0.2; loss += 0.005) {
    const double f = WebRtcProtectionFactor(loss, FrameKind::kDelta);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(WebRtcFecControllerTest, LongRunOverheadMatchesTable) {
  WebRtcFecController ctl;
  int64_t media = 0;
  int64_t fec = 0;
  for (int frame = 0; frame < 1000; ++frame) {
    const int m = 10;
    fec += ctl.NumFecPackets(m, FrameKind::kDelta, 0, 0.01, 0.01);
    media += m;
  }
  const double overhead = static_cast<double>(fec) / media;
  EXPECT_NEAR(overhead, 0.40, 0.02);
}

TEST(WebRtcFecControllerTest, UsesAggregateLossNotPathLoss) {
  WebRtcFecController ctl;
  int64_t fec_low = 0;
  int64_t fec_high = 0;
  for (int i = 0; i < 200; ++i) {
    fec_low += ctl.NumFecPackets(10, FrameKind::kDelta, 0,
                                 /*path_loss=*/0.2, /*aggregate=*/0.0);
  }
  WebRtcFecController ctl2;
  for (int i = 0; i < 200; ++i) {
    fec_high += ctl2.NumFecPackets(10, FrameKind::kDelta, 0,
                                   /*path_loss=*/0.0, /*aggregate=*/0.1);
  }
  EXPECT_LT(fec_low, fec_high);  // keyed on aggregate, not the path
}

TEST(ConvergeFecControllerTest, OverheadTracksPathLoss) {
  ConvergeFecController ctl;
  int64_t media = 0;
  int64_t fec = 0;
  for (int frame = 0; frame < 2000; ++frame) {
    const int m = 10;
    fec += ctl.NumFecPackets(m, FrameKind::kDelta, 0, 0.05, 0.20);
    ctl.OnFrameSent(0, m, 0);
    media += m;
  }
  // beta ~= 1 with no NACKs -> overhead ~= path loss (5%), far below the
  // table's 40%+.
  EXPECT_NEAR(static_cast<double>(fec) / media, 0.05, 0.01);
}

TEST(ConvergeFecControllerTest, ZeroLossMeansNoFec) {
  ConvergeFecController ctl;
  int64_t fec = 0;
  for (int i = 0; i < 100; ++i) {
    fec += ctl.NumFecPackets(10, FrameKind::kDelta, 0, 0.0, 0.0);
  }
  EXPECT_EQ(fec, 0);
}

TEST(ConvergeFecControllerTest, NackRaisesBetaAndDecays) {
  ConvergeFecController ctl;
  ctl.OnFrameSent(0, 100, 5);
  EXPECT_NEAR(ctl.beta(0), 1.0, 0.01);
  ctl.OnNack(0, 19);  // beta = 1 + 19/95 = 1.2
  EXPECT_NEAR(ctl.beta(0), 1.2, 0.01);
  for (int i = 0; i < 200; ++i) ctl.OnFrameSent(0, 10, 1);
  EXPECT_NEAR(ctl.beta(0), 1.0, 0.02);  // decayed back
}

TEST(ConvergeFecControllerTest, KeyframesGetExtraProtection) {
  ConvergeFecController ctl;
  int64_t fec_key = 0;
  int64_t fec_delta = 0;
  for (int i = 0; i < 500; ++i) {
    fec_key += ctl.NumFecPackets(10, FrameKind::kKey, 0, 0.05, 0.05);
  }
  ConvergeFecController ctl2;
  for (int i = 0; i < 500; ++i) {
    fec_delta += ctl2.NumFecPackets(10, FrameKind::kDelta, 0, 0.05, 0.05);
  }
  EXPECT_NEAR(static_cast<double>(fec_key) / fec_delta, 2.0, 0.3);
}

TEST(ConvergeFecControllerTest, BetaIsPerPath) {
  ConvergeFecController ctl;
  ctl.OnFrameSent(0, 100, 5);
  ctl.OnFrameSent(1, 100, 5);
  ctl.OnNack(1, 50);
  EXPECT_NEAR(ctl.beta(0), 1.0, 0.05);
  EXPECT_GT(ctl.beta(1), 1.3);
}

}  // namespace
}  // namespace converge
