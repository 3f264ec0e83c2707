#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "rtp/rtp_packet.h"
#include "rtp/sequence_number.h"
#include "util/invariants.h"
#include "video/packetizer.h"

namespace converge {
namespace {

TEST(SequenceNumberTest, NewerThanHandlesWrap) {
  EXPECT_TRUE(SeqNewerThan(1, 0));
  EXPECT_TRUE(SeqNewerThan(0, 0xFFFF));  // wrap
  EXPECT_FALSE(SeqNewerThan(0xFFFF, 0));
  EXPECT_FALSE(SeqNewerThan(5, 5));
  EXPECT_TRUE(SeqNewerThan(0x8000, 0x0001));
}

TEST(SequenceNumberTest, Distance) {
  EXPECT_EQ(SeqDistance(10, 15), 5);
  EXPECT_EQ(SeqDistance(0xFFFE, 2), 4);  // across the wrap
}

TEST(SeqUnwrapperTest, MonotoneAcrossWrap) {
  SeqUnwrapper u;
  EXPECT_EQ(u.Unwrap(0xFFFE), 0xFFFE);
  EXPECT_EQ(u.Unwrap(0xFFFF), 0xFFFF);
  EXPECT_EQ(u.Unwrap(0), 0x10000);
  EXPECT_EQ(u.Unwrap(1), 0x10001);
}

TEST(SeqUnwrapperTest, HandlesReordering) {
  SeqUnwrapper u;
  EXPECT_EQ(u.Unwrap(100), 100);
  EXPECT_EQ(u.Unwrap(99), 99);   // late packet: unwraps backwards
  EXPECT_EQ(u.Unwrap(101), 101);
}

TEST(RtpPacketTest, WireSizeIncludesHeaderAndExtension) {
  RtpPacket p;
  p.payload_bytes = 1000;
  EXPECT_EQ(p.wire_size(), 1000 + kRtpHeaderBytes + kMultipathExtensionBytes);
}

TEST(RtpPacketTest, SerializeParseRoundTrip) {
  RtpPacket p;
  p.ssrc = 0xDEADBEEF;
  p.seq = 0xABCD;
  p.rtp_timestamp = 123456789;
  p.marker = true;
  p.payload_type = 96;
  p.path_id = 2;
  p.mp_seq = 0x1234;
  p.mp_transport_seq = 0x5678;

  const std::vector<uint8_t> wire = SerializeRtpHeader(p);
  EXPECT_EQ(wire.size(),
            static_cast<size_t>(kRtpHeaderBytes + kMultipathExtensionBytes));

  RtpPacket out;
  ASSERT_TRUE(ParseRtpHeader(wire, &out));
  EXPECT_EQ(out.ssrc, p.ssrc);
  EXPECT_EQ(out.seq, p.seq);
  EXPECT_EQ(out.rtp_timestamp, p.rtp_timestamp);
  EXPECT_TRUE(out.marker);
  EXPECT_EQ(out.payload_type, 96);
  EXPECT_EQ(out.path_id, 2);
  EXPECT_EQ(out.mp_seq, 0x1234);
  EXPECT_EQ(out.mp_transport_seq, 0x5678);
}

TEST(RtpPacketTest, LayeredHeaderRoundTripsWithoutGrowingTheWire) {
  RtpPacket p;
  p.ssrc = 0x1234;
  p.seq = 77;
  p.spatial_id = 2;
  p.num_spatial = 3;
  p.temporal_id = 1;
  p.num_temporal = 2;

  const std::vector<uint8_t> wire = SerializeRtpHeader(p);
  // The layers element rides in the extension block's existing padding:
  // layered and unlayered headers serialize to the same size, so wire_size
  // accounting (and every byte-pinned fixture) is unchanged.
  EXPECT_EQ(wire.size(),
            static_cast<size_t>(kRtpHeaderBytes + kMultipathExtensionBytes));

  RtpPacket out;
  ASSERT_TRUE(ParseRtpHeader(wire, &out));
  EXPECT_EQ(out.spatial_id, 2);
  EXPECT_EQ(out.num_spatial, 3);
  EXPECT_EQ(out.temporal_id, 1);
  EXPECT_EQ(out.num_temporal, 2);
}

TEST(RtpPacketTest, UnlayeredHeaderBytesAreUnchangedAndParseToDefaults) {
  // Single-layer packets must not emit the layers element at all: the
  // serialized bytes are identical to the pre-layers wire format.
  RtpPacket p;
  p.ssrc = 0xDEAD;
  p.seq = 42;
  const std::vector<uint8_t> wire = SerializeRtpHeader(p);

  RtpPacket layered = p;
  layered.num_spatial = 1;
  layered.num_temporal = 1;
  layered.spatial_id = 0;
  layered.temporal_id = 0;
  EXPECT_EQ(SerializeRtpHeader(layered), wire);

  RtpPacket out;
  ASSERT_TRUE(ParseRtpHeader(wire, &out));
  EXPECT_EQ(out.spatial_id, 0);
  EXPECT_EQ(out.num_spatial, 1);
  EXPECT_EQ(out.temporal_id, 0);
  EXPECT_EQ(out.num_temporal, 1);
}

TEST(RtpPacketTest, ParseRejectsTruncatedBuffer) {
  RtpPacket p;
  std::vector<uint8_t> wire = SerializeRtpHeader(p);
  wire.resize(8);
  RtpPacket out;
  EXPECT_FALSE(ParseRtpHeader(wire, &out));
}

TEST(RtpPacketTest, ParseRejectsWrongVersion) {
  RtpPacket p;
  std::vector<uint8_t> wire = SerializeRtpHeader(p);
  wire[0] = 0x10;  // version 0
  RtpPacket out;
  EXPECT_FALSE(ParseRtpHeader(wire, &out));
}

TEST(RtpPacketTest, PriorityClassification) {
  RtpPacket p;
  p.priority = Priority::kKeyframe;
  EXPECT_TRUE(p.IsDecodingCritical());
  p.priority = Priority::kSps;
  EXPECT_TRUE(p.IsDecodingCritical());
  p.priority = Priority::kFec;
  EXPECT_FALSE(p.IsDecodingCritical());
  p.priority = Priority::kNone;
  EXPECT_FALSE(p.IsDecodingCritical());
}

// Table 2 ordering: retransmit > keyframe > SPS > PPS > FEC.
TEST(RtpPacketTest, PriorityLevelsMatchTable2) {
  EXPECT_LT(static_cast<int>(Priority::kRetransmit),
            static_cast<int>(Priority::kKeyframe));
  EXPECT_LT(static_cast<int>(Priority::kKeyframe),
            static_cast<int>(Priority::kSps));
  EXPECT_LT(static_cast<int>(Priority::kSps), static_cast<int>(Priority::kPps));
  EXPECT_LT(static_cast<int>(Priority::kPps), static_cast<int>(Priority::kFec));
}

TEST(RtpPacketTest, IsOneCacheLine) {
  EXPECT_EQ(sizeof(RtpPacket), 64u);
  EXPECT_EQ(sizeof(FecMetaRef), sizeof(void*));
}

// Every field at the edge of its range, set on one packet.
RtpPacket PacketAtFieldLimits() {
  RtpPacket p;
  p.capture_time = Timestamp::Micros(INT64_MAX - 1);
  p.send_time = Timestamp::Micros(-7);
  p.ssrc = UINT32_MAX;
  p.rtp_timestamp = UINT32_MAX;
  p.frame_id = INT32_MAX;
  p.gop_id = INT32_MAX;
  p.payload_bytes = INT32_MAX;
  p.seq = 0xFFFF;
  p.mp_seq = 0xFFFE;
  p.mp_transport_seq = 0xFFFD;
  p.rtx_for_mp_seq = 0xFFFC;
  p.path_id = kMaxPacketPathId;
  p.rtx_for_path = kInvalidPathId;
  p.stream_id = 255;
  p.qp = 255;
  p.payload_type = 127;
  p.kind = PayloadKind::kProbe;
  p.frame_kind = FrameKind::kKey;
  p.priority = Priority::kRetransmit;
  p.spatial_id = 15;
  p.num_spatial = 15;
  p.temporal_id = 0;
  p.num_temporal = 15;
  p.marker = true;
  p.first_in_frame = true;
  p.last_in_frame = true;
  p.via_fec = true;
  p.via_rtx = true;
  p.is_probe_duplicate = true;
  return p;
}

void ExpectAtFieldLimits(const RtpPacket& p) {
  EXPECT_EQ(p.capture_time, Timestamp::Micros(INT64_MAX - 1));
  EXPECT_EQ(p.send_time, Timestamp::Micros(-7));
  EXPECT_EQ(p.ssrc, UINT32_MAX);
  EXPECT_EQ(p.rtp_timestamp, UINT32_MAX);
  EXPECT_EQ(p.frame_id, INT32_MAX);
  EXPECT_EQ(p.gop_id, INT32_MAX);
  EXPECT_EQ(p.payload_bytes, INT32_MAX);
  EXPECT_EQ(p.wire_size(), int64_t{INT32_MAX} + kRtpHeaderBytes +
                               kMultipathExtensionBytes);
  EXPECT_EQ(p.seq, 0xFFFF);
  EXPECT_EQ(p.mp_seq, 0xFFFE);
  EXPECT_EQ(p.mp_transport_seq, 0xFFFD);
  EXPECT_EQ(p.rtx_for_mp_seq, 0xFFFC);
  EXPECT_EQ(p.path_id, 127);
  EXPECT_EQ(p.rtx_for_path, -1);
  EXPECT_EQ(p.stream_id, 255);
  EXPECT_EQ(p.qp, 255);
  EXPECT_EQ(p.payload_type, 127);
  EXPECT_EQ(p.kind, PayloadKind::kProbe);
  EXPECT_EQ(p.frame_kind, FrameKind::kKey);
  EXPECT_EQ(p.priority, Priority::kRetransmit);
  EXPECT_EQ(p.spatial_id, 15);
  EXPECT_EQ(p.num_spatial, 15);
  EXPECT_EQ(p.temporal_id, 0);
  EXPECT_EQ(p.num_temporal, 15);
  EXPECT_TRUE(p.marker);
  EXPECT_TRUE(p.first_in_frame);
  EXPECT_TRUE(p.last_in_frame);
  EXPECT_TRUE(p.via_fec);
  EXPECT_TRUE(p.via_rtx);
  EXPECT_TRUE(p.is_probe_duplicate);
}

TEST(RtpPacketTest, FieldLimitsSurviveCopyAndMove) {
  const RtpPacket original = PacketAtFieldLimits();
  ExpectAtFieldLimits(original);
  RtpPacket copy = original;
  ExpectAtFieldLimits(copy);
  RtpPacket moved = std::move(copy);
  ExpectAtFieldLimits(moved);
  RtpPacket assigned;
  assigned = moved;
  ExpectAtFieldLimits(assigned);
  RtpPacket move_assigned;
  move_assigned = std::move(assigned);
  ExpectAtFieldLimits(move_assigned);
}

TEST(RtpPacketTest, NibbleAndFlagNeighboursDoNotBleed) {
  // Each bit-field set alone must leave its neighbours at their defaults.
  RtpPacket p;
  p.temporal_id = 15;
  EXPECT_EQ(p.spatial_id, 0);
  EXPECT_EQ(p.num_spatial, 1);
  EXPECT_EQ(p.num_temporal, 1);
  p.via_rtx = true;
  EXPECT_FALSE(p.via_fec);
  EXPECT_FALSE(p.is_probe_duplicate);
  EXPECT_FALSE(p.marker);
  EXPECT_EQ(p.priority, Priority::kNone);
}

TEST(RtpPacketTest, WireRoundTripAtFieldLimits) {
  for (const PathId path : {kInvalidPathId, PathId{0}, kMaxPacketPathId}) {
    // Layer nibbles at 0 and 15 in both byte positions.
    for (const bool high_spatial : {false, true}) {
      RtpPacket p = PacketAtFieldLimits();
      p.path_id = static_cast<int8_t>(path);
      p.spatial_id = high_spatial ? 15 : 0;
      p.temporal_id = high_spatial ? 0 : 15;
      const std::vector<uint8_t> wire = SerializeRtpHeader(p);
      ASSERT_EQ(wire.size(),
                static_cast<size_t>(kRtpHeaderBytes + kMultipathExtensionBytes));
      RtpPacket out;
      ASSERT_TRUE(ParseRtpHeader(wire, &out));
      EXPECT_EQ(out.path_id, path);
      EXPECT_EQ(out.ssrc, UINT32_MAX);
      EXPECT_EQ(out.rtp_timestamp, UINT32_MAX);
      EXPECT_EQ(out.seq, 0xFFFF);
      EXPECT_EQ(out.mp_seq, 0xFFFE);
      EXPECT_EQ(out.mp_transport_seq, 0xFFFD);
      EXPECT_EQ(out.payload_type, 127);
      EXPECT_TRUE(out.marker);
      EXPECT_EQ(out.spatial_id, high_spatial ? 15 : 0);
      EXPECT_EQ(out.num_spatial, 15);
      EXPECT_EQ(out.temporal_id, high_spatial ? 0 : 15);
      EXPECT_EQ(out.num_temporal, 15);
    }
  }
}

TEST(RtpPacketTest, SerializedHeaderBytesArePinned) {
  // The exact Figure 18 bytes, independent of the in-memory layout.
  RtpPacket p;
  p.ssrc = 0x01020304;
  p.seq = 0xABCD;
  p.rtp_timestamp = 0x11223344;
  p.marker = true;
  p.payload_type = 96;
  p.path_id = 1;
  p.mp_seq = 0x0102;
  p.mp_transport_seq = 0x0304;
  p.spatial_id = 2;
  p.num_spatial = 3;
  p.temporal_id = 1;
  p.num_temporal = 2;
  EXPECT_EQ(SerializeRtpHeader(p),
            (std::vector<uint8_t>{
                0x90, 0xE0, 0xAB, 0xCD, 0x11, 0x22, 0x33, 0x44,  //
                0x01, 0x02, 0x03, 0x04, 0xBE, 0xDE, 0x00, 0x03,  //
                0x10, 0x01, 0x21, 0x01, 0x02, 0x31, 0x03, 0x04,  //
                0x41, 0x21, 0x32, 0x00}));
  p.path_id = kInvalidPathId;
  p.num_spatial = 1;
  p.num_temporal = 1;
  EXPECT_EQ(SerializeRtpHeader(p),
            (std::vector<uint8_t>{
                0x90, 0xE0, 0xAB, 0xCD, 0x11, 0x22, 0x33, 0x44,  //
                0x01, 0x02, 0x03, 0x04, 0xBE, 0xDE, 0x00, 0x03,  //
                0x10, 0xFF, 0x21, 0x01, 0x02, 0x31, 0x03, 0x04,  //
                0x00, 0x00, 0x00, 0x00}));
}

FecBlockMeta BlockCovering(uint16_t first_seq, int64_t block_id) {
  FecBlockMeta block;
  block.block_id = block_id;
  for (uint16_t s = first_seq; s < first_seq + 3; ++s) {
    ProtectedPacketMeta meta;
    meta.seq = s;
    block.covered.push_back(meta);
  }
  return block;
}

// The handle's count is the only owner of the block: ASan/LSan (the
// sanitizer CI job runs this) turns a missed release into a leak and an
// early one into a use-after-free.
TEST(FecMetaRefTest, LifetimeThroughCopyMoveAssignmentAndLastRelease) {
  FecMetaRef empty;
  EXPECT_FALSE(empty);
  EXPECT_EQ(empty, nullptr);
  EXPECT_EQ(empty.use_count(), 0u);

  FecMetaRef a = FecMetaRef::Make(BlockCovering(10, 7));
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(a->block_id, 7);
  EXPECT_EQ(a->covered.size(), 3u);

  FecMetaRef b = a;  // copy
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a.use_count(), 2u);

  FecMetaRef c = std::move(b);  // move: count unchanged, source empty
  EXPECT_EQ(b, nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.use_count(), 2u);

  FecMetaRef other = FecMetaRef::Make(BlockCovering(20, 8));
  FecMetaRef other_keep = other;
  EXPECT_EQ(other.use_count(), 2u);
  other = a;  // copy-assign releases the old block's reference
  EXPECT_EQ(other_keep.use_count(), 1u);
  EXPECT_EQ(a.use_count(), 3u);
  other = other;  // NOLINT: self-assignment keeps the count
  EXPECT_EQ(a.use_count(), 3u);

  other_keep = std::move(c);  // move-assign: block 8's last reference goes
  EXPECT_EQ(other_keep->block_id, 7);
  EXPECT_EQ(a.use_count(), 3u);

  {
    // Packets share the block; copying a packet bumps the count.
    RtpPacket parity;
    parity.kind = PayloadKind::kFec;
    parity.fec = a;
    RtpPacket copy = parity;
    EXPECT_EQ(a.use_count(), 5u);
    RtpPacket moved = std::move(copy);
    EXPECT_EQ(a.use_count(), 5u);
    EXPECT_EQ(moved.fec->covered.front().seq, 10);
  }
  EXPECT_EQ(a.use_count(), 3u);

  other = FecMetaRef();
  other_keep = FecMetaRef();
  EXPECT_EQ(a.use_count(), 1u);
  a = FecMetaRef();  // last release frees the block
  EXPECT_EQ(a, nullptr);
}

TEST(PacketizerTest, NarrowingOverflowIsReportedNotWrapped) {
  Packetizer packetizer(Packetizer::Config{});
  EncodedFrame frame;
  frame.size_bytes = 500;
  frame.frame_id = INT32_MAX;
  frame.gop_id = INT32_MAX;
  frame.stream_id = 255;
  frame.spatial_id = 15;
  frame.num_spatial = 15;
  {
    ScopedInvariants invariants;
    const std::vector<RtpPacket> packets = packetizer.Packetize(frame);
    EXPECT_EQ(InvariantRegistry::violation_count(), 0);
    EXPECT_EQ(packets.back().frame_id, INT32_MAX);
    EXPECT_EQ(packets.back().stream_id, 255);
    EXPECT_EQ(packets.back().num_spatial, 15);
  }
  const struct {
    const char* field;
    void (*overflow)(EncodedFrame&);
  } cases[] = {
      {"frame_id", [](EncodedFrame& f) { f.frame_id = int64_t{INT32_MAX} + 1; }},
      {"gop_id", [](EncodedFrame& f) { f.gop_id = -int64_t{1} << 40; }},
      {"stream_id", [](EncodedFrame& f) { f.stream_id = 256; }},
      {"layers", [](EncodedFrame& f) { f.temporal_id = 16; }},
      {"payload_bytes",
       [](EncodedFrame& f) { f.size_bytes = int64_t{INT32_MAX} + 1; }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.field);
    EncodedFrame bad = frame;
    c.overflow(bad);
    Packetizer::Config config;
    config.max_payload_bytes = int64_t{1} << 40;  // one media packet
    Packetizer narrow(config);
    ScopedInvariants invariants;
    narrow.Packetize(bad);
    ASSERT_GE(InvariantRegistry::violation_count(), 1);
    const InvariantViolation v = InvariantRegistry::Snapshot().front();
    EXPECT_EQ(v.component, "Packetizer");
    EXPECT_NE(v.detail.find(c.field), std::string::npos) << v.detail;
  }
}

TEST(RtpPacketTest, PathIdRangeMatchesTheOneByteWireField) {
  EXPECT_TRUE(FitsPacketPathId(kInvalidPathId));
  EXPECT_TRUE(FitsPacketPathId(0));
  EXPECT_TRUE(FitsPacketPathId(kMaxPacketPathId));
  EXPECT_FALSE(FitsPacketPathId(kMaxPacketPathId + 1));
  EXPECT_FALSE(FitsPacketPathId(-2));
}

}  // namespace
}  // namespace converge
