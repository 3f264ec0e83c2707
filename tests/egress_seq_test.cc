// EgressSeq against a reference that keeps every send: both wire fields
// across several 16-bit wraps, and transport-feedback matching under the
// 8,192-packet window and the age bound, in stretches where either one
// decides what is held. Directed tests pin the one-word send record's
// limits.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "session/egress_seq.h"
#include "util/invariants.h"

namespace converge {
namespace {

constexpr int64_t kWindow = 8192;

struct Sent {
  Timestamp send_time;
  int64_t bytes = 0;
};

TEST(EgressSeqTest, MatchesReferenceAcrossWrapsAndAgeBound) {
  EgressSeq egress;
  std::map<int64_t, Sent> sent;  // every send, by unwrapped transport seq
  std::mt19937_64 rng(41);
  Timestamp now = Timestamp::Zero();
  int64_t misses = 0;
  int64_t matched = 0;
  int64_t lost = 0;
  int64_t edge_misses = 0;
  int64_t oldest = 0;  // oldest held seq; only moves forward
  for (int64_t i = 0; i < 150'000; ++i) {
    // Alternating 20,000-packet stretches: ~0.5 ms apart (the window
    // decides, 8,192 packets span ~4 s) and ~3 ms apart with pauses (the
    // age bound decides).
    const bool dense = (i / 20'000) % 2 == 0;
    const uint64_t gap_us = dense ? 250 + rng() % 500
                            : rng() % 16 == 0 ? rng() % 40'000
                                              : rng() % 3000;
    now = now + Duration::Micros(static_cast<int64_t>(gap_us));
    RtpPacket p;
    p.payload_bytes = static_cast<int32_t>(100 + rng() % 1100);
    p.send_time = now;
    egress.Stamp(p);
    ASSERT_EQ(p.mp_seq, static_cast<uint16_t>(i & 0xFFFF)) << i;
    ASSERT_EQ(p.mp_transport_seq, static_cast<uint16_t>(i & 0xFFFF)) << i;
    sent[i] = {now, p.wire_size()};
    if (rng() % 4 != 0) continue;

    // Held: inside the window and no more than the horizon older than the
    // newest send (this one).
    auto held = [&](int64_t seq) {
      auto it = sent.find(seq);
      return it != sent.end() && i - seq < kWindow &&
             now - it->second.send_time <= kSentHistoryHorizon;
    };
    // One probe batch: recent and far-back seqs, some reported lost, the
    // seq just behind the oldest held record, and the three seqs after the
    // newest, which were never sent (a stale life's feedback can name them).
    TransportFeedback fb;
    for (int k = 0; k < 4; ++k) {
      const int64_t back =
          static_cast<int64_t>(rng() % 3 == 0 ? rng() % (2 * kWindow)
                                              : rng() % 64) %
          (i + 1);
      const Timestamp recv = rng() % 5 == 0 ? Timestamp::MinusInfinity()
                                            : now + Duration::Millis(30);
      fb.arrivals.push_back({i - back, recv});
    }
    while (!held(oldest)) ++oldest;
    // It left by age, not by the window: its trim is remembered.
    const bool aged_edge = oldest > 0 && i - (oldest - 1) < kWindow;
    if (aged_edge) fb.arrivals.push_back({oldest - 1, now});
    for (int64_t ahead = 1; ahead <= 3; ++ahead) {
      fb.arrivals.push_back({i + ahead, now});
    }

    int64_t aged_probes = 0;
    for (const TransportFeedback::Arrival& a : fb.arrivals) {
      auto it = sent.find(a.mp_transport_seq);
      if (it != sent.end() &&
          now - it->second.send_time > kSentHistoryHorizon) {
        ++aged_probes;
      }
    }
    const int64_t misses_before = misses;
    const std::vector<PacketResult> results = egress.Match(fb, misses);
    size_t r = 0;
    for (const TransportFeedback::Arrival& a : fb.arrivals) {
      if (!held(a.mp_transport_seq)) continue;
      ASSERT_LT(r, results.size()) << "seq " << a.mp_transport_seq;
      const PacketResult& result = results[r++];
      const Sent& s = sent.at(a.mp_transport_seq);
      ASSERT_EQ(result.transport_seq, a.mp_transport_seq);
      ASSERT_EQ(result.send_time, s.send_time);
      ASSERT_EQ(result.bytes, s.bytes);
      ASSERT_EQ(result.received, a.recv_time.IsFinite());
      ASSERT_EQ(result.recv_time, a.recv_time);  // copied even when lost
      ++(result.received ? matched : lost);
    }
    ASSERT_EQ(r, results.size()) << "step " << i;
    // Only records older than the horizon count as horizon misses (never a
    // seq not sent yet), and the one just behind the held range always
    // does.
    ASSERT_LE(misses - misses_before, aged_probes) << "step " << i;
    if (aged_edge) {
      ASSERT_GE(misses - misses_before, 1) << "step " << i;
      ++edge_misses;
    }
  }
  EXPECT_GT(matched, 10'000);
  EXPECT_GT(lost, 1'000);
  EXPECT_GT(edge_misses, 1'000);
  EXPECT_GT(misses, edge_misses);
}

// A send record keeps a send time up to 2^40 - 1 us and a wire size up to
// 2^24 - 1 B exactly, and Match returns them as sent.
TEST(EgressSeqTest, SendRecordHoldsItsLimits) {
  ScopedInvariants guard;
  constexpr int64_t kMaxUs = (int64_t{1} << 40) - 1;
  constexpr int64_t kMaxBytes = (int64_t{1} << 24) - 1;
  constexpr int64_t kOverhead = kRtpHeaderBytes + kMultipathExtensionBytes;
  EgressSeq egress;
  RtpPacket largest;
  largest.payload_bytes = static_cast<int32_t>(kMaxBytes - kOverhead);
  largest.send_time = Timestamp::Micros(kMaxUs);
  egress.Stamp(largest);
  RtpPacket empty;
  empty.send_time = Timestamp::Micros(kMaxUs);
  egress.Stamp(empty);
  ASSERT_EQ(largest.wire_size(), kMaxBytes);

  const Timestamp recv = Timestamp::Micros(kMaxUs) + Duration::Millis(20);
  TransportFeedback fb;
  fb.arrivals = {{0, recv}, {1, Timestamp::MinusInfinity()}};
  int64_t misses = 0;
  const std::vector<PacketResult> results = egress.Match(fb, misses);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].send_time, Timestamp::Micros(kMaxUs));
  EXPECT_EQ(results[0].bytes, kMaxBytes);
  EXPECT_TRUE(results[0].received);
  EXPECT_EQ(results[1].send_time, Timestamp::Micros(kMaxUs));
  EXPECT_EQ(results[1].bytes, kOverhead);
  EXPECT_FALSE(results[1].received);
  EXPECT_EQ(misses, 0);
  EXPECT_EQ(InvariantRegistry::violation_count(), 0);
}

// What a send record cannot hold is reported, not wrapped silently: a send
// time one past 2^40 - 1 us or before 0, and a wire size one past
// 2^24 - 1 B.
TEST(EgressSeqTest, SendRecordReportsWhatItCannotHold) {
  ScopedInvariants guard;
  constexpr int64_t kMaxUs = (int64_t{1} << 40) - 1;
  constexpr int64_t kMaxBytes = (int64_t{1} << 24) - 1;
  EgressSeq egress;
  RtpPacket late;
  late.send_time = Timestamp::Micros(kMaxUs + 1);
  egress.Stamp(late);
  EXPECT_EQ(InvariantRegistry::violation_count(), 1);
  RtpPacket early;
  early.send_time = Timestamp::Micros(-1);
  egress.Stamp(early);
  EXPECT_EQ(InvariantRegistry::violation_count(), 2);
  RtpPacket big;
  big.payload_bytes = static_cast<int32_t>(
      kMaxBytes + 1 - kRtpHeaderBytes - kMultipathExtensionBytes);
  big.send_time = Timestamp::Micros(kMaxUs);
  egress.Stamp(big);
  EXPECT_EQ(InvariantRegistry::violation_count(), 3);
}

}  // namespace
}  // namespace converge
