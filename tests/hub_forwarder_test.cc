// HubForwarder unit coverage: hub-owned egress sequence spaces, the
// frame-aware drop policy (oldest-first, keyframe-protected, dependency
// gating with PLI relay), local NACK answering from hub history, feedback
// matching across a leg's restart, release of the sent histories at
// retirement, and the per-downlink congestion loop in DownlinkCc.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "cc/downlink_cc.h"
#include "session/egress_seq.h"
#include "session/hub_forwarder.h"
#include "sim/event_loop.h"
#include "util/invariants.h"

namespace converge {
namespace {

struct Delivered {
  int leg = 0;
  PathId path = 0;
  RtpPacket packet;
};

struct Relayed {
  int leg = 0;
  uint32_t ssrc = 0;
  PathId path = 0;
};

// Records media and ALR probe duplicates apart: `delivered` is what the
// receiver assembles, `probes` what it only acks.
struct Harness {
  explicit Harness(HubForwarder::Config config, std::vector<PathId> paths = {0})
      : forwarder(&loop, config, paths,
                  [this](int leg, PathId path, RtpPacket packet) {
                    (packet.is_probe_duplicate ? probes : delivered)
                        .push_back({leg, path, std::move(packet)});
                  },
                  [this](int leg, uint32_t ssrc, PathId path) {
                    plis.push_back({leg, ssrc, path});
                  }) {}

  EventLoop loop;
  HubForwarder forwarder;
  std::vector<Delivered> delivered;
  std::vector<Delivered> probes;
  std::vector<Relayed> plis;
};

// Media and probe duplicates on `path` share one gap-free egress mp_seq
// space per leg: every stamp from 0 up is used exactly once.
void ExpectOneGapFreeSeqSpace(const Harness& h, PathId path) {
  std::map<int, std::vector<int>> seqs;
  for (const auto* list : {&h.delivered, &h.probes}) {
    for (const Delivered& d : *list) {
      if (d.path == path) seqs[d.leg].push_back(d.packet.mp_seq);
    }
  }
  for (auto& [leg, s] : seqs) {
    std::sort(s.begin(), s.end());
    for (size_t i = 0; i < s.size(); ++i) {
      ASSERT_EQ(s[i], static_cast<int>(i)) << "leg " << leg;
    }
  }
}

HubForwarder::Config FastConfig(double start_mbps) {
  HubForwarder::Config config;
  config.cc.start_rate = DataRate::MegabitsPerSec(start_mbps);
  config.cc.max_rate = DataRate::MegabitsPerSec(start_mbps * 4);
  return config;
}

RtpPacket MediaPacket(uint32_t ssrc, uint16_t seq, int64_t frame_id,
                      FrameKind kind, int64_t bytes = 1000,
                      int stream = 0) {
  RtpPacket p;
  p.ssrc = ssrc;
  p.seq = seq;
  p.kind = PayloadKind::kMedia;
  p.frame_kind = kind;
  p.stream_id = stream;
  p.frame_id = frame_id;
  p.payload_bytes = bytes;
  return p;
}

TEST(HubForwarderTest, StampsGapFreeSequencesPerLegAndForwards) {
  Harness h(FastConfig(10.0));
  // Two legs interleaved onto the same path: each must get its own
  // contiguous mp_seq / mp_transport_seq space.
  uint16_t seq = 0;
  for (int64_t frame = 0; frame < 5; ++frame) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(0, 0, MediaPacket(0x10, seq++, frame, kind));
    h.forwarder.OnMediaFromUplink(2, 0, MediaPacket(0x20, seq++, frame, kind));
  }
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(100));

  ASSERT_EQ(h.delivered.size(), 10u);
  std::map<int, uint16_t> next_seq;
  for (const Delivered& d : h.delivered) {
    auto it = next_seq.find(d.leg);
    if (it == next_seq.end()) {
      EXPECT_EQ(d.packet.mp_seq, 0) << "leg " << d.leg;
      EXPECT_EQ(d.packet.mp_transport_seq, 0) << "leg " << d.leg;
      next_seq[d.leg] = 1;
    } else {
      EXPECT_EQ(d.packet.mp_seq, it->second) << "leg " << d.leg;
      ++it->second;
    }
  }
  EXPECT_EQ(h.forwarder.stats(0).packets_forwarded, 10);
  EXPECT_EQ(h.forwarder.stats(0).frames_thinned, 0);
}

TEST(HubForwarderTest, ThinsDeltasWhenBackloggedAndRelaysPli) {
  // 200 kbps downlink: a 4 Mbps inflow must be thinned almost entirely.
  HubForwarder::Config config = FastConfig(0.2);
  Harness h(config);
  uint16_t seq = 0;
  int64_t frame = 0;
  // One keyframe, then a long run of deltas at ~4 Mbps (30 fps x 16.6 KB).
  for (int tick = 0; tick < 30; ++tick) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    for (int j = 0; j < 14; ++j) {
      h.forwarder.OnMediaFromUplink(0, 0,
                                    MediaPacket(0x10, seq++, frame, kind, 1200));
    }
    ++frame;
    h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
  }
  const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
  EXPECT_GT(stats.frames_thinned, 0);
  EXPECT_GT(stats.packets_dropped, 0);
  ASSERT_FALSE(h.plis.empty());
  EXPECT_EQ(h.plis[0].leg, 0);
  EXPECT_EQ(h.plis[0].ssrc, 0x10u);
  // PLI relays are debounced, so far fewer PLIs than thinned frames.
  EXPECT_LT(static_cast<int64_t>(h.plis.size()), stats.frames_thinned);
  // The queue stayed bounded by the drop policy.
  EXPECT_LT(stats.max_queue_delay_ms, 1000.0);
}

TEST(HubForwarderTest, GateReopensOnKeyframe) {
  // 100 kbps downlink (125 kbps paced): an 8-packet keyframe queues
  // ~530 ms, past the 350-ms thinning bound.
  Harness h(FastConfig(0.1));
  uint16_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    h.forwarder.OnMediaFromUplink(
        0, 0, MediaPacket(0x10, seq++, 0, FrameKind::kKey));
  }
  // Backlogged: this delta is thinned, closing the gate...
  h.forwarder.OnMediaFromUplink(0, 0,
                                MediaPacket(0x10, seq++, 1, FrameKind::kDelta));
  // ...and once the backlog has drained below the bound, a later delta is
  // still dropped by the closed gate.
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(450));
  ASSERT_LT(h.forwarder.queue_delay(0), Duration::Millis(350));
  h.forwarder.OnMediaFromUplink(0, 0,
                                MediaPacket(0x10, seq++, 2, FrameKind::kDelta));
  // A keyframe reopens the chain; the following delta is admitted.
  h.forwarder.OnMediaFromUplink(0, 0,
                                MediaPacket(0x10, seq++, 3, FrameKind::kKey));
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(900));
  h.forwarder.OnMediaFromUplink(0, 0,
                                MediaPacket(0x10, seq++, 4, FrameKind::kDelta));
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(1100));

  EXPECT_EQ(h.forwarder.stats(0).frames_thinned, 2);
  std::vector<int64_t> frames;
  for (const Delivered& d : h.delivered) {
    if (frames.empty() || frames.back() != d.packet.frame_id) {
      frames.push_back(d.packet.frame_id);
    }
  }
  EXPECT_EQ(frames, (std::vector<int64_t>{0, 3, 4}));
  EXPECT_EQ(h.delivered.size(), 10u);
}

RtpPacket LayeredPacket(uint32_t ssrc, uint16_t seq, int64_t frame_id,
                        FrameKind kind, int spatial, int num_spatial,
                        int64_t bytes) {
  RtpPacket p = MediaPacket(ssrc, seq, frame_id, kind, bytes);
  p.spatial_id = static_cast<uint8_t>(spatial);
  p.num_spatial = static_cast<uint8_t>(num_spatial);
  return p;
}

TEST(HubForwarderTest, LayeredFiltersUnsubscribedRungsWithoutSeqGaps) {
  HubForwarder::Config config = FastConfig(10.0);
  config.layered = true;
  Harness h(config);
  // Two rungs per capture, plenty of downlink budget: the default rung-0
  // subscription holds, rung 1 is filtered at ingress, and the hub-stamped
  // egress sequence space stays gap-free (filtering is selection, not
  // loss — the receiver must never see anything to NACK-chase).
  uint16_t seq = 0;
  for (int64_t frame = 0; frame < 10; ++frame) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(
        0, 0, LayeredPacket(0x10, seq++, frame, kind, 0, 2, 1000));
    h.forwarder.OnMediaFromUplink(
        0, 0, LayeredPacket(0x10, seq++, frame, kind, 1, 2, 300));
    h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
  }
  h.loop.RunUntil(h.loop.now() + Duration::Millis(200));

  // The 530-ms run ends inside the 2-s padding warm-up.
  EXPECT_TRUE(h.probes.empty());
  ASSERT_EQ(h.delivered.size(), 10u);
  for (size_t i = 0; i < h.delivered.size(); ++i) {
    EXPECT_EQ(h.delivered[i].packet.spatial_id, 0);
    EXPECT_EQ(h.delivered[i].packet.frame_id, static_cast<int64_t>(i));
    EXPECT_EQ(h.delivered[i].packet.mp_seq, static_cast<uint16_t>(i));
  }
  const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
  EXPECT_EQ(stats.layer_packets_filtered, 10);
  EXPECT_EQ(stats.frames_thinned, 0);
  EXPECT_EQ(stats.packets_dropped, 0);
  EXPECT_EQ(h.forwarder.selected_rung(0, 0), 0);
  EXPECT_EQ(h.forwarder.max_selected_rung(), 0);
}

// A packet of a frame older than every held verdict is decided, and its
// verdict read, even though keeping the newest 64 verdicts prunes it at
// once: 65 layered frames (ids 100-164), then one late packet of frame 50.
TEST(HubForwarderTest, LayeredLateFrameOlderThanTheVerdictWindowIsDecided) {
  HubForwarder::Config config = FastConfig(10.0);
  config.layered = true;
  Harness h(config);
  uint16_t seq = 0;
  for (int64_t frame = 100; frame <= 164; ++frame) {
    const FrameKind kind = frame == 100 ? FrameKind::kKey : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(
        0, 0, LayeredPacket(0x10, seq++, frame, kind, 0, 2, 1000));
    h.forwarder.OnMediaFromUplink(
        0, 0, LayeredPacket(0x10, seq++, frame, kind, 1, 2, 300));
    h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
  }
  h.forwarder.OnMediaFromUplink(
      0, 0, LayeredPacket(0x10, seq++, 50, FrameKind::kDelta, 0, 2, 1000));
  h.loop.RunUntil(h.loop.now() + Duration::Millis(200));

  ASSERT_EQ(h.delivered.size(), 66u);
  EXPECT_EQ(h.delivered.back().packet.frame_id, 50);
  const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
  EXPECT_EQ(stats.layer_packets_filtered, 65);
  EXPECT_EQ(stats.packets_dropped, 0);
}

TEST(HubForwarderTest, LayeredDownswitchCommitsAtKeyframeWithFullFps) {
  // 500 kbps downlink, rung 0 at ~700 kbps, rung 1 at ~96 kbps: the
  // selection engine must ask for a downswitch (debounced PLI), commit it
  // on the next keyframe, and keep EVERY frame_id flowing — no
  // whole-frame thinning, which is the whole point of rung selection.
  HubForwarder::Config config = FastConfig(0.5);
  config.layered = true;
  Harness h(config);
  uint16_t seq = 0;
  int64_t frame = 0;
  for (int tick = 0; tick < 30; ++tick) {
    // The hub's switch PLI reaches the origin, which keys ALL rungs of a
    // later capture; model that with a keyframe once the PLI arrives.
    const FrameKind kind = (frame == 0 || (frame == 10 && !h.plis.empty()))
                               ? FrameKind::kKey
                               : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(
        0, 0, LayeredPacket(0x10, seq++, frame, kind, 0, 2, 2917));
    h.forwarder.OnMediaFromUplink(
        0, 0, LayeredPacket(0x10, seq++, frame, kind, 1, 2, 400));
    ++frame;
    h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
  }
  // Drain, ending inside the 2-s padding warm-up so the egress sequence
  // below is media only.
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(1900));
  EXPECT_TRUE(h.probes.empty());

  // The switch was requested upstream and committed exactly once.
  ASSERT_FALSE(h.plis.empty());
  const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
  EXPECT_EQ(stats.layer_switches, 1);
  EXPECT_EQ(h.forwarder.selected_rung(0, 0), 1);
  EXPECT_EQ(h.forwarder.max_selected_rung(), 1);

  // Full fps: every frame_id went downstream exactly once, rung 0 before
  // the commit and rung 1 from the keyframe on; nothing was thinned.
  EXPECT_EQ(stats.frames_thinned, 0);
  ASSERT_EQ(h.delivered.size(), 30u);
  for (size_t i = 0; i < h.delivered.size(); ++i) {
    EXPECT_EQ(h.delivered[i].packet.frame_id, static_cast<int64_t>(i));
    EXPECT_EQ(h.delivered[i].packet.mp_seq, static_cast<uint16_t>(i));
    EXPECT_EQ(h.delivered[i].packet.spatial_id, i < 10 ? 0 : 1);
  }
}

TEST(HubForwarderTest, LayeredUpswitchIsDwellGatedAndKeyframeCommitted) {
  HubForwarder::Config config = FastConfig(0.5);
  config.layered = true;
  Harness h(config);
  uint16_t seq = 0;
  int64_t frame = 0;
  int64_t switches_seen = 0;
  std::vector<Timestamp> switch_times;
  // Phase A: rung 0 overruns -> downswitch. Phase B: rung 0 collapses to
  // ~60 kbps -> upswitch, but only after the blended estimate decays AND
  // the 2-s dwell passes. Periodic keyframes give pending switches their
  // commit points.
  for (int tick = 0; tick < 120; ++tick) {
    const bool phase_a = tick < 15;
    const FrameKind kind =
        (frame % 15 == 0) ? FrameKind::kKey : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(
        0, 0,
        LayeredPacket(0x10, seq++, frame, kind, 0, 2, phase_a ? 2917 : 250));
    h.forwarder.OnMediaFromUplink(
        0, 0, LayeredPacket(0x10, seq++, frame, kind, 1, 2, 400));
    ++frame;
    if (h.forwarder.stats(0).layer_switches > switches_seen) {
      switches_seen = h.forwarder.stats(0).layer_switches;
      switch_times.push_back(h.loop.now());
      if (switches_seen == 1) {
        // Downswitch committed; it must NOT bounce back before the dwell.
        EXPECT_EQ(h.forwarder.selected_rung(0, 0), 1);
      }
    }
    h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
  }
  h.loop.RunUntil(h.loop.now() + Duration::Seconds(1));

  const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
  EXPECT_EQ(stats.layer_switches, 2);
  EXPECT_EQ(h.forwarder.selected_rung(0, 0), 0);
  EXPECT_EQ(stats.frames_thinned, 0);
  // The upswitch waited out the dwell (switch commits are observed at
  // 33-ms ticks, so the two stamps share that granularity).
  ASSERT_EQ(switch_times.size(), 2u);
  EXPECT_GE(switch_times[1] - switch_times[0], Duration::Seconds(2));
  // Every capture still went downstream exactly once; the run outlasts the
  // padding warm-up, so probe duplicates share the egress sequence space.
  ASSERT_EQ(h.delivered.size(), 120u);
  for (size_t i = 0; i < h.delivered.size(); ++i) {
    EXPECT_EQ(h.delivered[i].packet.frame_id, static_cast<int64_t>(i));
  }
  ExpectOneGapFreeSeqSpace(h, 0);
}

TEST(HubForwarderTest, LayeredAlrPaddingFillsToTargetWithProbeDuplicates) {
  // Forwarding only the selected rung leaves the path application-limited;
  // a layered engine fills up to the CC target with kProbe duplicates that
  // share the gap-free egress sequence space (receivers ack them in
  // transport feedback but never assemble them). A single-layer engine
  // (stars without simulcast, trunks) forwards every rung and never pads.
  for (const bool layered : {true, false}) {
    SCOPED_TRACE(layered ? "layered" : "single-layer");
    HubForwarder::Config config = FastConfig(1.0);
    config.layered = layered;
    Harness h(config);
    uint16_t seq = 0;
    // 4 s of captures: the 2-s padding warm-up, then 2 s of padding.
    for (int64_t frame = 0; frame < 120; ++frame) {
      const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
      // ~120 kbps of media against a 1 Mbps target: heavily app-limited.
      h.forwarder.OnMediaFromUplink(
          0, 0, LayeredPacket(0x10, seq++, frame, kind, 0, 2, 500));
      h.forwarder.OnMediaFromUplink(
          0, 0, LayeredPacket(0x10, seq++, frame, kind, 1, 2, 200));
      h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
    }

    const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
    ExpectOneGapFreeSeqSpace(h, 0);
    for (const Delivered& d : h.delivered) {
      EXPECT_NE(d.packet.kind, PayloadKind::kProbe);
    }
    EXPECT_EQ(stats.packets_forwarded,
              static_cast<int64_t>(h.delivered.size()));
    if (!layered) {
      EXPECT_EQ(h.delivered.size(), 240u);  // both rungs, media only
      EXPECT_TRUE(h.probes.empty());
      EXPECT_EQ(stats.padding_packets, 0);
      continue;
    }
    // One rung-0 packet per capture, nothing thinned.
    EXPECT_EQ(h.delivered.size(), 120u);
    ASSERT_FALSE(h.delivered.empty());
    const Timestamp first_media = h.delivered.front().packet.send_time;
    for (const Delivered& d : h.probes) {
      EXPECT_EQ(d.packet.kind, PayloadKind::kProbe);
      // Warm-up: no padding before the path has carried media for 2 s.
      EXPECT_GE(d.packet.send_time - first_media, Duration::Seconds(2))
          << "probe before the warm-up elapsed";
    }
    // The ~780 kbps gap is real padding on the wire.
    EXPECT_GT(h.probes.size(), 100u);
    EXPECT_EQ(stats.padding_packets, static_cast<int64_t>(h.probes.size()));
  }
}

TEST(HubForwarderTest, ResetOriginStopsPaddingForThatOrigin) {
  // Padding clones the path's last media packet. Once that packet's origin
  // has left, a copy would restart the origin's egress sequence space and
  // spend pacing budget on packets the conference drops, so padding waits
  // for another origin's media instead.
  HubForwarder::Config config = FastConfig(1.0);
  config.layered = true;
  Harness h(config);
  uint16_t seq = 0;
  auto send_frame = [&](int64_t frame, bool with_leg0) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    // Leg 0 arrives second, so its packet is the padding template.
    for (int leg : {2, 0}) {
      if (leg == 0 && !with_leg0) continue;
      h.forwarder.OnMediaFromUplink(
          leg, 0, LayeredPacket(0x10 + leg, seq++, frame, kind, 0, 2, 500));
    }
    h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
  };
  int64_t frame = 0;
  // 2.5 s of media from both origins: past the padding warm-up.
  for (; frame < 75; ++frame) send_frame(frame, /*with_leg0=*/true);
  ASSERT_FALSE(h.probes.empty());
  ASSERT_EQ(h.probes.back().leg, 0);

  h.forwarder.ResetOrigin(0);
  const size_t probes_before = h.probes.size();
  const int64_t padding_before = h.forwarder.stats(0).padding_packets;
  // Nothing more from leg 0 for 100 ms, then leg 2 alone for 300 ms.
  h.loop.RunUntil(h.loop.now() + Duration::Millis(100));
  EXPECT_EQ(h.probes.size(), probes_before);
  EXPECT_EQ(h.forwarder.stats(0).padding_packets, padding_before);
  for (int i = 0; i < 9; ++i, ++frame) send_frame(frame, /*with_leg0=*/false);

  int64_t leg2_probes = 0;
  for (size_t i = probes_before; i < h.probes.size(); ++i) {
    EXPECT_EQ(h.probes[i].leg, 2);
    ++leg2_probes;
  }
  EXPECT_GT(leg2_probes, 0);  // padding resumes on the remaining origin
}

TEST(HubForwarderTest, EvictionIsOldestFirstAndKeyframeProtected) {
  // Rate so low nothing drains: eviction policy alone shapes the queue.
  HubForwarder::Config config;
  config.cc.start_rate = DataRate::KilobitsPerSec(50);
  config.cc.min_rate = DataRate::KilobitsPerSec(50);
  config.cc.max_rate = DataRate::KilobitsPerSec(100);
  Harness h(config);
  // Keyframe (protected) + two delta frames. At 62.5 kbps paced one
  // 828-byte packet queues ~106 ms, so each delta's first packet arrives
  // below the 350-ms thinning bound and is admitted (frame 2's at
  // ~318 ms); frame 2's later packets then grow the queue past the 600-ms
  // drop bound before the first pacing tick.
  uint16_t seq = 0;
  h.forwarder.OnMediaFromUplink(
      0, 0, MediaPacket(0x10, seq++, 0, FrameKind::kKey, 800));
  for (int64_t frame : {1, 1, 2, 2, 2, 2}) {
    h.forwarder.OnMediaFromUplink(
        0, 0, MediaPacket(0x10, seq++, frame, FrameKind::kDelta, 800));
  }
  ASSERT_GT(h.forwarder.queue_delay(0), Duration::Millis(600));
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(300));

  const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
  EXPECT_EQ(stats.frames_thinned, 0);
  // Both deltas go (frame 1 is oldest unprotected; frame 2 depends on it);
  // the keyframe survives and drains.
  EXPECT_EQ(stats.frames_evicted, 2);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].packet.frame_kind, FrameKind::kKey);
}

// Eviction counts frames, not runs of packets: with the doomed frames'
// packets interleaved in the queue (an uplink-recovered packet of frame 1
// queued behind frame 2's), both frames still count once each.
TEST(HubForwarderTest, EvictionCountsInterleavedFramesOnce) {
  HubForwarder::Config config;
  config.cc.start_rate = DataRate::KilobitsPerSec(50);
  config.cc.min_rate = DataRate::KilobitsPerSec(50);
  config.cc.max_rate = DataRate::KilobitsPerSec(100);
  Harness h(config);
  // The same byte budget as above: every packet is admitted below the
  // 350-ms thinning bound or belongs to an admitted frame, and the queue
  // ends past the 600-ms drop bound.
  uint16_t seq = 0;
  h.forwarder.OnMediaFromUplink(
      0, 0, MediaPacket(0x10, seq++, 0, FrameKind::kKey, 800));
  for (int64_t frame : {1, 2, 1, 2, 1, 2}) {
    h.forwarder.OnMediaFromUplink(
        0, 0, MediaPacket(0x10, seq++, frame, FrameKind::kDelta, 800));
  }
  ASSERT_GT(h.forwarder.queue_delay(0), Duration::Millis(600));
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(300));

  const HubForwarder::DownlinkStats& stats = h.forwarder.stats(0);
  EXPECT_EQ(stats.frames_thinned, 0);
  EXPECT_EQ(stats.frames_evicted, 2);
  EXPECT_EQ(stats.packets_dropped, 6);
  ASSERT_EQ(h.delivered.size(), 1u);
  EXPECT_EQ(h.delivered[0].packet.frame_kind, FrameKind::kKey);
}

TEST(HubForwarderTest, AnswersNackFromHubHistoryWithFreshStamps) {
  Harness h(FastConfig(10.0));
  for (int64_t frame = 0; frame < 3; ++frame) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(
        0, 0, MediaPacket(0x10, static_cast<uint16_t>(frame), frame, kind));
  }
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(50));
  ASSERT_EQ(h.delivered.size(), 3u);

  // The receiver reports a hole at hub-stamped mp_seq 1 on path 0.
  RtcpPacket nack;
  nack.path_id = 0;
  nack.payload = Nack{0, {1}};
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, nack));
  // A duplicate (receivers duplicate critical feedback per path) is
  // de-duplicated and answered only once.
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, nack));
  // A NACK for a sequence the hub never stamped is ignored.
  RtcpPacket unknown;
  unknown.path_id = 0;
  unknown.payload = Nack{0, {999}};
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, unknown));
  h.loop.RunUntil(h.loop.now() + Duration::Millis(50));

  ASSERT_EQ(h.delivered.size(), 4u);
  const RtpPacket& rtx = h.delivered.back().packet;
  EXPECT_TRUE(rtx.via_rtx);
  EXPECT_EQ(rtx.rtx_for_path, 0);
  EXPECT_EQ(rtx.rtx_for_mp_seq, 1);
  // The retransmission keeps the per-path wire order sequential: it rides
  // the next fresh mp_seq, not the old one.
  EXPECT_EQ(rtx.mp_seq, 3);
  EXPECT_EQ(h.forwarder.stats(0).rtx_answered, 1);
}

// An engine keeps only the history of the NACK flavour its call
// negotiated, so a NACK of the other flavour is consumed unanswered.
TEST(HubForwarderTest, PerPathEngineIgnoresSsrcNack) {
  Harness h(FastConfig(10.0));
  for (int64_t frame = 0; frame < 3; ++frame) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(
        0, 0, MediaPacket(0x10, static_cast<uint16_t>(frame), frame, kind));
  }
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(50));
  ASSERT_EQ(h.delivered.size(), 3u);

  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(
      0, 0, RtcpPacket{kInvalidPathId, Nack{0x10, {1}}}));
  h.loop.RunUntil(h.loop.now() + Duration::Millis(50));
  EXPECT_EQ(h.delivered.size(), 3u);
  EXPECT_EQ(h.forwarder.stats(0).rtx_answered, 0);
}

TEST(HubForwarderTest, LegacyEngineAnswersSsrcNackOnTheOriginalPath) {
  HubForwarder::Config config = FastConfig(10.0);
  config.per_path_nack = false;
  Harness h(config, {0, 1});
  // Media seqs 0..3, alternating paths.
  for (int64_t frame = 0; frame < 4; ++frame) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    h.forwarder.OnMediaFromUplink(
        0, static_cast<PathId>(frame % 2),
        MediaPacket(0x10, static_cast<uint16_t>(frame), frame, kind));
  }
  h.loop.RunUntil(Timestamp::Zero() + Duration::Millis(50));
  ASSERT_EQ(h.delivered.size(), 4u);

  // A per-path NACK finds no history on a legacy engine.
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 1, RtcpPacket{1, Nack{0, {0}}}));
  h.loop.RunUntil(h.loop.now() + Duration::Millis(50));
  EXPECT_EQ(h.delivered.size(), 4u);

  // Legacy NACKs name (ssrc, media seq) and carry no path; media seq 1
  // left on path 1, so the answer goes there whatever path reported it.
  const RtcpPacket nack{kInvalidPathId, Nack{0x10, {1}}};
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, nack));
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, nack));  // de-duplicated
  h.loop.RunUntil(h.loop.now() + Duration::Millis(50));

  ASSERT_EQ(h.delivered.size(), 5u);
  const Delivered& rtx = h.delivered.back();
  EXPECT_EQ(rtx.path, 1);
  EXPECT_TRUE(rtx.packet.via_rtx);
  EXPECT_EQ(rtx.packet.ssrc, 0x10u);
  EXPECT_EQ(rtx.packet.seq, 1);
  EXPECT_EQ(rtx.packet.rtx_for_path, kInvalidPathId);
  EXPECT_EQ(rtx.packet.mp_seq, 2);  // fresh stamp in path 1's space
  EXPECT_EQ(h.forwarder.stats(1).rtx_answered, 1);
  EXPECT_EQ(h.forwarder.stats(0).rtx_answered, 0);
}

TEST(HubForwarderTest, ConsumesDownlinkFeedbackKinds) {
  Harness h(FastConfig(10.0));
  RtcpPacket fb;
  fb.path_id = 0;
  fb.payload = TransportFeedback{};
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, fb));
  RtcpPacket rr;
  rr.path_id = 0;
  rr.payload = ReceiverReport{};
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, rr));
  // End-to-end signals are NOT consumed: the conference relays them.
  RtcpPacket pli;
  pli.path_id = 0;
  pli.payload = KeyframeRequest{0x10};
  EXPECT_FALSE(h.forwarder.OnReceiverRtcp(0, 0, pli));
  RtcpPacket qoe;
  qoe.path_id = 0;
  qoe.payload = QoeFeedback{};
  EXPECT_FALSE(h.forwarder.OnReceiverRtcp(0, 0, qoe));
}

// A restarted leg's egress counter starts again at 0, and its send records
// start again with it. Registrations of the previous life, even one that
// filled the path's 8,192-packet window, must not drop the new life's
// records while their feedback is awaited.
TEST(HubForwarderTest, RestartedLegFeedbackSurvivesPreviousLife) {
  Harness h(FastConfig(10.0));
  uint16_t seq = 0;
  auto send_frame = [&](uint32_t ssrc, int64_t frame, int packets) {
    const FrameKind kind = frame == 0 ? FrameKind::kKey : FrameKind::kDelta;
    for (int i = 0; i < packets; ++i) {
      h.forwarder.OnMediaFromUplink(
          0, 0, MediaPacket(ssrc, seq++, frame, kind, /*bytes=*/200));
    }
    h.loop.RunUntil(h.loop.now() + Duration::Millis(40));
  };
  // The previous life: 8,192 packets over 10.24 s.
  for (int64_t frame = 0; frame < 256; ++frame) send_frame(0x10, frame, 32);
  ASSERT_EQ(h.forwarder.stats(0).packets_forwarded, 8192);

  h.forwarder.ResetOrigin(0);
  h.delivered.clear();
  send_frame(0x11, 0, 8);  // the rejoin, under a new SSRC
  ASSERT_EQ(h.delivered.size(), 8u);
  TransportFeedback fb;
  for (const Delivered& d : h.delivered) {
    fb.arrivals.push_back({d.packet.mp_transport_seq, h.loop.now()});
  }
  EXPECT_EQ(fb.arrivals.front().mp_transport_seq, 0);
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, RtcpPacket{0, fb}));
  EXPECT_EQ(h.forwarder.cc(0).feedback_batches(), 1);
  EXPECT_EQ(h.forwarder.cc(0).packets_acked(), 8);
  EXPECT_EQ(h.forwarder.cc(0).horizon_misses(), 0);
}

// The conference routes nothing to a stopped engine, so Stop() releases
// its sent histories (RTX windows and send records); what Collect() reads
// of a retired engine (per-path stats, controllers, rung selection) stays
// as it was. A route that still reached the engine would be reported.
TEST(HubForwarderTest, StopReleasesSentHistoriesAndKeepsWhatCollectReads) {
  HubForwarder::Config config = FastConfig(0.5);
  config.layered = true;
  Harness h(config, {0, 1});
  uint16_t seq = 0;
  for (int64_t frame = 0; frame < 30; ++frame) {
    const FrameKind kind = (frame == 0 || (frame == 10 && !h.plis.empty()))
                               ? FrameKind::kKey
                               : FrameKind::kDelta;
    for (PathId path : {0, 1}) {
      h.forwarder.OnMediaFromUplink(
          0, path, LayeredPacket(0x10, seq++, frame, kind, 0, 2, 2917));
      h.forwarder.OnMediaFromUplink(
          0, path, LayeredPacket(0x10, seq++, frame, kind, 1, 2, 200));
    }
    h.loop.RunUntil(h.loop.now() + Duration::Millis(33));
  }
  h.loop.RunUntil(h.loop.now() + Duration::Millis(300));
  // Feedback for path 0's packets, and a NACK answered on path 1.
  TransportFeedback fb;
  for (const Delivered& d : h.delivered) {
    if (d.path == 0) {
      fb.arrivals.push_back({d.packet.mp_transport_seq, h.loop.now()});
    }
  }
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 0, RtcpPacket{0, fb}));
  EXPECT_TRUE(h.forwarder.OnReceiverRtcp(0, 1, RtcpPacket{1, Nack{0, {2}}}));
  h.loop.RunUntil(h.loop.now() + Duration::Millis(50));

  ASSERT_GT(h.forwarder.history_pages_allocated(), 0u);
  ASSERT_EQ(h.forwarder.max_selected_rung(), 1);
  ASSERT_EQ(h.forwarder.stats(1).rtx_answered, 1);
  ASSERT_GT(h.forwarder.cc(0).packets_acked(), 0);
  std::vector<HubForwarder::DownlinkStats> stats;
  std::vector<DataRate> targets;
  std::vector<int64_t> acked;
  for (PathId path : {0, 1}) {
    stats.push_back(h.forwarder.stats(path));
    targets.push_back(h.forwarder.downlink_target(path));
    acked.push_back(h.forwarder.cc(path).packets_acked());
  }

  h.forwarder.Stop();
  EXPECT_EQ(h.forwarder.history_pages_allocated(), 0u);
  EXPECT_EQ(h.forwarder.max_selected_rung(), 1);
  EXPECT_EQ(h.forwarder.selected_rung(0, 0), 1);
  for (PathId path : {0, 1}) {
    const HubForwarder::DownlinkStats& now = h.forwarder.stats(path);
    const HubForwarder::DownlinkStats& before = stats[path];
    EXPECT_EQ(now.packets_forwarded, before.packets_forwarded);
    EXPECT_EQ(now.bytes_forwarded, before.bytes_forwarded);
    EXPECT_EQ(now.rtx_answered, before.rtx_answered);
    EXPECT_EQ(now.layer_switches, before.layer_switches);
    EXPECT_EQ(now.layer_packets_filtered, before.layer_packets_filtered);
    EXPECT_EQ(now.max_queue_bytes, before.max_queue_bytes);
    EXPECT_EQ(h.forwarder.downlink_target(path), targets[path]);
    EXPECT_EQ(h.forwarder.cc(path).packets_acked(), acked[path]);
  }

  ScopedInvariants guard;
  h.forwarder.OnReceiverRtcp(0, 1, RtcpPacket{1, Nack{0, {3}}});
  h.forwarder.OnMediaFromUplink(
      0, 0, LayeredPacket(0x10, seq++, 30, FrameKind::kDelta, 1, 2, 200));
  EXPECT_EQ(InvariantRegistry::violation_count(), 2);
}

// Stamps `count` packets sent `gap` apart from `start` onto `egress`.
void SendPackets(EgressSeq& egress, DownlinkCc& cc, Timestamp start,
                 Duration gap, int count) {
  for (int i = 0; i < count; ++i) {
    RtpPacket p;
    p.payload_bytes = 1200;
    p.send_time = start + gap * i;
    egress.Stamp(p);
    cc.OnPacketSent();
  }
}

void Feedback(const EgressSeq& egress, DownlinkCc& cc,
              const TransportFeedback& fb, Timestamp now) {
  int64_t misses = 0;
  const std::vector<PacketResult> results = egress.Match(fb, misses);
  cc.OnTransportFeedback(results, misses, now);
}

TEST(DownlinkCcTest, LossyFeedbackDropsTargetBelowStart) {
  CcConfig config;
  config.start_rate = DataRate::MegabitsPerSec(5);
  config.max_rate = DataRate::MegabitsPerSec(10);
  DownlinkCc cc(config);
  EgressSeq egress;
  const DataRate start = cc.target_rate();

  // 2 s of 50 ms feedback batches with 30% loss and growing delay.
  Timestamp now = Timestamp::Zero();
  int64_t seq = 0;
  for (int batch = 0; batch < 40; ++batch) {
    SendPackets(egress, cc, now, Duration::Millis(2), 20);
    TransportFeedback fb;
    for (int i = 0; i < 20; ++i) {
      const Timestamp sent = now + Duration::Millis(i * 2);
      TransportFeedback::Arrival a;
      a.mp_transport_seq = seq;
      // Delay grows with the batch index: a building queue.
      a.recv_time = i % 3 == 0 ? Timestamp::MinusInfinity()
                               : sent + Duration::Millis(20 + batch * 2);
      fb.arrivals.push_back(a);
      ++seq;
    }
    now = now + Duration::Millis(50);
    Feedback(egress, cc, fb, now);
  }
  EXPECT_LT(cc.target_rate().bps(), start.bps() / 2);
  EXPECT_GT(cc.packets_lost(), 0);
  EXPECT_GT(cc.packets_acked(), 0);
}

TEST(DownlinkCcTest, SkipsArrivalsOutsideSentHistory) {
  DownlinkCc cc(CcConfig{});
  EgressSeq egress;
  SendPackets(egress, cc, Timestamp::Zero(), Duration::Millis(1), 3);
  TransportFeedback fb;
  TransportFeedback::Arrival a;
  a.mp_transport_seq = 7;  // never stamped
  a.recv_time = Timestamp::Zero() + Duration::Millis(10);
  fb.arrivals.push_back(a);
  Feedback(egress, cc, fb, Timestamp::Zero() + Duration::Millis(20));
  EXPECT_EQ(cc.feedback_batches(), 0);
  EXPECT_EQ(cc.packets_acked(), 0);
  EXPECT_EQ(cc.packets_registered(), 3);
}

}  // namespace
}  // namespace converge
