// Property-style parameterized sweeps over core invariants.
#include <gtest/gtest.h>

#include "core/video_aware_scheduler.h"
#include "fec/converge_fec_controller.h"
#include "fec/fec_tables.h"
#include "fec/webrtc_fec_controller.h"
#include "fec/xor_fec.h"
#include "net/fault_injector.h"
#include "net/fault_plan.h"
#include "net/link.h"
#include "receiver/fec_recovery.h"
#include "receiver/frame_buffer.h"
#include "receiver/packet_buffer.h"
#include "schedulers/mprtp_scheduler.h"
#include "session/call.h"
#include "schedulers/mtput_scheduler.h"
#include "schedulers/path_stats.h"
#include "schedulers/srtt_scheduler.h"
#include "util/invariants.h"
#include "util/random.h"

namespace converge {
namespace {

// ---------------------------------------------------------------------------
// Property: any scheduler assigns every packet of every frame to some path
// (or explicitly blacks out), never inventing or losing packets, for
// arbitrary path counts / frame sizes.
// ---------------------------------------------------------------------------

struct SchedulerCase {
  std::string name;
  std::function<std::unique_ptr<Scheduler>()> make;
};

class SchedulerPropertyTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

std::vector<PathInfo> RandomPaths(Random& rng, int n) {
  std::vector<PathInfo> out;
  for (int i = 0; i < n; ++i) {
    PathInfo p;
    p.id = i;
    p.allocated_rate =
        DataRate::KilobitsPerSec(rng.UniformInt(100, 30000));
    p.goodput = p.allocated_rate * rng.Uniform(0.5, 1.0);
    p.srtt = Duration::Millis(rng.UniformInt(10, 400));
    p.loss = rng.Uniform(0.0, 0.2);
    out.push_back(p);
  }
  return out;
}

std::vector<RtpPacket> RandomFrame(Random& rng, int media) {
  std::vector<RtpPacket> out;
  const bool key = rng.Bernoulli(0.2);
  uint16_t seq = static_cast<uint16_t>(rng.UniformInt(0, 65535));
  auto push = [&](PayloadKind k, Priority prio) {
    RtpPacket p;
    p.seq = seq++;
    p.kind = k;
    p.priority = prio;
    p.frame_kind = key ? FrameKind::kKey : FrameKind::kDelta;
    p.payload_bytes = 1100;
    out.push_back(p);
  };
  if (key) push(PayloadKind::kSps, Priority::kSps);
  push(PayloadKind::kPps, Priority::kPps);
  for (int i = 0; i < media; ++i) {
    push(PayloadKind::kMedia, key ? Priority::kKeyframe : Priority::kNone);
  }
  return out;
}

TEST_P(SchedulerPropertyTest, AssignmentIsCompleteAndValid) {
  const auto [num_paths, media_packets] = GetParam();
  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.push_back(std::make_unique<SrttScheduler>());
  schedulers.push_back(std::make_unique<MtputScheduler>());
  schedulers.push_back(std::make_unique<MprtpScheduler>());
  schedulers.push_back(std::make_unique<VideoAwareScheduler>());

  Random rng(static_cast<uint64_t>(num_paths * 1000 + media_packets));
  for (auto& sched : schedulers) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto paths = RandomPaths(rng, num_paths);
      const auto frame = RandomFrame(rng, media_packets);
      const auto assignment = sched->AssignFrame(frame, paths);
      ASSERT_EQ(assignment.size(), frame.size()) << sched->name();
      for (PathId id : assignment) {
        ASSERT_GE(id, 0) << sched->name();
        ASSERT_LT(id, num_paths) << sched->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PathAndFrameSweep, SchedulerPropertyTest,
    testing::Combine(testing::Values(1, 2, 3, 4),
                     testing::Values(1, 5, 20, 100)));

// ---------------------------------------------------------------------------
// Property: XOR FEC recovers any single loss per parity group, for every
// (media count, parity count, loss position) combination.
// ---------------------------------------------------------------------------

class FecRecoveryPropertyTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FecRecoveryPropertyTest, AnySingleLossPerGroupRecovers) {
  const auto [media_count, fec_count] = GetParam();
  std::vector<RtpPacket> media;
  for (int i = 0; i < media_count; ++i) {
    RtpPacket p;
    p.ssrc = 0x9;
    p.seq = static_cast<uint16_t>(i);
    p.payload_bytes = 500 + i;
    p.frame_id = 1;
    media.push_back(p);
  }
  std::vector<const RtpPacket*> ptrs;
  for (const auto& p : media) ptrs.push_back(&p);
  const auto parity = XorFecEncoder::Generate(ptrs, fec_count, 0);

  for (int lost = 0; lost < media_count; ++lost) {
    std::vector<RtpPacket> recovered;
    FecRecoverer rec([&](const RtpPacket& p) { recovered.push_back(p); });
    for (const auto& p : media) {
      if (p.seq != lost) rec.OnMediaPacket(p);
    }
    for (const auto& f : parity) rec.OnFecPacket(f);
    ASSERT_EQ(recovered.size(), 1u)
        << "media=" << media_count << " fec=" << fec_count << " lost=" << lost;
    EXPECT_EQ(recovered[0].seq, lost);
    EXPECT_EQ(recovered[0].payload_bytes, 500 + lost);
  }
}

INSTANTIATE_TEST_SUITE_P(MediaFecSweep, FecRecoveryPropertyTest,
                         testing::Combine(testing::Values(1, 2, 5, 13, 40),
                                          testing::Values(1, 2, 3, 7)));

// ---------------------------------------------------------------------------
// Property: long-run FEC overhead of each controller matches its rule across
// a loss sweep — table lookup for WebRTC, l*beta for Converge.
// ---------------------------------------------------------------------------

class FecOverheadPropertyTest : public testing::TestWithParam<double> {};

TEST_P(FecOverheadPropertyTest, ConvergeOverheadTracksLoss) {
  const double loss = GetParam();
  ConvergeFecController ctl;
  int64_t media = 0;
  int64_t fec = 0;
  for (int i = 0; i < 3000; ++i) {
    fec += ctl.NumFecPackets(12, FrameKind::kDelta, 0, loss, loss);
    ctl.OnFrameSent(0, 12, 0);
    media += 12;
  }
  EXPECT_NEAR(static_cast<double>(fec) / media, loss, loss * 0.15 + 0.003);
}

TEST_P(FecOverheadPropertyTest, WebRtcOverheadMatchesTable) {
  const double loss = GetParam();
  WebRtcFecController ctl;
  int64_t media = 0;
  int64_t fec = 0;
  for (int i = 0; i < 3000; ++i) {
    fec += ctl.NumFecPackets(12, FrameKind::kDelta, 0, loss, loss);
    media += 12;
  }
  const double expected = WebRtcProtectionFactor(loss, FrameKind::kDelta);
  EXPECT_NEAR(static_cast<double>(fec) / media, expected, 0.02);
}

TEST_P(FecOverheadPropertyTest, ConvergeAlwaysCheaperThanTable) {
  const double loss = GetParam();
  ConvergeFecController conv;
  WebRtcFecController table;
  int64_t conv_fec = 0;
  int64_t table_fec = 0;
  for (int i = 0; i < 2000; ++i) {
    conv_fec += conv.NumFecPackets(12, FrameKind::kDelta, 0, loss, loss);
    conv.OnFrameSent(0, 12, 0);
    table_fec += table.NumFecPackets(12, FrameKind::kDelta, 0, loss, loss);
  }
  EXPECT_LT(conv_fec, table_fec);
}

INSTANTIATE_TEST_SUITE_P(LossSweep, FecOverheadPropertyTest,
                         testing::Values(0.01, 0.02, 0.03, 0.05, 0.08, 0.10));

// ---------------------------------------------------------------------------
// Property: ProportionalSplit conserves the packet count for arbitrary rate
// vectors.
// ---------------------------------------------------------------------------

TEST(SplitPropertyTest, AlwaysSumsToN) {
  Random rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const int n_paths = static_cast<int>(rng.UniformInt(1, 6));
    const int n = static_cast<int>(rng.UniformInt(0, 200));
    const auto paths = RandomPaths(rng, n_paths);
    const auto split = ProportionalSplit(paths, n);
    int total = 0;
    for (int c : split) {
      EXPECT_GE(c, 0);
      total += c;
    }
    EXPECT_EQ(total, n);
  }
}

// ---------------------------------------------------------------------------
// Property: the video-aware scheduler never sends critical packets to a
// disabled path, across random feedback sequences.
// ---------------------------------------------------------------------------

TEST(VideoAwarePropertyTest, CriticalPacketsNeverOnDisabledPaths) {
  Random rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    VideoAwareScheduler sched;
    const auto paths = RandomPaths(rng, 3);
    // Random feedback barrage.
    for (int i = 0; i < 10; ++i) {
      QoeFeedback fb;
      fb.path_id = static_cast<PathId>(rng.UniformInt(0, 2));
      fb.alpha = static_cast<int32_t>(rng.UniformInt(-20, 3));
      fb.fcd = Duration::Millis(rng.UniformInt(1, 50));
      sched.OnQoeFeedback(fb);
      sched.AssignFrame(RandomFrame(rng, 10), paths);
    }
    const auto frame = RandomFrame(rng, 30);
    const auto assignment = sched.AssignFrame(frame, paths);
    for (size_t i = 0; i < frame.size(); ++i) {
      ASSERT_TRUE(sched.IsPathActive(assignment[i]))
          << "packet assigned to disabled path";
    }
  }
}

// ---------------------------------------------------------------------------
// Conservation properties over whole links: every packet handed to a link is
// delivered, randomly lost, or queue-dropped — nothing vanishes, nothing is
// duplicated — across a sweep of loss rates and offered loads.
// ---------------------------------------------------------------------------

class LinkConservationTest
    : public testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(LinkConservationTest, PacketsAreConserved) {
  const auto [loss_rate, load_factor] = GetParam();
  EventLoop loop;
  Link::Config config;
  config.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(5));
  config.prop_delay = Duration::Millis(10);
  if (loss_rate > 0) config.loss = std::make_shared<BernoulliLoss>(loss_rate);
  Link link(&loop, config, Random(42));

  int64_t delivered = 0;
  int64_t dropped = 0;
  const int total = 3000;
  // Offer `load_factor` times the link capacity.
  const Duration send_interval =
      Duration::Micros(static_cast<int64_t>(1200.0 * 8 / 5.0 / load_factor));
  Timestamp at = Timestamp::Zero();
  for (int i = 0; i < total; ++i) {
    loop.ScheduleAt(at, [&] {
      link.Send(
          1200, [&](Timestamp) { ++delivered; }, [&](bool) { ++dropped; });
    });
    at += send_interval;
  }
  loop.RunAll();
  EXPECT_EQ(delivered + dropped, total);
  EXPECT_EQ(link.stats().packets_delivered, delivered);
  EXPECT_EQ(link.stats().packets_lost + link.stats().packets_queue_dropped,
            dropped);
  if (load_factor > 1.2) {
    EXPECT_GT(link.stats().packets_queue_dropped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(LossAndLoadSweep, LinkConservationTest,
                         testing::Combine(testing::Values(0.0, 0.05, 0.3),
                                          testing::Values(0.5, 1.0, 2.0)));

// ---------------------------------------------------------------------------
// Invariant-backed receiver-buffer properties: packets routed through a
// FaultyLink reorder/duplication window arrive shuffled and doubled, and the
// PacketBuffer / FrameBuffer registered invariants must hold throughout.
// ---------------------------------------------------------------------------

TEST(ReceiverBufferPropertyTest,
     PacketBufferInvariantsHoldUnderReorderAndDuplication) {
  ScopedInvariants guard;
  EventLoop loop;
  FaultPlan plan;
  plan.Add(FaultEvent::Reorder(Timestamp::Zero(), Duration::Seconds(60),
                               Duration::Millis(30),
                               /*duplicate_prob=*/0.25));
  Link::Config lc;
  lc.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(20));
  lc.prop_delay = Duration::Millis(10);
  lc.faults = plan;
  auto link = MakeLink(&loop, lc, Random(9));

  int64_t frames_out = 0;
  // Small capacity so the adversarial sequence also exercises eviction.
  PacketBuffer buffer({.capacity_packets = 48},
                      [&](GatheredFrame&&) { ++frames_out; });

  int64_t offered = 0;
  int64_t arrived = 0;
  Random gen(21);
  uint16_t seq = 0;
  Timestamp at = Timestamp::Zero();
  for (int frame = 0; frame < 200; ++frame) {
    const int n_packets = static_cast<int>(gen.UniformInt(1, 6));
    for (int i = 0; i < n_packets; ++i) {
      RtpPacket p;
      p.ssrc = 0x42;
      p.stream_id = 0;
      p.frame_id = frame;
      p.seq = seq++;
      p.first_in_frame = i == 0;
      p.marker = i == n_packets - 1;
      p.payload_bytes = 1000;
      loop.ScheduleAt(at, [&, p] {
        // The duplication fault answers how many copies cross the wire; the
        // buffer sees each as a separate arrival and must dedup.
        for (int c = link->SendCopies(); c > 0; --c) {
          ++offered;
          link->Send(p.payload_bytes, [&, p](Timestamp t) {
            ++arrived;
            buffer.Insert(p, t, 0);
          });
        }
      });
    }
    at += Duration::Millis(5);
  }
  loop.RunAll();

  EXPECT_EQ(InvariantRegistry::violation_count(), 0)
      << InvariantRegistry::Describe();
  EXPECT_EQ(arrived, offered);  // reorder/duplication faults never lose
  EXPECT_GT(offered, 200 * 1);  // duplication actually triggered
  // Conservation: every arrival was deduped, stored, or made room.
  const PacketBuffer::Stats& st = buffer.stats();
  EXPECT_EQ(st.inserted + st.duplicates, arrived);
  EXPECT_GT(st.duplicates, 0);
  EXPECT_LE(buffer.size(), 48u);
  // What is neither still buffered, evicted, nor purged left via assembly.
  EXPECT_GE(st.inserted,
            static_cast<int64_t>(buffer.size()) + st.evicted + st.purged);
  EXPECT_EQ(st.frames_assembled, frames_out);
  EXPECT_GT(frames_out, 0);
}

TEST(ReceiverBufferPropertyTest, FrameBufferReleasesInOrderUnderReorderFault) {
  ScopedInvariants guard;
  EventLoop loop;
  FaultPlan plan;
  plan.Add(FaultEvent::Reorder(Timestamp::Zero(), Duration::Seconds(60),
                               Duration::Millis(50)));
  Link::Config lc;
  lc.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(50));
  lc.prop_delay = Duration::Millis(5);
  lc.faults = plan;
  auto link = MakeLink(&loop, lc, Random(13));

  int64_t last_released = -1;
  int64_t released = 0;
  FrameBuffer fb(
      &loop, {.capacity_frames = 8, .max_wait = Duration::Millis(40)},
      [&](const AssembledFrame& f) {
        // Decode order: strictly increasing frame ids, always.
        EXPECT_GT(f.frame_id, last_released);
        last_released = f.frame_id;
        ++released;
      },
      /*on_keyframe_request=*/[] {},
      /*on_purge=*/[](int64_t) {});

  Random gen(31);
  Timestamp at = Timestamp::Zero();
  for (int id = 0; id < 200; ++id) {
    AssembledFrame frame;
    frame.stream_id = 0;
    frame.frame_id = id;
    frame.kind = id % 20 == 0 ? FrameKind::kKey : FrameKind::kDelta;
    // ~5% of frames never assemble (their packets were lost upstream):
    // the buffer must wait, give up, and jump without ever violating its
    // ordering invariants.
    if (id % 20 != 0 && gen.Bernoulli(0.05)) {
      at += Duration::Millis(10);
      continue;
    }
    loop.ScheduleAt(at, [&, frame] {
      link->Send(1000, [&, frame](Timestamp) { fb.Insert(frame); });
    });
    at += Duration::Millis(10);
  }
  loop.RunAll();

  EXPECT_EQ(InvariantRegistry::violation_count(), 0)
      << InvariantRegistry::Describe();
  EXPECT_GT(released, 100);
  EXPECT_LE(fb.size(), 8u);
  // Every inserted frame was either released or counted as a drop (frames
  // skipped over are drops too, so dropped >= inserted - released is loose;
  // released alone never exceeds insertions).
  EXPECT_LE(released, fb.stats().frames_inserted);
}

// ---------------------------------------------------------------------------
// End-to-end determinism across every variant: identical configs produce
// bit-identical results.
// ---------------------------------------------------------------------------

class DeterminismTest : public testing::TestWithParam<Variant> {};

TEST_P(DeterminismTest, IdenticalRunsMatch) {
  CallConfig config;
  config.variant = GetParam();
  PathSpec a;
  a.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(6));
  a.prop_delay = Duration::Millis(20);
  a.loss = std::make_shared<BernoulliLoss>(0.01);
  PathSpec b = a;
  b.prop_delay = Duration::Millis(50);
  config.paths = {a, b};
  config.duration = Duration::Seconds(8);
  config.seed = 99;

  Call first(config);
  const CallStats s1 = first.Run();
  Call second(config);
  const CallStats s2 = second.Run();
  EXPECT_EQ(s1.media_packets_sent, s2.media_packets_sent);
  EXPECT_EQ(s1.fec_packets_sent, s2.fec_packets_sent);
  EXPECT_EQ(s1.rtx_packets_sent, s2.rtx_packets_sent);
  EXPECT_EQ(s1.total_frame_drops, s2.total_frame_drops);
  EXPECT_DOUBLE_EQ(s1.AvgFps(), s2.AvgFps());
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DeterminismTest,
    testing::Values(Variant::kWebRtcPath0, Variant::kWebRtcCm, Variant::kSrtt,
                    Variant::kEcf, Variant::kMtput, Variant::kMrtp,
                    Variant::kConverge, Variant::kConvergeNoFeedback,
                    Variant::kConvergeWebRtcFec));

}  // namespace
}  // namespace converge
