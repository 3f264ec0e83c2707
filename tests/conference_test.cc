// Conference runtime coverage: the 2-party Call adapter's byte-identity
// against the pinned seed-era fixtures, 3-party mesh determinism across
// worker counts and reruns, star-topology forwarding correctness, the
// faulted-mesh chaos run CI pins under ASan, zero InlineFunction heap
// fallbacks while faulted and cascaded calls advance, the
// participant-scoped SSRC allocator, and every ConferenceConfig degrade
// rule, through the constructor and through NormalizeConferenceConfig
// alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <string>
#include <tuple>
#include <vector>

#include "net/fault_plan.h"
#include "net/loss_model.h"
#include "rtp/ssrc_allocator.h"
#include "session/call.h"
#include "session/conference.h"
#include "session/stats_json.h"
#include "trace/generators.h"
#include "util/inline_function.h"
#include "util/invariants.h"
#include "util/seq_window.h"

#include "fixture_configs.h"

namespace converge {
namespace {

PathSpec StablePath(const std::string& name, double mbps, int delay_ms,
                    double loss = 0.0) {
  PathSpec spec;
  spec.name = name;
  spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
  spec.prop_delay = Duration::Millis(delay_ms);
  if (loss > 0.0) spec.loss = std::make_shared<BernoulliLoss>(loss);
  return spec;
}

using fixtures::FixtureCallConfig;

std::string ReadFixture(const std::string& file) {
  const std::string path = std::string(CONVERGE_TEST_DATA_DIR) + "/" + file;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Byte-compares a fresh run of a pinned conference config against its
// fixture (tests/fixture_configs.h; regenerate with gen_call_fixtures).
void ExpectMatchesConferenceFixture(const char* file) {
  for (const fixtures::ConferenceFixture& fixture :
       fixtures::kConferenceFixtures) {
    if (std::string_view(fixture.file) != file) continue;
    Conference conference(fixture.config());
    EXPECT_EQ(ConferenceStatsToJson(conference.Run()), ReadFixture(file))
        << "conference results drifted from the pinned fixture " << file;
    return;
  }
  ADD_FAILURE() << "no pinned config for " << file;
}

// A small every-participant-duplex conference on two stable paths.
ConferenceConfig MeshConfig(int participants, Duration duration,
                            uint64_t seed) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kMesh;
  config.participants.assign(static_cast<size_t>(participants),
                             ParticipantSpec{});
  config.paths = {StablePath("m0", 6.0, 20, 0.01),
                  StablePath("m1", 4.0, 35, 0.005)};
  config.max_rate_per_stream = DataRate::MegabitsPerSec(3);
  config.duration = duration;
  config.seed = seed;
  return config;
}

ConferenceConfig StarConfig(int participants, Duration duration,
                            uint64_t seed) {
  ConferenceConfig config = MeshConfig(participants, duration, seed);
  config.topology = Topology::kStar;
  // Uplinks keep the mesh path template; hub->receiver downlinks are
  // provisioned for the aggregate of all forwarded senders, so the hub's
  // per-downlink controllers stay uncongested and forwarding is lossless.
  config.paths_for_edge = [participants](int from, int) {
    if (from == kHubId) {
      const double scale = static_cast<double>(participants - 1);
      return std::vector<PathSpec>{
          StablePath("d0", 8.0 * scale, 15),
          StablePath("d1", 6.0 * scale, 25)};
    }
    return std::vector<PathSpec>{StablePath("u0", 6.0, 20, 0.01),
                                 StablePath("u1", 4.0, 35, 0.005)};
  };
  return config;
}

// --- Satellite: the participant-scoped SSRC allocator -----------------------

TEST(SsrcAllocatorTest, ParticipantZeroKeepsLegacyLayout) {
  EXPECT_EQ(SsrcAllocator::StreamSsrc(0, 0), 0x1000u);
  EXPECT_EQ(SsrcAllocator::StreamSsrc(0, 2), 0x1002u);
}

TEST(SsrcAllocatorTest, BlocksAreDisjointAcrossParticipants) {
  std::set<uint32_t> seen;
  for (int p = 0; p < 8; ++p) {
    for (int s = 0; s < 16; ++s) {
      EXPECT_TRUE(seen.insert(SsrcAllocator::StreamSsrc(p, s)).second)
          << "collision at participant " << p << " stream " << s;
    }
  }
}

// --- The 2-party Call adapter ----------------------------------------------

TEST(ConferenceAdapterTest, MatchesSeedEraFixtureForEveryVariant) {
  for (Variant v : fixtures::kFixtureVariants) {
    Call call(FixtureCallConfig(v));
    const CallStats stats = call.Run();
    EXPECT_EQ(CallStatsToJson(stats),
              ReadFixture(fixtures::FixtureFileName(v)))
        << "adapter result drifted from the pre-refactor implementation for "
        << ToString(v);
  }
}

// Pins the whole ConferenceStats JSON export — values AND schema (the
// churn-era participant/leg fields and the cross_traffic array included) —
// against the committed fixture.
TEST(ConferenceAdapterTest, StarThreePartyMatchesPinnedFixture) {
  ExpectMatchesConferenceFixture("conference_fixture_star3.json");
}

// Mid-call mesh builds in both directions plus a leave/rejoin.
TEST(ConferenceAdapterTest, MeshChurnMatchesPinnedFixture) {
  ExpectMatchesConferenceFixture("conference_fixture_mesh3_churn.json");
}

// Single-hub layered forwarding (rung selection, filtering, padding) across
// a leave/rejoin.
TEST(ConferenceAdapterTest, StarLayersChurnMatchesPinnedFixture) {
  ExpectMatchesConferenceFixture("conference_fixture_star3_layers_churn.json");
}

// Cascade routing, hub failure, re-homing, trunk rebuild and a rejoiner.
TEST(ConferenceAdapterTest, CascadeFailoverMatchesPinnedFixture) {
  ExpectMatchesConferenceFixture("conference_fixture_cascade3_failover.json");
}

// Legacy (ssrc, seq) NACKs answered at the hub under cross-path reordering,
// past the legacy history cap, across a leave/rejoin.
TEST(ConferenceAdapterTest, StarLegacyChurnMatchesPinnedFixture) {
  ExpectMatchesConferenceFixture("conference_fixture_star3_legacy_churn.json");
}

TEST(ConferenceAdapterTest, CallIsExactlyAOneLegMeshConference) {
  const CallConfig call_config = FixtureCallConfig(Variant::kConverge);
  Call call(call_config);
  const CallStats via_call = call.Run();

  Conference conference(ToConferenceConfig(call_config));
  ASSERT_EQ(conference.num_legs(), 1u);
  EXPECT_EQ(conference.leg_from(0), 0);
  EXPECT_EQ(conference.leg_to(0), 1);
  const ConferenceStats via_conference = conference.Run();
  ASSERT_EQ(via_conference.legs.size(), 1u);
  EXPECT_EQ(CallStatsToJson(via_conference.legs[0].stats),
            CallStatsToJson(via_call));

  // Only participant 1 receives anything.
  ASSERT_EQ(via_conference.participants.size(), 2u);
  EXPECT_EQ(via_conference.participants[0].inbound_streams, 0);
  EXPECT_EQ(via_conference.participants[1].inbound_streams,
            call_config.num_streams);
}

// --- Mesh -------------------------------------------------------------------

TEST(ConferenceMeshTest, ThreePartyMeshAllParticipantsSendAndReceive) {
  Conference conference(MeshConfig(3, Duration::Seconds(6), 11));
  ASSERT_EQ(conference.num_legs(), 6u);
  const ConferenceStats stats = conference.Run();
  ASSERT_EQ(stats.legs.size(), 6u);
  ASSERT_EQ(stats.participants.size(), 3u);

  for (const ConferenceStats::Leg& leg : stats.legs) {
    EXPECT_NE(leg.from, leg.to);
    ASSERT_EQ(leg.stats.streams.size(), 1u);
    EXPECT_GT(leg.stats.streams[0].frames_decoded, 0)
        << "leg " << leg.from << "->" << leg.to << " decoded nothing";
  }
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    EXPECT_EQ(p.inbound_streams, 2);
    EXPECT_GT(p.avg_fps, 10.0) << "participant " << p.participant;
    EXPECT_GT(p.total_tput_mbps, 0.2) << "participant " << p.participant;
    EXPECT_LT(p.avg_e2e_ms, 500.0) << "participant " << p.participant;
  }
}

TEST(ConferenceMeshTest, SendOnlyAndReceiveOnlyRolesPruneLegs) {
  ConferenceConfig config = MeshConfig(3, Duration::Seconds(2), 4);
  config.participants[0].receives = false;  // pure publisher
  config.participants[2].sends = false;     // pure viewer
  Conference conference(config);
  // Senders {0, 1} x receivers {1, 2} minus self-legs: 0->1, 0->2, 1->2.
  ASSERT_EQ(conference.num_legs(), 3u);
  EXPECT_EQ(conference.leg_from(0), 0);
  EXPECT_EQ(conference.leg_to(0), 1);
  EXPECT_EQ(conference.leg_from(2), 1);
  EXPECT_EQ(conference.leg_to(2), 2);
}

TEST(ConferenceMeshTest, DeterministicAcrossJobsAndReruns) {
  std::vector<ConferenceConfig> configs;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    configs.push_back(MeshConfig(3, Duration::Seconds(4), seed));
  }
  const std::vector<ConferenceStats> serial = RunConferences(configs, 1);
  const std::vector<ConferenceStats> parallel = RunConferences(configs, 8);
  const std::vector<ConferenceStats> rerun = RunConferences(configs, 8);
  ASSERT_EQ(serial.size(), configs.size());
  for (size_t i = 0; i < configs.size(); ++i) {
    const std::string expected = ConferenceStatsToJson(serial[i]);
    EXPECT_EQ(ConferenceStatsToJson(parallel[i]), expected)
        << "jobs=8 diverged from jobs=1 at seed " << (i + 1);
    EXPECT_EQ(ConferenceStatsToJson(rerun[i]), expected)
        << "rerun diverged at seed " << (i + 1);
  }
}

// --- Star -------------------------------------------------------------------

TEST(ConferenceStarTest, HubForwardsEveryStreamToEverySubscriber) {
  Conference conference(StarConfig(3, Duration::Seconds(6), 21));
  ASSERT_EQ(conference.num_legs(), 6u);
  const ConferenceStats stats = conference.Run();

  for (const ConferenceStats::Leg& leg : stats.legs) {
    ASSERT_EQ(leg.stats.streams.size(), 1u);
    EXPECT_GT(leg.stats.streams[0].frames_decoded, 0)
        << "hub dropped leg " << leg.from << "->" << leg.to;
  }
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    EXPECT_EQ(p.inbound_streams, 2);
    EXPECT_GT(p.avg_fps, 10.0) << "participant " << p.participant;
    // Two store-and-forward hops: E2E must exceed the single uplink
    // propagation delay but stay conversational.
    EXPECT_GT(p.avg_e2e_ms, 35.0) << "participant " << p.participant;
    EXPECT_LT(p.avg_e2e_ms, 600.0) << "participant " << p.participant;
  }
}

// One publisher fanned out to three subscribers; receiver 3's downlink is
// constrained to `slow_mbps` aggregate across its two paths while the
// others get 10 Mbps. The hub must adapt receiver 3 independently.
ConferenceConfig ConstrainedStarConfig(double slow_mbps, Duration duration,
                                       uint64_t seed) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(4, ParticipantSpec{});
  config.participants[0].receives = false;
  for (int p = 1; p < 4; ++p) config.participants[p].sends = false;
  config.max_rate_per_stream = DataRate::MegabitsPerSec(3);
  config.duration = duration;
  config.seed = seed;
  config.paths_for_edge = [slow_mbps](int from, int to) {
    if (from == kHubId) {
      const double scale = to == 3 ? slow_mbps : 10.0;
      return std::vector<PathSpec>{StablePath("d0", 0.6 * scale, 15),
                                   StablePath("d1", 0.4 * scale, 25)};
    }
    return std::vector<PathSpec>{StablePath("u0", 6.0, 20),
                                 StablePath("u1", 4.0, 35)};
  };
  return config;
}

// The PR 5 acceptance scenario: one 1 Mbps downlink next to two 10 Mbps
// downlinks. The slow receiver must converge near its own capacity with a
// bounded hub queue, while the fast receivers stay within 5% of the QoE
// they get in an unconstrained run.
TEST(ConferenceStarTest, ConstrainedDownlinkConvergesAndIsolatesOthers) {
  const Duration duration = Duration::Seconds(12);
  Conference constrained(ConstrainedStarConfig(1.0, duration, 42));
  const ConferenceStats stats = constrained.Run();
  Conference unconstrained(ConstrainedStarConfig(10.0, duration, 42));
  const ConferenceStats baseline = unconstrained.Run();

  // Slow receiver: still decoding, at a rate near its 1 Mbps downlink.
  const ConferenceStats::ParticipantQoe& slow = stats.participants[3];
  EXPECT_GT(slow.avg_fps, 2.0);
  EXPECT_GT(slow.total_tput_mbps, 0.3);
  EXPECT_LT(slow.total_tput_mbps, 1.2);

  // The hub's controllers converged from the 3 Mbps aggregate start down
  // to roughly the slow downlink's capacity, thinning the excess, and the
  // drop policy kept the hub queue bounded.
  double slow_target_kbps = 0.0;
  int64_t slow_thinned = 0;
  ASSERT_FALSE(stats.downlinks.empty());
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    EXPECT_LT(d.forwarder.max_queue_delay_ms, 2000.0)
        << "receiver " << d.receiver << " path " << d.path;
    if (d.receiver == 3) {
      slow_target_kbps += d.target_kbps;
      slow_thinned += d.forwarder.frames_thinned;
    }
  }
  EXPECT_GT(slow_target_kbps, 300.0);
  EXPECT_LT(slow_target_kbps, 2000.0);
  EXPECT_GT(slow_thinned, 0);
  // Thinning broke dependency chains, so the hub asked the origin for
  // recovery keyframes.
  const HubForwarder* fwd = constrained.hub_forwarder(3);
  ASSERT_NE(fwd, nullptr);
  EXPECT_GT(fwd->stats(0).plis_relayed + fwd->stats(1).plis_relayed, 0);

  // Fast receivers: within 5% of their unconstrained QoE.
  for (int p = 1; p <= 2; ++p) {
    const double fps = stats.participants[static_cast<size_t>(p)].avg_fps;
    const double base =
        baseline.participants[static_cast<size_t>(p)].avg_fps;
    EXPECT_GT(base, 10.0) << "participant " << p;
    EXPECT_GT(fps, base * 0.95)
        << "participant " << p << " lost more than 5% QoE to a slow peer";
  }
}

// The PR 10 acceptance scenario: the same 1 Mbps vs 10 Mbps heterogeneous
// star, but with the publisher encoding three simulcast rungs and the hub
// doing per-receiver rung selection instead of whole-frame thinning. The
// slow receiver must lock to a lower rung at (essentially) full frame
// rate — no thinning-induced fps collapse — while the fast receivers stay
// within 5% of the source fps they get in an unconstrained run.
TEST(ConferenceStarTest, LayeredSlowDownlinkLocksLowerRungAtFullFps) {
  const Duration duration = Duration::Seconds(12);
  ConferenceConfig layered = ConstrainedStarConfig(1.0, duration, 42);
  layered.simulcast_rungs = 3;
  Conference constrained(layered);
  const ConferenceStats stats = constrained.Run();
  ConferenceConfig unconstrained_cfg = ConstrainedStarConfig(10.0, duration, 42);
  unconstrained_cfg.simulcast_rungs = 3;
  Conference unconstrained(unconstrained_cfg);
  const ConferenceStats baseline = unconstrained.Run();

  EXPECT_EQ(stats.simulcast_rungs, 3);

  // Slow receiver: locked to a lower rung, with switches committed and
  // unsubscribed rungs filtered (selection, not loss).
  int slow_rung = 0;
  int64_t slow_switches = 0;
  int64_t slow_filtered = 0;
  int64_t slow_thinned = 0;
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    if (d.receiver != 3) continue;
    slow_rung = std::max(slow_rung, d.selected_rung);
    slow_switches += d.forwarder.layer_switches;
    slow_filtered += d.forwarder.layer_packets_filtered;
    slow_thinned += d.forwarder.frames_thinned;
  }
  EXPECT_GE(slow_rung, 1);
  EXPECT_GE(slow_switches, 1);
  EXPECT_GT(slow_filtered, 0);

  // Full fps on the lower rung: within 5% of the receiver's own
  // unconstrained fps. This is the envelope whole-frame thinning cannot
  // meet (the PR 5 test above pins its fps collapse).
  const double slow_fps = stats.participants[3].avg_fps;
  const double slow_base = baseline.participants[3].avg_fps;
  EXPECT_GT(slow_base, 20.0);
  EXPECT_GT(slow_fps, slow_base * 0.95)
      << "rung selection failed to hold full fps on the slow downlink";
  // Selection converged: thinning (the overload backstop) stayed rare
  // instead of running continuously like the single-layer hub.
  EXPECT_LT(slow_thinned, 30);

  // Fast receivers: within 5% of their unconstrained QoE, on the top rung.
  for (int p = 1; p <= 2; ++p) {
    const double fps = stats.participants[static_cast<size_t>(p)].avg_fps;
    const double base = baseline.participants[static_cast<size_t>(p)].avg_fps;
    EXPECT_GT(base, 20.0) << "participant " << p;
    EXPECT_GT(fps, base * 0.95) << "participant " << p;
  }
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    if (d.receiver == 3) continue;
    EXPECT_EQ(d.selected_rung, 0) << "receiver " << d.receiver;
  }
}

// Regression for the upstream-relay audit: downlink feedback must
// terminate at the hub. With heavily lossy downlinks and clean uplinks,
// the origin sender's per-path loss estimate (fed only by the hub's
// feedback endpoint) must stay clean while the hub's per-downlink
// controllers see the loss.
TEST(ConferenceStarTest, UplinkGccNeverSeesDownlinkFeedback) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(2, ParticipantSpec{});
  config.participants[0].receives = false;
  config.participants[1].sends = false;
  config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
  config.duration = Duration::Seconds(8);
  config.seed = 5;
  config.paths_for_edge = [](int from, int) {
    if (from == kHubId) {
      return std::vector<PathSpec>{StablePath("d0", 6.0, 15, 0.15),
                                   StablePath("d1", 4.0, 25, 0.15)};
    }
    return std::vector<PathSpec>{StablePath("u0", 6.0, 20),
                                 StablePath("u1", 4.0, 35)};
  };
  Conference conference(config);
  ASSERT_EQ(conference.num_legs(), 1u);
  conference.Run();

  const Sender& origin = conference.leg_sender(0);
  const HubForwarder* fwd = conference.hub_forwarder(1);
  ASSERT_NE(fwd, nullptr);
  double hub_loss = 0.0;
  for (PathId path : {PathId{0}, PathId{1}}) {
    EXPECT_LT(origin.path_loss(path), 0.05)
        << "origin GCC saw downlink loss on path " << path;
    hub_loss = std::max(hub_loss, fwd->downlink_loss(path));
  }
  EXPECT_GT(hub_loss, 0.05)
      << "hub controllers never registered the downlink loss";
}

// WebRTC variants negotiate legacy (ssrc, seq) NACK on every hop: the hub
// answers its receivers' NACKs from its legacy history, and the receivers
// recover losses through those answers.
TEST(ConferenceStarTest, WebRtcStarAnswersLegacyNacksAtTheHub) {
  ConferenceConfig config = StarConfig(3, Duration::Seconds(8), 13);
  config.variant = Variant::kWebRtcPath0;
  config.paths_for_edge = [](int from, int) {
    if (from == kHubId) {
      return std::vector<PathSpec>{StablePath("d0", 16.0, 15, 0.03),
                                   StablePath("d1", 12.0, 25, 0.03)};
    }
    return std::vector<PathSpec>{StablePath("u0", 6.0, 20, 0.01),
                                 StablePath("u1", 4.0, 35, 0.005)};
  };
  Conference conference(config);
  const ConferenceStats stats = conference.Run();

  int64_t answered = 0;
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    answered += d.forwarder.rtx_answered;
  }
  EXPECT_GT(answered, 0);
  int64_t recovered = 0;
  for (size_t leg = 0; leg < conference.num_legs(); ++leg) {
    recovered += conference.leg_receiver(leg).nack().stats().recovered;
  }
  EXPECT_GT(recovered, 0);
}

// A leave stops the hub's uplink feedback endpoint for the leaver, NACK
// generator included: the endpoint sends toward the departed publisher over
// a hop that stays open, so a generator still ticking would keep its
// retired Sender answering NACKs for copies the hop then drops. RTCP that
// left before the leave may still land within one trip.
TEST(ConferenceStarTest, LeaverSenderAnswersNoNackAfterItsUplinkStops) {
  const ConferenceConfig config = fixtures::FixtureStarLegacyChurnConfig();
  const MembershipEvent& leave = config.membership.front();
  ASSERT_EQ(leave.kind, MembershipEvent::Kind::kLeave);
  Conference conference(config);
  conference.Start();
  conference.AdvanceTo(leave.at + Duration::Millis(100));
  const Sender* leaver = nullptr;
  for (size_t leg = 0; leg < conference.num_legs() && leaver == nullptr;
       ++leg) {
    if (conference.leg_from(leg) == leave.participant) {
      leaver = &conference.leg_sender(leg);
    }
  }
  ASSERT_NE(leaver, nullptr);
  ASSERT_GT(leaver->stats().rtx_packets_sent, 0);
  const Sender::Stats at_leave = leaver->stats();
  conference.AdvanceTo(Timestamp::Zero() + config.duration);
  EXPECT_EQ(leaver->stats().rtx_packets_sent, at_leave.rtx_packets_sent);
}

// A late joiner's uplink is built mid-call, so a path-count mismatch against
// the downlinks must be stamped at the join, not at t = 0. The joiner's
// uplink has fewer paths than the downlinks, so forwarding path p onto
// downlink path p stays safe.
TEST(ConferenceStarTest, LateJoinerPathCountMismatchIsStampedAtJoinTime) {
  ConferenceConfig config = StarConfig(3, Duration::Seconds(2), 17);
  const auto base = config.paths_for_edge;
  config.paths_for_edge = [base](int from, int to) {
    std::vector<PathSpec> paths = base(from, to);
    if (from == 2) paths.resize(1);
    return paths;
  };
  config.membership = {fixtures::Join(1.0, 2)};

  ScopedInvariants invariants;
  Conference conference(config);
  conference.Run();
  std::vector<std::pair<std::string, int64_t>> recorded;
  for (const InvariantViolation& v : InvariantRegistry::Snapshot()) {
    recorded.emplace_back(v.detail, v.at.us());
  }
  const int64_t join_us = Duration::Seconds(1.0).us();
  const std::vector<std::pair<std::string, int64_t>> expected = {
      {"star edge path-count mismatch: uplink 2 has 1, downlink 0 has 2",
       join_us},
      {"star edge path-count mismatch: uplink 2 has 1, downlink 1 has 2",
       join_us},
      {"star edge path-count mismatch: uplink 2 has 1, downlink 2 has 2",
       join_us},
  };
  EXPECT_EQ(recorded, expected);
}

TEST(ConferenceStarTest, DeterministicAcrossJobs) {
  std::vector<ConferenceConfig> configs;
  for (uint64_t seed = 7; seed <= 9; ++seed) {
    configs.push_back(StarConfig(3, Duration::Seconds(4), seed));
  }
  const std::vector<ConferenceStats> serial = RunConferences(configs, 1);
  const std::vector<ConferenceStats> parallel = RunConferences(configs, 8);
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(ConferenceStatsToJson(parallel[i]),
              ConferenceStatsToJson(serial[i]));
  }
}

// --- Chaos: faulted 3-party mesh under invariants + tracing -----------------
// CI's chaos job runs this suite under ASan; the acceptance criterion is a
// deterministic faulted N-party run with zero invariant violations.

TEST(ConferenceChaosTest, FaultedThreePartyMeshRunsCleanUnderInvariants) {
  ScopedInvariants invariants;
  ConferenceConfig config = MeshConfig(3, Duration::Seconds(8), 31);
  // Scripted faults on the primary path of every directed edge, plus the
  // flight recorder, exactly as the chaos CI job drives 2-party calls.
  config.paths[0].fault_plan =
      MakeScenarioFaultPlan(Scenario::kWalking, config.seed);
  config.trace_capacity = 1 << 14;
  Conference conference(config);
  const ConferenceStats stats = conference.Run();

  EXPECT_EQ(InvariantRegistry::violation_count(), 0)
      << InvariantRegistry::Describe();
  ASSERT_NE(conference.trace(), nullptr);
  EXPECT_GT(conference.trace()->total_emitted(), 0);
  // The faulted path degrades QoE but every participant must still decode
  // video from both remotes.
  for (const ConferenceStats::Leg& leg : stats.legs) {
    ASSERT_EQ(leg.stats.streams.size(), 1u);
    EXPECT_GT(leg.stats.streams[0].frames_decoded, 0);
  }
  // Participant tags flow through routing + the event loop into the trace.
  std::set<int32_t> tagged;
  for (const TraceEvent& e : conference.trace()->Snapshot()) {
    if (e.participant >= 0) tagged.insert(e.participant);
  }
  EXPECT_EQ(tagged.size(), 3u)
      << "expected probe events attributed to all 3 participants";
}

// --- Heap fallbacks: every hot-path continuation stays inline --------------
// InlineFunction counts the callables that spilled to the heap. Packets in
// fault windows (jitter, reordering, duplication, outages) and the hub
// fabric's trunk and RTCP hops must all fit the event loop's inline slots.

int64_t HeapFallbacksWhileAdvancing(const ConferenceConfig& config) {
  Conference conference(config);
  conference.Start();
  const int64_t before = InlineFunctionHeapFallbacks();
  conference.AdvanceTo(Timestamp::Zero() + config.duration);
  const int64_t fallbacks = InlineFunctionHeapFallbacks() - before;
  conference.Collect();
  return fallbacks;
}

TEST(ConferenceAllocationTest, FaultedDrivingCallNeverFallsBackToTheHeap) {
  CallConfig call;
  call.variant = Variant::kConverge;
  call.duration = Duration::Seconds(20);
  call.seed = 1000;
  TraceParams params;
  params.length = call.duration;
  call.paths = MakeScenarioPathsWithFaults(Scenario::kDriving, call.seed,
                                           params);
  EXPECT_EQ(HeapFallbacksWhileAdvancing(ToConferenceConfig(call)), 0);
}

TEST(ConferenceAllocationTest, CascadeStarNeverFallsBackToTheHeap) {
  // Three hubs, a hub failure with re-homing, and a leave/rejoin.
  EXPECT_EQ(
      HeapFallbacksWhileAdvancing(fixtures::FixtureCascadeFailoverConfig()),
      0);
}

// What the sent histories of every live sender and hub engine hold, and
// what they may hold: the packets those engines sent and how many (engine,
// path, origin) flows they keep windows for.
struct HistoryLoad {
  size_t pages = 0;
  RtxHistory::FrameRecords frames;
  int64_t packets_sent = 0;  // cumulative, every kind
  int64_t flows = 0;

  void AddFrames(const RtxHistory::FrameRecords& records) {
    frames.held += records.held;
    frames.referenced += records.referenced;
  }
};

HistoryLoad MeasureHistories(const Conference& conference,
                             const ConferenceConfig& config) {
  HistoryLoad load;
  const int participants = static_cast<int>(config.participants.size());
  // Legs of one star origin share its sender; every edge has the same
  // path count here.
  std::set<const Sender*> senders;
  for (size_t leg = 0; leg < conference.num_legs(); ++leg) {
    const Sender* sender = &conference.leg_sender(leg);
    if (!senders.insert(sender).second) continue;
    const Sender::Stats& st = sender->stats();
    load.pages += sender->history_pages_allocated();
    load.AddFrames(sender->history_frame_records());
    load.packets_sent += st.media_packets_sent + st.fec_packets_sent +
                         st.rtx_packets_sent + st.probe_packets_sent;
    load.flows +=
        static_cast<int64_t>(conference.leg_network(leg).num_paths());
  }
  auto add_engine = [&](const HubForwarder* engine) {
    if (engine == nullptr) return;
    load.pages += engine->history_pages_allocated();
    load.AddFrames(engine->history_frame_records());
    for (PathId path : engine->path_ids()) {
      const HubForwarder::DownlinkStats& st = engine->stats(path);
      load.packets_sent += st.packets_forwarded + st.padding_packets;
      load.flows += participants;
    }
  };
  for (int p = 0; p < participants; ++p) {
    add_engine(conference.hub_forwarder(p));
  }
  for (int from = 0; from < config.num_hubs; ++from) {
    for (int to = 0; to < config.num_hubs; ++to) {
      add_engine(conference.trunk_engine(from, to));
    }
  }
  return load;
}

// Runs `config` second by second and checks, each second, that the sent
// histories hold no more pages than the packets of the trailing horizon
// can fill. Each packet enters at most two histories (its RTX window and
// its egress life's feedback records), kPageSlots entries to a page. Each
// flow (two windows; a restarted leg's previous life goes with its
// records) gets 1,536 records of slack, what six 256-slot pages held: room
// for the partly filled pages at each end of a window's span, and for
// records a window keeps past the trailing horizon, since it trims only
// when it takes a new send (a path that falls silent keeps its last
// records). One second of slack covers packets counted when queued but
// sent later. Without the age bound the RTX windows fill toward
// 65,536 / kPageSlots pages each as the call goes on. The RTX windows'
// frame records never outnumber the distinct records their live slots
// name: a per-path window takes its keys in send order, so a record is
// dropped as soon as its last packet leaves. Returns the final stats.
ConferenceStats RunCheckingHistoryPages(const ConferenceConfig& config) {
  Conference conference(config);
  conference.Start();
  std::vector<int64_t> sent_by_second = {0};
  const int64_t trailing_s =
      static_cast<int64_t>(kSentHistoryHorizon.seconds()) + 1;
  for (int64_t second = 1; second <= config.duration.seconds(); ++second) {
    conference.AdvanceTo(Timestamp::Zero() + Duration::Seconds(second));
    const HistoryLoad load = MeasureHistories(conference, config);
    sent_by_second.push_back(load.packets_sent);
    const int64_t trailing =
        load.packets_sent -
        sent_by_second[static_cast<size_t>(
            std::max<int64_t>(0, second - trailing_s))];
    constexpr int64_t kPageSlots = SeqWindow<int, uint16_t>::kPageSlots;
    const int64_t bound =
        (2 * trailing + 1'536 * load.flows) / kPageSlots;
    EXPECT_LE(static_cast<int64_t>(load.pages), bound)
        << "at " << second << " s, " << trailing << " packets in the last "
        << trailing_s << " s";
    EXPECT_LE(load.frames.held, load.frames.referenced)
        << "at " << second << " s";
    EXPECT_GT(load.frames.referenced, 0u) << "at " << second << " s";
  }
  return conference.Collect();
}

int64_t HorizonMisses(const ConferenceStats& stats) {
  int64_t misses = 0;
  for (const ConferenceStats::Leg& leg : stats.legs) {
    misses += leg.stats.nack_horizon_misses + leg.stats.feedback_horizon_misses;
  }
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    misses += d.forwarder.nack_horizon_misses + d.feedback_horizon_misses;
  }
  for (const ConferenceStats::Trunk& t : stats.trunks) {
    misses += t.forwarder.nack_horizon_misses + t.feedback_horizon_misses;
  }
  return misses;
}

// The paper's call length on its harshest scenario: no lookup reaches past
// the age bound, and history memory follows the send rate, not the call
// length.
TEST(ConferenceHistoryTest, FaultedDrivingCallStaysInsideTheHorizon) {
  CallConfig call;
  call.variant = Variant::kConverge;
  call.duration = Duration::Seconds(180);
  call.seed = 1000;
  TraceParams params;
  params.length = call.duration;
  call.paths = MakeScenarioPathsWithFaults(Scenario::kDriving, call.seed,
                                           params);
  ConferenceConfig config = ToConferenceConfig(call);
  EXPECT_EQ(HorizonMisses(RunCheckingHistoryPages(config)), 0);
}

// Twice the paper's call length on its harshest scenario, invariants
// armed: the two per-SSRC media seqs wrap at least three times between
// them (four on this seed), and FEC keeps repairing after the wraps as it
// did before them. A sender's media count reaches 65,536 at or after its
// seq's first wrap, so count / 65,536 is a lower bound on wraps.
TEST(ConferenceChaosTest, LongDrivingCallKeepsFecWorkingAcrossSeqWraps) {
  constexpr int64_t kSeqSpace = 65536;
  CallConfig call;
  call.variant = Variant::kConverge;
  call.duration = Duration::Seconds(360);
  call.seed = 1000;
  TraceParams params;
  params.length = call.duration;
  call.paths = MakeScenarioPathsWithFaults(Scenario::kDriving, call.seed,
                                           params);
  ScopedInvariants invariants;
  Conference conference(ToConferenceConfig(call));
  conference.Start();
  // Per leg: FEC received and used, read for the last time before the
  // leg's sender reached 65,536 media packets.
  struct FecCounts {
    int64_t received = 0;
    int64_t used = 0;
    bool wrapped = false;
  };
  auto read = [&conference](size_t leg) {
    FecCounts counts;
    const ReceiverEndpoint& rx = conference.leg_receiver(leg);
    for (size_t i = 0; i < rx.num_streams(); ++i) {
      const FecRecoverer::Stats& fec =
          rx.stream(static_cast<int>(i)).fec().stats();
      counts.received += fec.fec_received;
      counts.used += fec.fec_used;
    }
    return counts;
  };
  std::vector<FecCounts> pre(conference.num_legs());
  for (int s = 1; s <= 360; ++s) {
    conference.AdvanceTo(Timestamp::Zero() + Duration::Seconds(s));
    for (size_t leg = 0; leg < pre.size(); ++leg) {
      if (pre[leg].wrapped) continue;
      if (conference.leg_sender(leg).stats().media_packets_sent >= kSeqSpace) {
        pre[leg].wrapped = true;
      } else {
        pre[leg] = read(leg);
      }
    }
  }
  conference.Collect();
  EXPECT_EQ(InvariantRegistry::violation_count(), 0)
      << InvariantRegistry::Describe();

  int64_t wraps = 0;
  FecCounts before;
  FecCounts after;
  for (size_t leg = 0; leg < pre.size(); ++leg) {
    wraps += conference.leg_sender(leg).stats().media_packets_sent / kSeqSpace;
    ASSERT_TRUE(pre[leg].wrapped) << "leg " << leg;
    const FecCounts total = read(leg);
    before.received += pre[leg].received;
    before.used += pre[leg].used;
    after.received += total.received - pre[leg].received;
    after.used += total.used - pre[leg].used;
  }
  EXPECT_GE(wraps, 3);
  ASSERT_GT(before.received, 0);
  ASSERT_GT(after.received, 0);
  const double util_before = static_cast<double>(before.used) /
                             static_cast<double>(before.received);
  const double util_after = static_cast<double>(after.used) /
                            static_cast<double>(after.received);
  EXPECT_GE(util_after, util_before / 2);
}

// Three hubs, a 2-s hub outage with re-homing, and a leave/rejoin, run
// for six horizons.
TEST(ConferenceHistoryTest, CascadeFailoverStarStaysInsideTheHorizon) {
  ConferenceConfig config = fixtures::FixtureCascadeFailoverConfig();
  config.duration = Duration::Seconds(60);
  EXPECT_EQ(HorizonMisses(RunCheckingHistoryPages(config)), 0);
}

// An event scheduled behind the clock runs at the current time and is
// counted. The count reaches the stats, and the JSON carries it only when
// nonzero, so a call without one serializes as before.
TEST(ConferenceStatsTest, ReportsClampedPastEventsOnlyWhenNonzero) {
  EXPECT_EQ(ConferenceStatsToJson(ConferenceStats{}).find("clamped_past"),
            std::string::npos);
  ConferenceConfig config = fixtures::FixtureConferenceConfig();
  config.duration = Duration::Seconds(2);
  Conference conference(config);
  conference.Start();
  conference.AdvanceTo(Timestamp::Zero() + Duration::Seconds(1));
  bool ran = false;
  conference.loop().ScheduleAt(Timestamp::Zero(), [&ran] { ran = true; });
  conference.AdvanceTo(Timestamp::Zero() + config.duration);
  EXPECT_TRUE(ran);
  const ConferenceStats stats = conference.Collect();
  EXPECT_EQ(stats.clamped_past_events, 1);
  EXPECT_NE(ConferenceStatsToJson(stats, 0).find("\"clamped_past_events\": 1"),
            std::string::npos);
}

// Star chaos: a mid-call rate cliff on ONE receiver's downlink. The hub
// must absorb it per-downlink — invariants clean, the hub queue bounded by
// the drop policy, and the receivers on healthy downlinks within 5% of an
// un-faulted run.
TEST(ConferenceChaosTest, StarRateCliffOnOneDownlinkIsolatesOthers) {
  auto make_config = [](bool faulted) {
    ConferenceConfig config = StarConfig(3, Duration::Seconds(8), 33);
    auto base_paths = config.paths_for_edge;
    config.paths_for_edge = [base_paths, faulted](int from, int to) {
      std::vector<PathSpec> paths = base_paths(from, to);
      if (faulted && from == kHubId && to == 2) {
        // Both of receiver 2's downlink paths collapse to 10% capacity
        // from t=2s to t=6s.
        for (PathSpec& p : paths) {
          p.fault_plan.Add(
              FaultEvent::RateCliff(Timestamp::Zero() + Duration::Seconds(2),
                                    Duration::Seconds(4), 0.1));
        }
      }
      return paths;
    };
    config.trace_capacity = 1 << 14;
    return config;
  };

  ScopedInvariants invariants;
  Conference faulted(make_config(true));
  const ConferenceStats stats = faulted.Run();
  EXPECT_EQ(InvariantRegistry::violation_count(), 0)
      << InvariantRegistry::Describe();
  Conference clean(make_config(false));
  const ConferenceStats baseline = clean.Run();
  EXPECT_EQ(InvariantRegistry::violation_count(), 0)
      << InvariantRegistry::Describe();

  // The faulted receiver degrades but keeps decoding, and the hub reacted
  // by thinning its downlink rather than letting the queue grow unbounded.
  EXPECT_GT(stats.participants[2].avg_fps, 1.0);
  int64_t faulted_thinned = 0;
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    EXPECT_LT(d.forwarder.max_queue_delay_ms, 2500.0)
        << "receiver " << d.receiver << " path " << d.path;
    if (d.receiver == 2) faulted_thinned += d.forwarder.frames_thinned;
  }
  EXPECT_GT(faulted_thinned, 0);

  // Receivers 0 and 1 ride healthy downlinks: within 5% of the un-faulted
  // run.
  for (int p = 0; p <= 1; ++p) {
    const double fps = stats.participants[static_cast<size_t>(p)].avg_fps;
    const double base =
        baseline.participants[static_cast<size_t>(p)].avg_fps;
    EXPECT_GT(base, 10.0) << "participant " << p;
    EXPECT_GT(fps, base * 0.95)
        << "participant " << p << " lost more than 5% QoE to the fault";
  }

  // The hub's probes made it into the flight recorder.
  ASSERT_NE(faulted.trace(), nullptr);
  bool hub_series = false;
  bool hub_gcc_series = false;
  for (const TraceEvent& e : faulted.trace()->Snapshot()) {
    if (std::string_view(e.component) == "hub") hub_series = true;
    if (std::string_view(e.component) == "hub_gcc") hub_gcc_series = true;
  }
  EXPECT_TRUE(hub_series);
  EXPECT_TRUE(hub_gcc_series);
}

// Duplication faults on every kind of wire hop: a mesh pair, a star
// uplink, a star downlink and an inter-hub trunk. Every hop clones the
// packet per duplicate, so the copies reach the next node — the hub's
// feedback endpoint and forwarders, a trunk's far-end agent and remote
// forwarders — and surface as packet-buffer duplicates at exactly the
// receivers downstream of the faulted edge. Each case also runs without
// the plan: a late RTX copy of a finished frame is a duplicate too, so a
// leg's baseline need not be zero, but only downstream legs may exceed it.
TEST(ConferenceChaosTest, DuplicationFaultsReachReceiversOnEveryEdgeKind) {
  FaultPlan duplication;
  duplication.Add(FaultEvent::Reorder(Timestamp::Zero() + Duration::Seconds(1),
                                      Duration::Seconds(2), Duration::Zero(),
                                      /*duplicate_prob=*/0.3));
  // Faults every path of the edges `faulted` selects.
  auto with_faults = [&duplication](auto base, auto faulted) {
    return [=](int from, int to) {
      std::vector<PathSpec> paths = base(from, to);
      if (faulted(from, to)) {
        for (PathSpec& p : paths) p.fault_plan = duplication;
      }
      return paths;
    };
  };
  // Runs `config` invariant-clean and returns per-leg (from, to,
  // packet-buffer duplicates).
  auto run = [](const ConferenceConfig& config) {
    ScopedInvariants invariants;
    Conference conference(config);
    conference.Run();
    EXPECT_EQ(InvariantRegistry::violation_count(), 0)
        << InvariantRegistry::Describe();
    std::vector<std::tuple<int, int, int64_t>> legs;
    for (size_t leg = 0; leg < conference.num_legs(); ++leg) {
      legs.emplace_back(conference.leg_from(leg), conference.leg_to(leg),
                        conference.leg_receiver(leg)
                            .stream(0)
                            .packet_buffer()
                            .stats()
                            .duplicates);
    }
    return legs;
  };
  // Compares the faulted run of a case with its un-faulted baseline.
  auto expect_downstream = [&run](const ConferenceConfig& baseline,
                                  const ConferenceConfig& faulted,
                                  auto downstream) {
    const auto base = run(baseline);
    const auto legs = run(faulted);
    ASSERT_EQ(legs.size(), base.size());
    for (size_t i = 0; i < legs.size(); ++i) {
      const auto& [from, to, dups] = legs[i];
      ASSERT_EQ(std::get<0>(base[i]), from);
      ASSERT_EQ(std::get<1>(base[i]), to);
      const int64_t base_dups = std::get<2>(base[i]);
      if (downstream(from, to)) {
        EXPECT_GT(dups, base_dups) << from << "->" << to;
      } else {
        EXPECT_EQ(dups, base_dups) << from << "->" << to;
      }
    }
  };

  {
    SCOPED_TRACE("mesh pair");
    const ConferenceConfig baseline = MeshConfig(2, Duration::Seconds(4), 61);
    ConferenceConfig config = baseline;
    for (PathSpec& p : config.paths) p.fault_plan = duplication;
    expect_downstream(baseline, config, [](int, int) { return true; });
  }
  {
    SCOPED_TRACE("star uplink");
    const ConferenceConfig baseline = StarConfig(3, Duration::Seconds(4), 62);
    ConferenceConfig config = baseline;
    config.paths_for_edge = with_faults(
        config.paths_for_edge,
        [](int from, int to) { return from == 0 && to == kHubId; });
    expect_downstream(baseline, config,
                      [](int from, int) { return from == 0; });
  }
  {
    SCOPED_TRACE("star downlink");
    const ConferenceConfig baseline = StarConfig(3, Duration::Seconds(4), 63);
    ConferenceConfig config = baseline;
    config.paths_for_edge = with_faults(
        config.paths_for_edge,
        [](int from, int to) { return from == kHubId && to == 2; });
    expect_downstream(baseline, config, [](int, int to) { return to == 2; });
  }
  {
    SCOPED_TRACE("trunk");
    ConferenceConfig baseline = StarConfig(3, Duration::Seconds(4), 64);
    baseline.num_hubs = 2;
    baseline.home_hub = {0, 0, 1};
    baseline.trunk_paths = {StablePath("t0", 16.0, 10),
                            StablePath("t1", 12.0, 20)};
    ConferenceConfig config = baseline;
    for (PathSpec& p : config.trunk_paths) p.fault_plan = duplication;
    const std::vector<int> home = config.home_hub;
    expect_downstream(baseline, config, [&home](int from, int to) {
      return home[static_cast<size_t>(from)] != home[static_cast<size_t>(to)];
    });
  }
}

// --- Config normalization: every degrade rule, pinned -----------------------

// One rule of the ConferenceConfig contract: a config that breaks it, what
// the constructor records, and the shape the call runs in instead.
struct DegradeRule {
  std::string name;
  ConferenceConfig config;
  // (condition, detail) per violation, in report order. Every one is the
  // "Conference" component's, stamped at t = 0.
  std::vector<std::pair<std::string, std::string>> violations{};
  int num_hubs = 1;
  int simulcast_rungs = 1;
  int temporal_layers = 1;
  // Resolved home hub, one entry per participant.
  std::vector<int> home_hub;
  // Legs at construction, and in the stats once churn has run.
  size_t legs = 0;
  size_t run_legs = 0;
  // A valid config that must run byte-identically; unset for rules that
  // are reported but not repaired.
  std::optional<ConferenceConfig> repaired{};
};

std::vector<DegradeRule> DegradeRules() {
  using fixtures::Join;
  using fixtures::Leave;
  const ConferenceConfig mesh = MeshConfig(3, Duration::Seconds(1), 71);
  const ConferenceConfig star = StarConfig(3, Duration::Seconds(1), 72);
  // `base` with `edit` applied.
  auto with = [](ConferenceConfig base, auto edit) {
    edit(base);
    return base;
  };
  FaultPlan outage;
  outage.Add(FaultEvent::Outage(Timestamp::Zero() + Duration::Seconds(0.3),
                                Duration::Seconds(0.3)));
  const ParticipantSpec silent{.sends = false, .receives = false};
  std::vector<DegradeRule> rules;

  rules.push_back(
      {.name = "one participant",
       .config = with(mesh, [](auto& c) { c.participants.resize(1); }),
       .violations = {{"n >= 2", "conference needs >= 2 participants, got 1"}},
       .home_hub = {0}});
  {
    ConferenceConfig crowd = mesh;
    crowd.participants.assign(4097, silent);
    crowd.participants[0] = crowd.participants[1] = ParticipantSpec{};
    rules.push_back(
        {.name = "too many participants",
         .config = crowd,
         .violations = {{"n <= SsrcAllocator::kMaxParticipantsPerIncarnation",
                         "too many participants for the SSRC layout: 4097"}},
         .home_hub = std::vector<int>(4097, 0),
         .legs = 2,
         .run_legs = 2});
  }
  const std::string streams_rule =
      "p.num_streams >= 1 && "
      "p.num_streams <= SsrcAllocator::kMaxStreamsPerParticipant";
  rules.push_back(
      {.name = "zero streams",
       .config = with(mesh,
                      [](auto& c) {
                        c.participants[2] = {.sends = false,
                                             .num_streams = 0};
                      }),
       .violations = {{streams_rule, "num_streams out of range: 0"}},
       .home_hub = {0, 0, 0},
       .legs = 4,
       .run_legs = 4});
  rules.push_back(
      {.name = "too many streams",
       .config = with(mesh,
                      [](auto& c) {
                        c.participants[2] = {.sends = false,
                                             .num_streams = 257};
                      }),
       .violations = {{streams_rule, "num_streams out of range: 257"}},
       .home_hub = {0, 0, 0},
       .legs = 4,
       .run_legs = 4});
  // Valid once sorted: participant 2 joins late, participant 1 leaves.
  rules.push_back(
      {.name = "unsorted valid timeline",
       .config = with(mesh,
                      [](auto& c) {
                        c.membership = {Leave(0.6, 1), Join(0.3, 2)};
                      }),
       .home_hub = {0, 0, 0},
       .legs = 2,
       .run_legs = 6,
       .repaired = with(mesh, [](auto& c) {
         c.membership = {Join(0.3, 2), Leave(0.6, 1)};
       })});
  rules.push_back(
      {.name = "invalid timeline",
       .config = with(mesh,
                      [](auto& c) {
                        c.membership = {Join(0.3, 2), Join(0.6, 2)};
                      }),
       .violations = {{"error.empty()", "participant 2 joins while present"}},
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = mesh});
  rules.push_back({.name = "zero hubs",
                   .config = with(star, [](auto& c) { c.num_hubs = 0; }),
                   .violations = {{"false", "num_hubs must be >= 1, got 0"}},
                   .home_hub = {0, 0, 0},
                   .legs = 6,
                   .run_legs = 6,
                   .repaired = star});
  rules.push_back(
      {.name = "multi-hub mesh",
       .config = with(mesh, [](auto& c) { c.num_hubs = 2; }),
       .violations = {{"false",
                       "multi-hub cascade requires the star topology"}},
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = mesh});
  const ConferenceConfig cascade = with(star, [](auto& c) { c.num_hubs = 2; });
  rules.push_back(
      {.name = "wrong-sized home_hub",
       .config = with(cascade, [](auto& c) { c.home_hub = {1}; }),
       .violations = {{"config_.home_hub.empty() || "
                       "config_.home_hub.size() == static_cast<size_t>(n)",
                       "home_hub must be empty or have one entry per "
                       "participant"}},
       .num_hubs = 2,
       .home_hub = {0, 1, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = cascade});
  rules.push_back(
      {.name = "out-of-range pin",
       .config = with(cascade, [](auto& c) { c.home_hub = {1, -1, 0}; }),
       .violations = {{"false", "home_hub[1]=-1 outside [0, 2)"}},
       .num_hubs = 2,
       .home_hub = {1, 1, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = with(cascade, [](auto& c) { c.home_hub = {1, 1, 0}; })});
  rules.push_back(
      {.name = "more fault plans than hubs",
       .config = with(cascade,
                      [&](auto& c) { c.hub_fault_plans = {{}, {}, outage}; }),
       .violations = {{"false", "more hub fault plans than hubs"}},
       .num_hubs = 2,
       .home_hub = {0, 1, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = with(cascade,
                        [](auto& c) { c.hub_fault_plans = {{}, {}}; })});
  // A hub outage re-homes onto another hub, and a single hub has none: the
  // plan is rejected, not silently ignored, and the call runs plan-free.
  rules.push_back(
      {.name = "single-hub outage plan",
       .config = with(star, [&](auto& c) { c.hub_fault_plans = {outage}; }),
       .violations = {{"false", "hub fault plans require num_hubs > 1"}},
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = star});
  rules.push_back(
      {.name = "two fault plans for one hub",
       .config = with(star,
                      [&](auto& c) { c.hub_fault_plans = {outage, outage}; }),
       .violations = {{"false", "more hub fault plans than hubs"},
                      {"false", "hub fault plans require num_hubs > 1"}},
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = star});
  rules.push_back({.name = "zero rungs and layers",
                   .config = with(star,
                                  [](auto& c) {
                                    c.simulcast_rungs = 0;
                                    c.temporal_layers = 0;
                                  }),
                   .home_hub = {0, 0, 0},
                   .legs = 6,
                   .run_legs = 6,
                   .repaired = star});
  rules.push_back(
      {.name = "too many rungs",
       .config = with(star, [](auto& c) { c.simulcast_rungs = 5; }),
       .violations = {{"false",
                       "simulcast_rungs 5 exceeds the wire/selection limit "
                       "of 4"}},
       .simulcast_rungs = 4,
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = with(star, [](auto& c) { c.simulcast_rungs = 4; })});
  rules.push_back(
      {.name = "five temporal layers",
       .config = with(star, [](auto& c) { c.temporal_layers = 5; }),
       .temporal_layers = 4,
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = with(star, [](auto& c) { c.temporal_layers = 4; })});
  rules.push_back(
      {.name = "simulcast on a mesh",
       .config = with(mesh, [](auto& c) { c.simulcast_rungs = 2; }),
       .violations = {{"false", "simulcast requires the star topology"}},
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = mesh});
  const ConferenceConfig srtt_star =
      with(star, [](auto& c) { c.variant = Variant::kSrtt; });
  rules.push_back(
      {.name = "simulcast on a non-Converge variant",
       .config = with(srtt_star, [](auto& c) { c.simulcast_rungs = 2; }),
       .violations = {{"false",
                       "simulcast requires a Converge-family variant "
                       "(per-path NACK)"}},
       .home_hub = {0, 0, 0},
       .legs = 6,
       .run_legs = 6,
       .repaired = srtt_star});
  return rules;
}

// (component, condition, detail, at in microseconds).
using RecordedViolation =
    std::tuple<std::string, std::string, std::string, int64_t>;

std::vector<RecordedViolation> ExpectedViolations(const DegradeRule& rule) {
  std::vector<RecordedViolation> out;
  for (const auto& [condition, detail] : rule.violations) {
    out.emplace_back("Conference", condition, detail, 0);
  }
  return out;
}

TEST(ConferenceConfigTest, ConstructorRecordsEveryDegradeRule) {
  for (const DegradeRule& rule : DegradeRules()) {
    SCOPED_TRACE(rule.name);
    const std::vector<RecordedViolation> expected = ExpectedViolations(rule);
    ScopedInvariants invariants;
    Conference conference(rule.config);
    std::vector<RecordedViolation> recorded;
    for (const InvariantViolation& v : InvariantRegistry::Snapshot()) {
      recorded.emplace_back(v.component, v.condition, v.detail, v.at.us());
    }
    EXPECT_EQ(recorded, expected);
    EXPECT_EQ(conference.num_legs(), rule.legs);
    for (size_t p = 0; p < rule.home_hub.size(); ++p) {
      EXPECT_EQ(conference.home_hub(static_cast<int>(p)), rule.home_hub[p])
          << "participant " << p;
    }

    const ConferenceStats stats = conference.Run();
    // The degraded call runs to the end without tripping anything else.
    EXPECT_EQ(InvariantRegistry::violation_count(),
              static_cast<int64_t>(expected.size()))
        << InvariantRegistry::Describe();
    EXPECT_EQ(stats.num_hubs, rule.num_hubs);
    EXPECT_EQ(stats.simulcast_rungs, rule.simulcast_rungs);
    EXPECT_EQ(stats.temporal_layers, rule.temporal_layers);
    EXPECT_EQ(stats.participants.size(), rule.home_hub.size());
    EXPECT_EQ(stats.legs.size(), rule.run_legs);
    if (rule.repaired.has_value()) {
      Conference repaired(*rule.repaired);
      EXPECT_EQ(ConferenceStatsToJson(repaired.Run()),
                ConferenceStatsToJson(stats))
          << "the degraded call diverged from its repaired config";
      EXPECT_EQ(InvariantRegistry::violation_count(),
                static_cast<int64_t>(expected.size()))
          << "the repaired config is not valid";
    }
  }
}

// What normalizing decides, membership timeline included.
auto NormalizedShape(const ConferenceConfig& c) {
  std::vector<std::tuple<bool, int64_t, int>> timeline;
  for (const MembershipEvent& ev : c.membership) {
    timeline.emplace_back(ev.kind == MembershipEvent::Kind::kJoin, ev.at.us(),
                          ev.participant);
  }
  return std::tuple(c.participants.size(), c.num_hubs, c.simulcast_rungs,
                    c.temporal_layers, c.home_hub, c.hub_fault_plans.size(),
                    timeline);
}

// The same rows against the pure normalizer: no Conference is built and
// nothing reaches the invariant registry.
TEST(ConferenceConfigTest, NormalizerMatchesEveryDegradeRule) {
  for (const DegradeRule& rule : DegradeRules()) {
    SCOPED_TRACE(rule.name);
    ScopedInvariants invariants;
    const NormalizedConference normalized =
        NormalizeConferenceConfig(rule.config);
    EXPECT_EQ(InvariantRegistry::violation_count(), 0);
    std::vector<RecordedViolation> found;
    for (const InvariantViolation& v : normalized.violations) {
      found.emplace_back(v.component, v.condition, v.detail, v.at.us());
    }
    EXPECT_EQ(found, ExpectedViolations(rule));
    const ConferenceConfig& config = normalized.config;
    EXPECT_EQ(config.num_hubs, rule.num_hubs);
    EXPECT_EQ(config.simulcast_rungs, rule.simulcast_rungs);
    EXPECT_EQ(config.temporal_layers, rule.temporal_layers);
    EXPECT_EQ(config.home_hub, rule.home_hub);
    EXPECT_TRUE(std::is_sorted(
        config.membership.begin(), config.membership.end(),
        [](const auto& a, const auto& b) { return a.at < b.at; }));
    EXPECT_EQ(NormalizedShape(NormalizeConferenceConfig(config).config),
              NormalizedShape(config))
        << "the output does not normalize to itself";
    if (rule.repaired.has_value()) {
      const NormalizedConference repaired =
          NormalizeConferenceConfig(*rule.repaired);
      EXPECT_TRUE(repaired.violations.empty());
      EXPECT_EQ(NormalizedShape(repaired.config), NormalizedShape(config));
    }
  }
}

}  // namespace
}  // namespace converge
