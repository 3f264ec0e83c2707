// Cascaded SFU fabric (DESIGN §10): the star session layer wired over a
// multi-hub graph. Covers the three load-bearing properties:
//
//   1. Degenerate case — a 1-hub cascade config is byte-identical to the
//      historical single-star run (stats JSON compared verbatim).
//   2. Trunk CC isolation — inter-hub trunk losses terminate at the trunk's
//      own congestion loop; they never leak into the publisher's uplink CC
//      or the remote hub's downlink CC.
//   3. Mid-call hub failover — a hub outage re-homes its participants onto
//      the next alive hub under fresh SSRC incarnations, with zero
//      invariant violations and the trunks rebuilt at recovery.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/loss_model.h"
#include "session/conference.h"
#include "session/stats_json.h"
#include "util/invariants.h"

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

// N duplex participants on clean access paths; hub downlinks provisioned
// for the aggregate.
ConferenceConfig CascadeStarConfig(int participants, Duration duration,
                                   uint64_t seed) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(static_cast<size_t>(participants),
                             ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
  config.duration = duration;
  config.seed = seed;
  const double fanout = static_cast<double>(participants - 1);
  config.paths_for_edge = [fanout](int from, int) {
    if (from == kHubId) {
      return std::vector<PathSpec>{StablePath("d0", 6.0 * fanout, 15),
                                   StablePath("d1", 4.0 * fanout, 25)};
    }
    return std::vector<PathSpec>{StablePath("u0", 6.0, 20),
                                 StablePath("u1", 4.0, 35)};
  };
  config.trunk_paths = {StablePath("t0", 12.0 * fanout, 10),
                        StablePath("t1", 8.0 * fanout, 20)};
  return config;
}

// --- 1. Degenerate single-hub case -----------------------------------------

TEST(ConferenceCascadeTest, SingleHubConfigIsByteIdenticalToPlainStar) {
  ConferenceConfig plain = CascadeStarConfig(4, Duration::Seconds(4), 9);
  plain.trunk_paths.clear();  // the historical config has no cascade fields

  ConferenceConfig cascade = CascadeStarConfig(4, Duration::Seconds(4), 9);
  cascade.num_hubs = 1;
  cascade.home_hub.assign(4, 0);
  cascade.hub_fault_plans.resize(1);  // empty plan, still the degenerate case

  Conference a(plain);
  Conference b(cascade);
  const std::string ja = ConferenceStatsToJson(a.Run());
  const std::string jb = ConferenceStatsToJson(b.Run());
  EXPECT_EQ(ja, jb) << "1-hub cascade diverged from the plain star";
  // Cascade keys are absent entirely, not present-but-empty: a single-hub
  // export must remain byte-compatible with every pre-cascade consumer.
  EXPECT_EQ(ja.find("\"num_hubs\""), std::string::npos);
  EXPECT_EQ(ja.find("\"trunks\""), std::string::npos);
  EXPECT_EQ(ja.find("\"hub\""), std::string::npos);
}

// --- 2. Trunk CC isolation --------------------------------------------------

// One sender homed at hub 0, one receiver homed at hub 1, clean access
// paths, heavily lossy trunk: the loss must register ONLY at the trunk
// engine's congestion loop. The publisher's uplink CC (fed by its
// hub_feedback endpoint) and the remote hub's downlink CC both stay clean.
TEST(ConferenceCascadeTest, TrunkFeedbackTerminatesAtTrunkController) {
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
      return std::vector<PathSpec>{StablePath("d0", 6.0, 15),
                                   StablePath("d1", 4.0, 25)};
    }
    return std::vector<PathSpec>{StablePath("u0", 6.0, 20),
                                 StablePath("u1", 4.0, 35)};
  };
  config.num_hubs = 2;
  config.home_hub = {0, 1};
  config.trunk_paths = {StablePath("t0", 6.0, 10, 0.15),
                        StablePath("t1", 4.0, 20, 0.15)};

  Conference conference(config);
  ASSERT_EQ(conference.num_legs(), 1u);
  const ConferenceStats stats = conference.Run();

  const Sender& origin = conference.leg_sender(0);
  const HubForwarder* trunk = conference.trunk_engine(0, 1);
  const HubForwarder* remote = conference.hub_forwarder(1);
  ASSERT_NE(trunk, nullptr);
  ASSERT_NE(remote, nullptr);
  double trunk_loss = 0.0;
  for (PathId path : {PathId{0}, PathId{1}}) {
    EXPECT_LT(origin.path_loss(path), 0.05)
        << "publisher uplink CC saw trunk loss on path " << path;
    EXPECT_LT(remote->downlink_loss(path), 0.05)
        << "remote hub downlink CC saw trunk loss on path " << path;
    trunk_loss = std::max(trunk_loss, trunk->downlink_loss(path));
  }
  EXPECT_GT(trunk_loss, 0.05)
      << "trunk controller never registered the trunk loss";

  // The trunk's congestion loop actually ran: feedback batches came back
  // from the far-end agent and packets were registered at send time.
  ASSERT_EQ(stats.trunks.size(), 4u);  // 2 directed trunks x 2 paths
  int64_t batches = 0, registered = 0;
  for (const ConferenceStats::Trunk& t : stats.trunks) {
    EXPECT_TRUE(t.live);
    if (t.from_hub == 0) {
      batches += t.feedback_batches;
      registered += t.packets_registered;
    }
  }
  EXPECT_GT(batches, 0);
  EXPECT_GT(registered, 0);

  // And the media still renders across the lossy trunk (losses are chased
  // hub-to-hub from trunk history).
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    if (p.inbound_streams > 0) {
      EXPECT_GT(p.avg_fps, 10.0);
    }
  }
}

// --- 3. Multi-hub routing + stats keying ------------------------------------

TEST(ConferenceCascadeTest, ThreeHubRoutingDeliversEveryStream) {
  ConferenceConfig config = CascadeStarConfig(6, Duration::Seconds(4), 17);
  config.num_hubs = 3;  // empty home_hub: round-robin p % 3

  Conference conference(config);
  const ConferenceStats stats = conference.Run();

  EXPECT_EQ(stats.num_hubs, 3);
  ASSERT_EQ(stats.hubs.size(), 3u);
  for (const ConferenceStats::Hub& h : stats.hubs) {
    EXPECT_TRUE(h.alive);
    EXPECT_EQ(h.failures, 0);
    EXPECT_EQ(h.home_participants, 2);
  }
  // Every participant renders all 5 remote streams across the fabric.
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    EXPECT_EQ(p.inbound_streams, 5) << "participant " << p.participant;
    EXPECT_GT(p.avg_fps, 10.0) << "participant " << p.participant;
  }
  // 3 hubs -> 6 directed trunks x 2 paths, all live.
  ASSERT_EQ(stats.trunks.size(), 12u);
  for (const ConferenceStats::Trunk& t : stats.trunks) {
    EXPECT_TRUE(t.live);
    EXPECT_NE(t.from_hub, t.to_hub);
    EXPECT_GT(t.packets_registered, 0)
        << "trunk " << t.from_hub << "->" << t.to_hub << " moved nothing";
  }
  // Downlink rows are keyed by serving hub = the receiver's home hub.
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    EXPECT_EQ(d.hub, d.receiver % 3);
  }
  const std::string json = ConferenceStatsToJson(stats);
  EXPECT_NE(json.find("\"num_hubs\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"trunks\""), std::string::npos);
  EXPECT_NE(json.find("\"hubs\""), std::string::npos);
}

// --- 4. Mid-call hub failover -----------------------------------------------

ConferenceConfig FailoverConfig(uint64_t seed) {
  ConferenceConfig config = CascadeStarConfig(9, Duration::Seconds(8), seed);
  config.num_hubs = 3;
  FaultPlan outage;
  outage.Add(FaultEvent::Outage(Timestamp::Zero() + Duration::Seconds(2),
                                Duration::Seconds(2)));
  config.hub_fault_plans.resize(3);
  config.hub_fault_plans[1] = outage;
  return config;
}

TEST(ConferenceCascadeTest, HubFailureRehomesParticipantsCleanly) {
  ScopedInvariants invariants;
  Conference conference(FailoverConfig(29));
  const ConferenceStats stats = conference.Run();

  // Hub 1 failed once; its 3 home participants re-homed to hub 2 (the next
  // alive hub in ring order) and did not move back at recovery.
  ASSERT_EQ(stats.hubs.size(), 3u);
  EXPECT_EQ(stats.hubs[1].failures, 1);
  EXPECT_EQ(stats.hubs[1].rehomed_away, 3);
  EXPECT_EQ(stats.hubs[2].rehomed_onto, 3);
  EXPECT_EQ(stats.hubs[1].home_participants, 0);
  EXPECT_EQ(stats.hubs[2].home_participants, 6);
  for (int p : {1, 4, 7}) EXPECT_EQ(conference.home_hub(p), 2);

  // Re-homed publishers rebuilt under a fresh SSRC incarnation and moved
  // real bytes after the failover.
  int rehomed_legs = 0;
  double rehomed_tput = 0.0;
  for (const ConferenceStats::Leg& leg : stats.legs) {
    if (leg.incarnation != 1) continue;
    ++rehomed_legs;
    EXPECT_DOUBLE_EQ(leg.joined_s, 2.0);
    rehomed_tput += leg.stats.TotalTputMbps();
  }
  // 3 re-homed publishers x 8 receivers each, built in the rebuild batch.
  EXPECT_EQ(rehomed_legs, 24);
  EXPECT_GT(rehomed_tput, 0.0);

  // Trunks touching hub 1 retired at the failure and were rebuilt at
  // recovery: 12 initial + 4 rebuilt directed trunks, 2 paths each; the 8
  // retired rows stay in the export flagged dead.
  ASSERT_EQ(stats.trunks.size(), 20u);
  int live = 0;
  for (const ConferenceStats::Trunk& t : stats.trunks) {
    if (t.live) ++live;
  }
  EXPECT_EQ(live, 12);

  EXPECT_EQ(InvariantRegistry::violation_count(), 0);
}

// The full failover scenario is byte-deterministic across worker counts and
// reruns (the scenario suite pins the larger 3-hub acceptance scenario; this
// is the fast structural version).
TEST(ConferenceCascadeTest, FailoverDeterministicAcrossJobs) {
  std::vector<ConferenceConfig> configs;
  for (uint64_t seed = 29; seed <= 31; ++seed) {
    configs.push_back(FailoverConfig(seed));
  }
  const std::vector<ConferenceStats> serial = RunConferences(configs, 1);
  const std::vector<ConferenceStats> parallel = RunConferences(configs, 8);
  const std::vector<ConferenceStats> rerun = RunConferences(configs, 1);
  for (size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(ConferenceStatsToJson(serial[i]),
              ConferenceStatsToJson(parallel[i]))
        << "seed " << configs[i].seed << ": jobs=8 diverged";
    EXPECT_EQ(ConferenceStatsToJson(serial[i]),
              ConferenceStatsToJson(rerun[i]))
        << "seed " << configs[i].seed << ": rerun diverged";
  }
}

}  // namespace
}  // namespace converge
