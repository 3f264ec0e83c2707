// The configurations every pinned tests/data fixture was generated from.
//
// gen_call_fixtures.cc writes the fixtures from these definitions and
// conference_test.cc byte-compares fresh runs against the committed files,
// so each config exists exactly once and the writer and the checker cannot
// drift apart. Changing anything here changes what the fixtures pin:
// regenerate with gen_call_fixtures and commit the diff only when a change
// is meant to move results.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/loss_model.h"
#include "session/call.h"
#include "session/conference.h"

namespace converge::fixtures {

inline PathSpec FixturePath(const std::string& name, double mbps,
                            int delay_ms, double loss) {
  PathSpec spec;
  spec.name = name;
  spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
  spec.prop_delay = Duration::Millis(delay_ms);
  if (loss > 0.0) spec.loss = std::make_shared<BernoulliLoss>(loss);
  return spec;
}

inline MembershipEvent Join(double at_s, int participant) {
  return {MembershipEvent::Kind::kJoin,
          Timestamp::Zero() + Duration::Seconds(at_s), participant};
}

inline MembershipEvent Leave(double at_s, int participant) {
  return {MembershipEvent::Kind::kLeave,
          Timestamp::Zero() + Duration::Seconds(at_s), participant};
}

// 2-party Call, one per Variant (call_fixture_*.json). Captured from the
// point-to-point Call that predates the conference runtime.
inline CallConfig FixtureCallConfig(Variant variant) {
  CallConfig config;
  config.variant = variant;
  config.paths = {FixturePath("fix0", 15.0, 20, 0.02),
                  FixturePath("fix1", 8.0, 45, 0.01)};
  config.num_streams = 2;
  config.duration = Duration::Seconds(8);
  config.seed = 17;
  return config;
}

inline std::string FixtureFileName(Variant v) {
  // File names must be stable identifiers, not the display strings.
  switch (v) {
    case Variant::kWebRtcPath0: return "call_fixture_webrtc_p0.json";
    case Variant::kWebRtcPath1: return "call_fixture_webrtc_p1.json";
    case Variant::kWebRtcCm: return "call_fixture_webrtc_cm.json";
    case Variant::kSrtt: return "call_fixture_srtt.json";
    case Variant::kEcf: return "call_fixture_ecf.json";
    case Variant::kMtput: return "call_fixture_mtput.json";
    case Variant::kMrtp: return "call_fixture_mrtp.json";
    case Variant::kConverge: return "call_fixture_converge.json";
    case Variant::kConvergeNoFeedback: return "call_fixture_converge_nofb.json";
    case Variant::kConvergeWebRtcFec:
      return "call_fixture_converge_tblfec.json";
  }
  return "call_fixture_unknown.json";
}

inline const Variant kFixtureVariants[] = {
    Variant::kWebRtcPath0, Variant::kWebRtcPath1, Variant::kWebRtcCm,
    Variant::kSrtt,        Variant::kEcf,         Variant::kMtput,
    Variant::kMrtp,        Variant::kConverge,    Variant::kConvergeNoFeedback,
    Variant::kConvergeWebRtcFec};

// A churn-free 3-party Converge star (conference_fixture_star3.json). Pins
// the full ConferenceStats JSON shape — participants (incl. active_s /
// avg_freeze_ratio), legs (incl. incarnation and the [joined_s, left_s)
// window), hub downlinks, and the cross_traffic array.
inline ConferenceConfig FixtureConferenceConfig() {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(3, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(3);
  config.duration = Duration::Seconds(8);
  config.seed = 29;
  config.paths_for_edge = [](int from, int) {
    const bool down = from == kHubId;
    return std::vector<PathSpec>{
        FixturePath(down ? "fixd0" : "fixu0", down ? 12.0 : 6.0,
                    down ? 15 : 20, 0.01),
        FixturePath(down ? "fixd1" : "fixu1", down ? 8.0 : 4.0,
                    down ? 25 : 35, 0.005)};
  };
  return config;
}

// 3-party mesh with churn (conference_fixture_mesh3_churn.json):
// participant 2 joins late and participant 1 leaves and rejoins, so mesh
// legs are built mid-call in both directions and retired legs report their
// own windows.
inline ConferenceConfig FixtureMeshChurnConfig() {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kMesh;
  config.participants.assign(3, ParticipantSpec{});
  config.paths = {FixturePath("mc0", 6.0, 20, 0.01),
                  FixturePath("mc1", 4.0, 35, 0.005)};
  config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
  config.duration = Duration::Seconds(8);
  config.seed = 41;
  config.membership = {Join(1.5, 2), Leave(3.5, 1), Join(5.5, 1)};
  return config;
}

// Single-hub star with 3 simulcast rungs and a leave/rejoin
// (conference_fixture_star3_layers_churn.json). Receiver 2's downlink is
// too slow for the top rung, so the hub's rung selection, layer filtering
// and padding all run; participant 1 leaves and rejoins under a fresh
// incarnation.
inline ConferenceConfig FixtureStarLayersChurnConfig() {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(3, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
  config.simulcast_rungs = 3;
  config.temporal_layers = 2;
  config.duration = Duration::Seconds(8);
  config.seed = 31;
  config.membership = {Leave(3.0, 1), Join(5.0, 1)};
  config.paths_for_edge = [](int from, int to) {
    if (from == kHubId) {
      const double scale = to == 2 ? 0.15 : 1.0;
      return std::vector<PathSpec>{
          FixturePath("sld0", 10.0 * scale, 15, 0.005),
          FixturePath("sld1", 6.0 * scale, 25, 0.0)};
    }
    return std::vector<PathSpec>{FixturePath("slu0", 6.0, 20, 0.01),
                                 FixturePath("slu1", 4.0, 35, 0.005)};
  };
  return config;
}

// 3-hub cascade with a hub failure and a rejoiner
// (conference_fixture_cascade3_failover.json). Participants home round-robin
// (p % 3). Hub 1 fails at 2 s, re-homing participant 1 onto hub 2, and
// recovers at 4 s, which rebuilds its trunks; participant 4 (homed at hub 1)
// leaves before the failure and rejoins at hub 1 after the recovery, so its
// media crosses the rebuilt trunks. The trunks are lossy, so trunk NACK and
// trunk congestion control both run.
inline ConferenceConfig FixtureCascadeFailoverConfig() {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(5, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(1.5);
  config.simulcast_rungs = 2;
  config.duration = Duration::Seconds(8);
  config.seed = 53;
  config.membership = {Leave(1.5, 4), Join(5.0, 4)};
  config.paths_for_edge = [](int from, int) {
    if (from == kHubId) {
      return std::vector<PathSpec>{FixturePath("cd0", 16.0, 15, 0.005),
                                   FixturePath("cd1", 10.0, 25, 0.0)};
    }
    return std::vector<PathSpec>{FixturePath("cu0", 5.0, 20, 0.01),
                                 FixturePath("cu1", 3.0, 35, 0.005)};
  };
  config.num_hubs = 3;
  config.trunk_paths = {FixturePath("ct0", 30.0, 10, 0.01),
                        FixturePath("ct1", 20.0, 20, 0.005)};
  FaultPlan outage;
  outage.Add(FaultEvent::Outage(Timestamp::Zero() + Duration::Seconds(2),
                                Duration::Seconds(2)));
  config.hub_fault_plans = {FaultPlan{}, outage};
  return config;
}

// Lossy single-hub kSrtt star with a leave/rejoin
// (conference_fixture_star3_legacy_churn.json): the only conference fixture
// on legacy (ssrc, seq) NACKs. kSrtt spreads each stream over two paths of
// different delay, so cross-path reordering makes receivers NACK packets
// that are merely late, and the hub answers them from its legacy history.
// The call runs long enough for each receiver-facing engine's history to
// pass its 4,096-entry cap, and participant 1's leave drops its legacy
// entries at the hub before it rejoins under a fresh incarnation.
inline ConferenceConfig FixtureStarLegacyChurnConfig() {
  ConferenceConfig config;
  config.variant = Variant::kSrtt;
  config.topology = Topology::kStar;
  config.participants.assign(3, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(4);
  config.duration = Duration::Seconds(12);
  config.seed = 37;
  config.membership = {Leave(4.0, 1), Join(6.0, 1)};
  config.paths_for_edge = [](int from, int) {
    if (from == kHubId) {
      return std::vector<PathSpec>{FixturePath("lsd0", 16.0, 15, 0.02),
                                   FixturePath("lsd1", 10.0, 40, 0.01)};
    }
    return std::vector<PathSpec>{FixturePath("lsu0", 6.0, 20, 0.01),
                                 FixturePath("lsu1", 4.0, 45, 0.005)};
  };
  return config;
}

// Every pinned ConferenceStats fixture, by file name.
struct ConferenceFixture {
  const char* file;
  ConferenceConfig (*config)();
};

inline const ConferenceFixture kConferenceFixtures[] = {
    {"conference_fixture_star3.json", &FixtureConferenceConfig},
    {"conference_fixture_mesh3_churn.json", &FixtureMeshChurnConfig},
    {"conference_fixture_star3_layers_churn.json",
     &FixtureStarLayersChurnConfig},
    {"conference_fixture_cascade3_failover.json",
     &FixtureCascadeFailoverConfig},
    {"conference_fixture_star3_legacy_churn.json",
     &FixtureStarLegacyChurnConfig},
};

}  // namespace converge::fixtures
