#include <gtest/gtest.h>

#include "signaling/negotiation.h"
#include "util/invariants.h"

namespace converge {
namespace {

std::vector<NetworkInterface> DualInterfaces() {
  NetworkInterface wifi;
  wifi.name = "wlan0";
  wifi.address = "192.168.1.10";
  wifi.network_id = 0;
  wifi.local_preference = 65535;
  NetworkInterface cell;
  cell.name = "rmnet0";
  cell.address = "10.20.30.40";
  cell.network_id = 1;
  cell.local_preference = 60000;
  return {wifi, cell};
}

TEST(SdpTest, SerializeParseRoundTrip) {
  SessionDescription desc;
  desc.multipath_supported = true;
  desc.max_paths = 2;
  desc.header_extensions.push_back(kMultipathExtensionUri);
  desc.streams.push_back({0x1000, "camera0"});
  desc.streams.push_back({0x1001, "camera1"});

  const auto parsed = ParseSdp(SerializeSdp(desc));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->multipath_supported);
  EXPECT_EQ(parsed->max_paths, 2);
  ASSERT_EQ(parsed->streams.size(), 2u);
  EXPECT_EQ(parsed->streams[0].ssrc, 0x1000u);
  EXPECT_EQ(parsed->streams[1].label, "camera1");
  ASSERT_EQ(parsed->header_extensions.size(), 1u);
  EXPECT_EQ(parsed->header_extensions[0], kMultipathExtensionUri);
}

TEST(SdpTest, LegacySdpHasNoMultipath) {
  SessionDescription desc;  // defaults: no multipath
  const auto parsed = ParseSdp(SerializeSdp(desc));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->multipath_supported);
  EXPECT_EQ(parsed->max_paths, 1);
}

TEST(SdpTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseSdp("not sdp at all").has_value());
  EXPECT_FALSE(ParseSdp("v=1\r\nm=video 9 X 96\r\n").has_value());
  EXPECT_FALSE(ParseSdp("v=0\r\n").has_value());  // no media section
}

TEST(SdpTest, UnknownAttributesTolerated) {
  // A legacy endpoint may include attributes we do not understand.
  const std::string sdp =
      "v=0\r\no=legacy 0 0 IN IP4 0.0.0.0\r\ns=call\r\nt=0 0\r\n"
      "m=video 9 UDP/TLS/RTP/SAVPF 96\r\n"
      "a=rtcp-mux\r\na=setup:actpass\r\n"
      "a=ssrc:4096 label:cam\r\n";
  const auto parsed = ParseSdp(sdp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(parsed->multipath_supported);
  ASSERT_EQ(parsed->streams.size(), 1u);
  EXPECT_EQ(parsed->streams[0].ssrc, 4096u);
}

TEST(IceTest, PriorityFormula) {
  // host > srflx; higher local preference wins within a type.
  const uint32_t host_hi = CandidatePriority(CandidateType::kHost, 65535, 1);
  const uint32_t host_lo = CandidatePriority(CandidateType::kHost, 60000, 1);
  const uint32_t srflx = CandidatePriority(CandidateType::kServerReflexive,
                                           65535, 1);
  EXPECT_GT(host_hi, host_lo);
  EXPECT_GT(host_lo, srflx);
}

TEST(IceTest, GatherProducesHostAndSrflx) {
  const auto candidates = GatherCandidates(DualInterfaces());
  // 2 interfaces x (host + srflx behind NAT).
  EXPECT_EQ(candidates.size(), 4u);
  int hosts = 0;
  for (const auto& c : candidates) {
    if (c.type == CandidateType::kHost) ++hosts;
    EXPECT_GT(c.priority, 0u);
  }
  EXPECT_EQ(hosts, 2);
}

TEST(IceTest, LegacyPairingKeepsSingleBestPair) {
  const auto local = GatherCandidates(DualInterfaces());
  const auto remote = GatherCandidates(DualInterfaces(), 60000);
  const auto pairs = PairCandidates(local, remote, /*multipath=*/false);
  ASSERT_EQ(pairs.size(), 1u);
  // Best pair is WiFi-WiFi (highest preferences).
  EXPECT_EQ(pairs[0].local.network_id, 0);
}

TEST(IceTest, MultipathPairingOnePairPerLocalInterface) {
  const auto local = GatherCandidates(DualInterfaces());
  const auto remote = GatherCandidates(DualInterfaces(), 60000);
  const auto pairs = PairCandidates(local, remote, /*multipath=*/true);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_NE(pairs[0].local.network_id, pairs[1].local.network_id);
}

TEST(NegotiationTest, BothCapableYieldsMultipath) {
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  EndpointCapabilities b = a;
  const NegotiatedSession session = Negotiate(a, b);
  EXPECT_TRUE(session.use_multipath);
  EXPECT_EQ(session.num_paths, 2);
}

TEST(NegotiationTest, LegacyRemoteFallsBackToSinglePath) {
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  EndpointCapabilities legacy;
  legacy.supports_multipath = false;
  legacy.interfaces = DualInterfaces();
  const NegotiatedSession session = Negotiate(a, legacy);
  EXPECT_FALSE(session.use_multipath);
  EXPECT_EQ(session.num_paths, 1);
}

TEST(NegotiationTest, SingleInterfaceCannotOfferMultipath) {
  EndpointCapabilities a;
  a.interfaces = {DualInterfaces()[0]};
  EndpointCapabilities b;
  b.interfaces = DualInterfaces();
  const NegotiatedSession session = Negotiate(a, b);
  EXPECT_FALSE(session.use_multipath);
}

TEST(NegotiationTest, MaxPathsIntersection) {
  std::vector<NetworkInterface> three = DualInterfaces();
  NetworkInterface extra;
  extra.name = "rmnet1";
  extra.address = "10.99.0.2";
  extra.network_id = 2;
  extra.local_preference = 55000;
  three.push_back(extra);

  EndpointCapabilities a;
  a.interfaces = three;
  a.max_paths = 3;
  EndpointCapabilities b;
  b.interfaces = DualInterfaces();
  b.max_paths = 2;
  const NegotiatedSession session = Negotiate(a, b);
  EXPECT_TRUE(session.use_multipath);
  EXPECT_LE(session.num_paths, 2);  // limited by the answerer
}

TEST(NegotiationTest, OfferAdvertisesExtensionUri) {
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  const SessionDescription offer = CreateOffer(a);
  ASSERT_TRUE(offer.multipath_supported);
  ASSERT_FALSE(offer.header_extensions.empty());
  EXPECT_EQ(offer.header_extensions[0], kMultipathExtensionUri);
}

TEST(NegotiationTest, OfferCarriesParticipantScopedSsrcs) {
  EndpointCapabilities caps;
  caps.participant_id = 2;
  caps.num_streams = 2;
  caps.interfaces = DualInterfaces();
  const SessionDescription offer = CreateOffer(caps);
  ASSERT_EQ(offer.streams.size(), 2u);
  EXPECT_EQ(offer.streams[0].ssrc, 0x1200u);  // 0x1000 + 2 * 0x100
  EXPECT_EQ(offer.streams[1].ssrc, 0x1201u);
  // Participant 0 keeps the historical point-to-point layout.
  caps.participant_id = 0;
  EXPECT_EQ(CreateOffer(caps).streams[0].ssrc, 0x1000u);
}

TEST(NegotiationTest, MeshPlanNegotiatesEveryPairOnce) {
  std::vector<EndpointCapabilities> participants(3);
  for (int i = 0; i < 3; ++i) {
    participants[static_cast<size_t>(i)].participant_id = i;
    participants[static_cast<size_t>(i)].interfaces = DualInterfaces();
  }
  const ConferencePlan plan = NegotiateMesh(participants);
  EXPECT_FALSE(plan.star);
  EXPECT_EQ(plan.num_participants, 3);
  ASSERT_EQ(plan.sessions.size(), 3u);  // C(3, 2) unordered pairs
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      const NegotiatedSession& session = plan.PairSession(a, b);
      EXPECT_TRUE(session.use_multipath) << "pair " << a << "," << b;
      // PairSession is order-insensitive: both lookups hit the same entry.
      EXPECT_EQ(&session, &plan.PairSession(b, a));
    }
  }
}

TEST(NegotiationTest, MeshPlanLegacyEndpointDowngradesOnlyItsOwnPairs) {
  std::vector<EndpointCapabilities> participants(3);
  for (int i = 0; i < 3; ++i) {
    participants[static_cast<size_t>(i)].participant_id = i;
    participants[static_cast<size_t>(i)].interfaces = DualInterfaces();
  }
  participants[1].supports_multipath = false;
  const ConferencePlan plan = NegotiateMesh(participants);
  EXPECT_FALSE(plan.PairSession(0, 1).use_multipath);
  EXPECT_FALSE(plan.PairSession(1, 2).use_multipath);
  // The pair not involving the legacy endpoint keeps multipath.
  EXPECT_TRUE(plan.PairSession(0, 2).use_multipath);
}

TEST(MembershipTest, ValidatesTimelines) {
  auto at = [](double s) { return Timestamp::Zero() + Duration::Seconds(s); };
  using K = MembershipEvent::Kind;

  // Valid: a late joiner, and a leave + rejoin.
  EXPECT_EQ(ValidateMembership(3, {{K::kJoin, at(5), 2}}), "");
  EXPECT_EQ(ValidateMembership(3, {{K::kLeave, at(4), 1},
                                   {K::kJoin, at(8), 1}}),
            "");
  EXPECT_EQ(ValidateMembership(2, {}), "");

  // Invalid: unknown participant, joining while present, leaving twice,
  // non-increasing per-participant times.
  EXPECT_NE(ValidateMembership(2, {{K::kJoin, at(1), 5}}), "");
  EXPECT_NE(ValidateMembership(2, {{K::kLeave, at(2), 0},
                                   {K::kJoin, at(4), 0},
                                   {K::kJoin, at(6), 0}}),
            "");
  EXPECT_NE(ValidateMembership(2, {{K::kLeave, at(2), 0},
                                   {K::kLeave, at(4), 0}}),
            "");
  EXPECT_NE(ValidateMembership(2, {{K::kLeave, at(4), 0},
                                   {K::kJoin, at(4), 0}}),
            "");
}

TEST(MembershipTest, PresenceAndIncarnationQueries) {
  auto at = [](double s) { return Timestamp::Zero() + Duration::Seconds(s); };
  using K = MembershipEvent::Kind;
  const std::vector<MembershipEvent> events = {
      {K::kJoin, at(3), 2},                       // late joiner
      {K::kLeave, at(4), 1}, {K::kJoin, at(8), 1}  // leave + rejoin
  };

  // Absent at t=0 iff the first event is a join.
  EXPECT_TRUE(MembershipPresentAtStart(0, events));
  EXPECT_TRUE(MembershipPresentAtStart(1, events));
  EXPECT_FALSE(MembershipPresentAtStart(2, events));

  // Incarnation = completed leaves at or before t; the rejoin at 8 s runs
  // as incarnation 1.
  EXPECT_EQ(MembershipIncarnationAt(1, at(0), events), 0);
  EXPECT_EQ(MembershipIncarnationAt(1, at(4), events), 1);
  EXPECT_EQ(MembershipIncarnationAt(1, at(8), events), 1);
  EXPECT_EQ(MembershipIncarnationAt(2, at(10), events), 0);
}

TEST(MembershipTest, ChurnAwareMeshPlanCarriesTimeline) {
  auto at = [](double s) { return Timestamp::Zero() + Duration::Seconds(s); };
  using K = MembershipEvent::Kind;
  std::vector<EndpointCapabilities> participants(3);
  for (int i = 0; i < 3; ++i) {
    participants[static_cast<size_t>(i)].participant_id = i;
    participants[static_cast<size_t>(i)].interfaces = DualInterfaces();
  }

  // The full roster negotiates up front (a rejoiner reuses its session);
  // the timeline is attached sorted.
  const ConferencePlan plan = NegotiateMesh(
      participants, {{K::kJoin, at(8), 1}, {K::kLeave, at(4), 1}});
  ASSERT_EQ(plan.membership.size(), 2u);
  EXPECT_EQ(plan.membership[0].kind, K::kLeave);
  EXPECT_TRUE(plan.PresentAtStart(1));
  EXPECT_TRUE(plan.PresentAt(1, at(2)));
  EXPECT_FALSE(plan.PresentAt(1, at(6)));
  EXPECT_TRUE(plan.PresentAt(1, at(10)));
  // Pairwise sessions exist for every pair regardless of churn.
  EXPECT_TRUE(plan.PairSession(0, 1).use_multipath);
}

// The negotiators and the conference share NormalizeMembership; each
// reports an invalid timeline under its own component label and attaches
// it empty.
TEST(MembershipTest, InvalidTimelineIsReportedUnderTheCallersLabel) {
  auto at = [](double s) { return Timestamp::Zero() + Duration::Seconds(s); };
  using K = MembershipEvent::Kind;
  std::vector<EndpointCapabilities> participants(2);
  for (int i = 0; i < 2; ++i) {
    participants[static_cast<size_t>(i)].participant_id = i;
    participants[static_cast<size_t>(i)].interfaces = DualInterfaces();
  }
  const std::vector<MembershipEvent> twice = {{K::kLeave, at(2), 1},
                                              {K::kLeave, at(4), 1}};

  ScopedInvariants invariants;
  EXPECT_TRUE(NegotiateStar(EndpointCapabilities{}, participants, twice)
                  .membership.empty());
  EXPECT_TRUE(NegotiateMesh(participants, twice).membership.empty());
  const std::vector<InvariantViolation> reported =
      InvariantRegistry::Snapshot();
  ASSERT_EQ(reported.size(), 2u);
  for (const InvariantViolation& v : reported) {
    EXPECT_EQ(v.component, "Negotiation");
    EXPECT_EQ(v.condition, "error.empty()");
    EXPECT_EQ(v.detail, "participant 1 leaves while absent");
    EXPECT_EQ(v.at, Timestamp::Zero());
  }

  // Called directly, the helper reports nothing itself.
  std::vector<MembershipEvent> timeline = twice;
  const std::vector<InvariantViolation> found =
      NormalizeMembership("Conference", 2, timeline);
  EXPECT_TRUE(timeline.empty());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].component, "Conference");
  EXPECT_EQ(found[0].detail, "participant 1 leaves while absent");
  std::vector<MembershipEvent> unsorted = {{K::kJoin, at(8), 1},
                                           {K::kLeave, at(4), 1}};
  EXPECT_TRUE(NormalizeMembership("Conference", 2, unsorted).empty());
  EXPECT_EQ(unsorted[0].kind, K::kLeave);
  EXPECT_EQ(InvariantRegistry::violation_count(), 2);
}

TEST(NegotiationTest, StarPlanNegotiatesOneUplinkPerParticipant) {
  EndpointCapabilities forwarder;
  forwarder.participant_id = 100;
  forwarder.interfaces = DualInterfaces();
  std::vector<EndpointCapabilities> participants(3);
  for (int i = 0; i < 3; ++i) {
    participants[static_cast<size_t>(i)].participant_id = i;
    participants[static_cast<size_t>(i)].interfaces = DualInterfaces();
  }
  participants[2].supports_multipath = false;

  const ConferencePlan plan = NegotiateStar(forwarder, participants);
  EXPECT_TRUE(plan.star);
  ASSERT_EQ(plan.sessions.size(), 3u);
  EXPECT_TRUE(plan.UplinkSession(0).use_multipath);
  EXPECT_TRUE(plan.UplinkSession(1).use_multipath);
  // A legacy participant only downgrades its own uplink to the forwarder.
  EXPECT_FALSE(plan.UplinkSession(2).use_multipath);
}

TEST(SdpTest, DefaultCcOmitsAttributeForByteCompat) {
  // The historical SDP never carried a CC attribute; the GCC default must
  // keep serializing byte-identically, and a legacy description parses back
  // to "gcc".
  SessionDescription desc;
  const std::string sdp = SerializeSdp(desc);
  EXPECT_EQ(sdp.find(kCcAttribute), std::string::npos);
  const auto parsed = ParseSdp(sdp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cc_algorithm, "gcc");
}

TEST(SdpTest, NonDefaultCcRoundTrips) {
  SessionDescription desc;
  desc.cc_algorithm = "nada";
  const std::string sdp = SerializeSdp(desc);
  EXPECT_NE(sdp.find("a=x-converge-cc:nada"), std::string::npos);
  const auto parsed = ParseSdp(sdp);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->cc_algorithm, "nada");
}

TEST(NegotiationTest, MatchingCcAlgorithmIsNegotiated) {
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  a.cc_algorithm = "cross";
  EndpointCapabilities b = a;
  const NegotiatedSession session = Negotiate(a, b);
  EXPECT_EQ(session.cc_algorithm, "cross");
}

TEST(NegotiationTest, MismatchedCcAlgorithmFallsBackToGcc) {
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  a.cc_algorithm = "nada";
  EndpointCapabilities b = a;
  b.cc_algorithm = "cross";
  const NegotiatedSession session = Negotiate(a, b);
  EXPECT_EQ(session.cc_algorithm, "gcc");
}

TEST(NegotiationTest, LegacyAnswererFallsBackToGcc) {
  // A legacy remote never echoes the attribute (its caps keep the "gcc"
  // default), so the offerer lands on GCC even though it advertised NADA.
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  a.cc_algorithm = "nada";
  EndpointCapabilities legacy;
  legacy.interfaces = DualInterfaces();
  const NegotiatedSession session = Negotiate(a, legacy);
  EXPECT_EQ(session.cc_algorithm, "gcc");

  // Answer-side sanity: the echo only happens on an exact match.
  const SessionDescription offer = CreateOffer(a);
  EXPECT_EQ(offer.cc_algorithm, "nada");
  const SessionDescription answer = CreateAnswer(legacy, offer);
  EXPECT_EQ(answer.cc_algorithm, "gcc");
}

TEST(SdpTest, DefaultHomeHubOmitsAttributeForByteCompat) {
  SessionDescription desc;
  const std::string text = SerializeSdp(desc);
  EXPECT_EQ(text.find("x-converge-home-hub"), std::string::npos);
  const auto parsed = ParseSdp(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->home_hub, 0);
}

TEST(SdpTest, HomeHubAttributeRoundTrips) {
  SessionDescription desc;
  desc.home_hub = 2;
  const std::string text = SerializeSdp(desc);
  EXPECT_NE(text.find("a=x-converge-home-hub:2"), std::string::npos);
  const auto parsed = ParseSdp(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->home_hub, 2);
}

TEST(SdpTest, DefaultLayersOmitAttributeForByteCompat) {
  // Single-layer descriptions never carry the layers attribute, so the
  // serialized SDP is byte-identical to the pre-layers format; a legacy
  // description parses back to 1x1.
  SessionDescription desc;
  const std::string text = SerializeSdp(desc);
  EXPECT_EQ(text.find(kLayersAttribute), std::string::npos);
  const auto parsed = ParseSdp(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->simulcast_rungs, 1);
  EXPECT_EQ(parsed->temporal_layers, 1);
}

TEST(SdpTest, LayersAttributeRoundTrips) {
  SessionDescription desc;
  desc.simulcast_rungs = 3;
  desc.temporal_layers = 2;
  const std::string text = SerializeSdp(desc);
  EXPECT_NE(text.find("a=x-converge-layers:3x2"), std::string::npos);
  const auto parsed = ParseSdp(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->simulcast_rungs, 3);
  EXPECT_EQ(parsed->temporal_layers, 2);
}

TEST(NegotiationTest, LayersResolveToElementWiseMinimum) {
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  a.simulcast_rungs = 3;
  a.temporal_layers = 2;
  EndpointCapabilities b = a;
  b.simulcast_rungs = 2;
  b.temporal_layers = 3;
  const NegotiatedSession session = Negotiate(a, b);
  EXPECT_EQ(session.simulcast_rungs, 2);
  EXPECT_EQ(session.temporal_layers, 2);
}

TEST(NegotiationTest, LegacyPeerFallsBackToSingleLayer) {
  // A legacy answerer never echoes the attribute: both sides land on 1x1
  // however many rungs the offer advertised.
  EndpointCapabilities a;
  a.interfaces = DualInterfaces();
  a.simulcast_rungs = 3;
  a.temporal_layers = 3;
  EndpointCapabilities legacy;
  legacy.interfaces = DualInterfaces();
  const NegotiatedSession session = Negotiate(a, legacy);
  EXPECT_EQ(session.simulcast_rungs, 1);
  EXPECT_EQ(session.temporal_layers, 1);

  const SessionDescription offer = CreateOffer(a);
  EXPECT_EQ(offer.simulcast_rungs, 3);
  const SessionDescription answer = CreateAnswer(legacy, offer);
  EXPECT_EQ(answer.simulcast_rungs, 1);
  // The 1x1 answer stays byte-silent about layers entirely.
  EXPECT_EQ(SerializeSdp(answer).find(kLayersAttribute), std::string::npos);
}

TEST(NegotiationTest, CascadePlanHonorsValidPinsAndDefaultsLegacy) {
  EndpointCapabilities forwarder;
  forwarder.interfaces = DualInterfaces();
  std::vector<EndpointCapabilities> participants(3);
  for (size_t i = 0; i < participants.size(); ++i) {
    participants[i].participant_id = static_cast<int>(i);
    participants[i].interfaces = DualInterfaces();
  }
  participants[0].home_hub = 1;  // valid pin
  participants[1].home_hub = 0;  // legacy default: lands on hub 0
  participants[2].home_hub = 2;  // valid pin

  const ConferencePlan plan =
      NegotiateCascade(forwarder, participants, /*num_hubs=*/3);
  EXPECT_TRUE(plan.star);
  EXPECT_EQ(plan.num_hubs, 3);
  ASSERT_EQ(plan.home_hub.size(), 3u);
  EXPECT_EQ(plan.home_hub[0], 1);
  EXPECT_EQ(plan.home_hub[1], 0);
  EXPECT_EQ(plan.home_hub[2], 2);
  // The uplink sessions are exactly the star negotiation's.
  EXPECT_EQ(plan.sessions.size(), 3u);
}

TEST(NegotiationTest, CascadeSingleHubIsDegenerateStarPlan) {
  EndpointCapabilities forwarder;
  forwarder.interfaces = DualInterfaces();
  std::vector<EndpointCapabilities> participants(2);
  for (size_t i = 0; i < participants.size(); ++i) {
    participants[i].participant_id = static_cast<int>(i);
    participants[i].interfaces = DualInterfaces();
  }
  const ConferencePlan plan =
      NegotiateCascade(forwarder, participants, /*num_hubs=*/1);
  EXPECT_EQ(plan.num_hubs, 1);
  EXPECT_TRUE(plan.home_hub.empty());  // the plain single-star plan
  EXPECT_TRUE(plan.star);
}

}  // namespace
}  // namespace converge
