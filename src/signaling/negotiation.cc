#include "signaling/negotiation.h"

#include <algorithm>
#include <utility>

#include "rtp/ssrc_allocator.h"
#include "util/invariants.h"

namespace converge {
namespace {

SessionDescription BaseDescription(const EndpointCapabilities& caps) {
  SessionDescription desc;
  for (int i = 0; i < caps.num_streams; ++i) {
    SdpMediaStream stream;
    // Participant-scoped SSRCs (participant 0 keeps the historical
    // 0x1000 + i layout).
    stream.ssrc = SsrcAllocator::StreamSsrc(caps.participant_id, i);
    stream.label = "camera" + std::to_string(i);
    desc.streams.push_back(stream);
  }
  return desc;
}

}  // namespace

SessionDescription CreateOffer(const EndpointCapabilities& caps) {
  SessionDescription offer = BaseDescription(caps);
  if (caps.supports_multipath && caps.interfaces.size() > 1) {
    offer.multipath_supported = true;
    offer.max_paths = std::min<int>(caps.max_paths,
                                    static_cast<int>(caps.interfaces.size()));
    offer.header_extensions.push_back(kMultipathExtensionUri);
  }
  offer.cc_algorithm = caps.cc_algorithm;
  offer.home_hub = caps.home_hub;
  offer.simulcast_rungs = std::max(1, caps.simulcast_rungs);
  offer.temporal_layers = std::max(1, caps.temporal_layers);
  return offer;
}

SessionDescription CreateAnswer(const EndpointCapabilities& caps,
                                const SessionDescription& offer) {
  SessionDescription answer = BaseDescription(caps);
  // Multipath only if the offer carried it AND we are capable: a legacy
  // answerer never echoes the attribute, so the offerer falls back.
  if (offer.multipath_supported && caps.supports_multipath &&
      caps.interfaces.size() > 1) {
    answer.multipath_supported = true;
    answer.max_paths =
        std::min({offer.max_paths, caps.max_paths,
                  static_cast<int>(caps.interfaces.size())});
    answer.header_extensions.push_back(kMultipathExtensionUri);
  }
  // The CC attribute is echoed only when this endpoint runs the SAME
  // algorithm the offer advertised; a silent answer means "gcc".
  if (offer.cc_algorithm != "gcc" && offer.cc_algorithm == caps.cc_algorithm) {
    answer.cc_algorithm = offer.cc_algorithm;
  }
  // Layers: the answer carries the element-wise minimum of what the offer
  // advertised and what we can do. A legacy offer parses as 1x1, so the
  // answer stays silent and both sides run single-layer.
  answer.simulcast_rungs =
      std::min(std::max(1, offer.simulcast_rungs),
               std::max(1, caps.simulcast_rungs));
  answer.temporal_layers =
      std::min(std::max(1, offer.temporal_layers),
               std::max(1, caps.temporal_layers));
  return answer;
}

NegotiatedSession Negotiate(const EndpointCapabilities& local,
                            const EndpointCapabilities& remote) {
  // SDP round trip (serialize/parse so the text format is the contract).
  const SessionDescription offer = CreateOffer(local);
  const auto offer_parsed = ParseSdp(SerializeSdp(offer));
  const SessionDescription answer =
      CreateAnswer(remote, offer_parsed.value_or(SessionDescription{}));
  const auto answer_parsed = ParseSdp(SerializeSdp(answer));

  NegotiatedSession session;
  session.num_streams = local.num_streams;
  const bool multipath = offer.multipath_supported &&
                         answer_parsed.has_value() &&
                         answer_parsed->multipath_supported;

  const auto local_candidates = GatherCandidates(local.interfaces);
  const auto remote_candidates = GatherCandidates(remote.interfaces, 60000);
  session.pairs =
      PairCandidates(local_candidates, remote_candidates, multipath);

  if (multipath) {
    const int limit =
        std::min(offer.max_paths, answer_parsed->max_paths);
    if (static_cast<int>(session.pairs.size()) > limit) {
      session.pairs.resize(static_cast<size_t>(limit));
    }
  }
  session.num_paths = static_cast<int>(session.pairs.size());
  session.use_multipath = multipath && session.num_paths > 1;
  // CC resolution goes through the serialized round trip too: if either
  // side's SDP dropped the attribute (legacy endpoint, mismatched
  // algorithm), both ends land on the GCC default.
  if (offer_parsed.has_value() && answer_parsed.has_value() &&
      offer_parsed->cc_algorithm != "gcc" &&
      answer_parsed->cc_algorithm == offer_parsed->cc_algorithm) {
    session.cc_algorithm = offer_parsed->cc_algorithm;
  }
  // The home-hub request also survives only through the serialized round
  // trip: a legacy offer never carries the attribute and parses as hub 0.
  if (offer_parsed.has_value()) session.home_hub = offer_parsed->home_hub;
  // Layer capability: the answer already carries min(offer, answerer); a
  // legacy endpoint on either side leaves the attribute out and the
  // parsed default (1x1) wins.
  if (offer_parsed.has_value() && answer_parsed.has_value()) {
    session.simulcast_rungs = std::min(offer_parsed->simulcast_rungs,
                                       answer_parsed->simulcast_rungs);
    session.temporal_layers = std::min(offer_parsed->temporal_layers,
                                       answer_parsed->temporal_layers);
  }
  return session;
}

bool MembershipPresentAtStart(int participant,
                              const std::vector<MembershipEvent>& events) {
  for (const MembershipEvent& ev : events) {
    if (ev.participant != participant) continue;
    return ev.kind != MembershipEvent::Kind::kJoin;
  }
  return true;  // no events: in the call for its whole duration
}

int MembershipIncarnationAt(int participant, Timestamp t,
                            const std::vector<MembershipEvent>& events) {
  int leaves = 0;
  for (const MembershipEvent& ev : events) {
    if (ev.participant != participant) continue;
    if (ev.kind == MembershipEvent::Kind::kLeave && ev.at <= t) ++leaves;
  }
  return leaves;
}

std::string ValidateMembership(int num_participants,
                               const std::vector<MembershipEvent>& events) {
  Timestamp prev = Timestamp::MinusInfinity();
  for (const MembershipEvent& ev : events) {
    if (ev.participant < 0 || ev.participant >= num_participants) {
      return "membership event names participant " +
             std::to_string(ev.participant) + " outside [0, " +
             std::to_string(num_participants) + ")";
    }
    if (!ev.at.IsFinite() || ev.at < Timestamp::Zero()) {
      return "membership event time must be finite and >= 0";
    }
    if (ev.at < prev) return "membership events must be sorted by time";
    prev = ev.at;
  }
  // Per-participant: alternation consistent with the initial-presence rule,
  // strictly increasing times.
  for (int p = 0; p < num_participants; ++p) {
    bool present = MembershipPresentAtStart(p, events);
    Timestamp last = Timestamp::MinusInfinity();
    for (const MembershipEvent& ev : events) {
      if (ev.participant != p) continue;
      if (ev.at <= last) {
        return "participant " + std::to_string(p) +
               " has two membership events at the same time";
      }
      last = ev.at;
      const bool join = ev.kind == MembershipEvent::Kind::kJoin;
      if (join && present) {
        return "participant " + std::to_string(p) + " joins while present";
      }
      if (!join && !present) {
        return "participant " + std::to_string(p) + " leaves while absent";
      }
      present = join;
    }
  }
  return "";
}

bool ConferencePlan::PresentAt(int participant, Timestamp t) const {
  bool present = PresentAtStart(participant);
  for (const MembershipEvent& ev : membership) {
    if (ev.participant != participant || ev.at > t) continue;
    present = ev.kind == MembershipEvent::Kind::kJoin;
  }
  return present;
}

std::vector<InvariantViolation> NormalizeMembership(
    const char* component, int num_participants,
    std::vector<MembershipEvent>& membership) {
  std::stable_sort(membership.begin(), membership.end(),
                   [](const MembershipEvent& a, const MembershipEvent& b) {
                     return a.at < b.at;
                   });
  std::string error = ValidateMembership(num_participants, membership);
  if (error.empty()) return {};
  membership.clear();
  return {{.component = component,
           .condition = "error.empty()",
           .detail = std::move(error),
           .context = {},
           .at = Timestamp::Zero()}};
}

const NegotiatedSession& ConferencePlan::PairSession(int a, int b) const {
  if (a > b) std::swap(a, b);
  // Row-major index of unordered pair (a, b), a < b, over num_participants:
  // rows 0..a-1 contribute (n-1-r) entries each, then (b - a - 1) into row a.
  const int n = num_participants;
  const int index = a * (2 * n - a - 1) / 2 + (b - a - 1);
  return sessions.at(static_cast<size_t>(index));
}

ConferencePlan NegotiateMesh(
    const std::vector<EndpointCapabilities>& participants,
    std::vector<MembershipEvent> membership) {
  ConferencePlan plan;
  plan.num_participants = static_cast<int>(participants.size());
  plan.star = false;
  for (size_t a = 0; a < participants.size(); ++a) {
    for (size_t b = a + 1; b < participants.size(); ++b) {
      plan.sessions.push_back(Negotiate(participants[a], participants[b]));
    }
  }
  InvariantRegistry::ReportAll(
      NormalizeMembership("Negotiation", plan.num_participants, membership));
  plan.membership = std::move(membership);
  return plan;
}

ConferencePlan NegotiateStar(
    const EndpointCapabilities& forwarder,
    const std::vector<EndpointCapabilities>& participants,
    std::vector<MembershipEvent> membership) {
  ConferencePlan plan;
  plan.num_participants = static_cast<int>(participants.size());
  plan.star = true;
  for (const EndpointCapabilities& participant : participants) {
    plan.sessions.push_back(Negotiate(participant, forwarder));
  }
  InvariantRegistry::ReportAll(
      NormalizeMembership("Negotiation", plan.num_participants, membership));
  plan.membership = std::move(membership);
  return plan;
}

ConferencePlan NegotiateCascade(
    const EndpointCapabilities& forwarder,
    const std::vector<EndpointCapabilities>& participants, int num_hubs,
    std::vector<MembershipEvent> membership) {
  CONVERGE_INVARIANT("Negotiation", Timestamp::Zero(), num_hubs >= 1,
                     "cascade needs >= 1 hub, got " +
                         std::to_string(num_hubs));
  if (num_hubs < 1) num_hubs = 1;
  ConferencePlan plan =
      NegotiateStar(forwarder, participants, std::move(membership));
  plan.num_hubs = num_hubs;
  if (num_hubs == 1) return plan;  // degenerate single-star plan
  plan.home_hub.reserve(participants.size());
  for (size_t i = 0; i < participants.size(); ++i) {
    const int requested = plan.sessions[i].home_hub;
    if (requested >= 0 && requested < num_hubs) {
      plan.home_hub.push_back(requested);
      continue;
    }
    CONVERGE_INVARIANT(
        "Negotiation", Timestamp::Zero(), false,
        "participant " + std::to_string(i) + " pinned to hub " +
            std::to_string(requested) + " outside [0, " +
            std::to_string(num_hubs) + "); falling back to round-robin");
    plan.home_hub.push_back(static_cast<int>(i) % num_hubs);
  }
  return plan;
}

}  // namespace converge
