// Offer/answer negotiation with multipath capability exchange and the
// backward-compatibility fallback the paper highlights (§1, §5): "Converge
// seamlessly falls back to the standard WebRTC protocols if either endpoint
// does not support multipath." N-party conferences negotiate pairwise: a
// mesh runs offer/answer for every participant pair, a star has each
// participant negotiate its uplink with the forwarder (NegotiateMesh /
// NegotiateStar below).
#pragma once

#include <string>

#include "signaling/ice.h"
#include "signaling/sdp.h"
#include "util/invariants.h"
#include "util/time.h"

namespace converge {

// One scheduled membership change: a participant joining or leaving the
// conference at a simulated time. A timeline of these drives mid-call churn:
// the Conference wires up (or tears down) the participant's legs when the
// event fires, and signaling validates the timeline up front so an
// impossible schedule (leaving twice, joining while present) is rejected at
// negotiation time rather than surfacing as a dangling leg mid-call.
struct MembershipEvent {
  enum class Kind : uint8_t { kJoin, kLeave };
  Kind kind = Kind::kJoin;
  Timestamp at = Timestamp::Zero();
  int participant = 0;
};

// Validates a membership timeline against `num_participants`: events must
// name valid participants, carry finite non-decreasing times (per
// participant strictly increasing), and alternate join/leave consistently
// with the initial-presence rule — a participant is absent at t=0 iff its
// first event is a join. Returns an empty string when valid, else a
// description of the first problem.
std::string ValidateMembership(int num_participants,
                               const std::vector<MembershipEvent>& events);

// Sorts `membership` by time (stably) and validates it. An invalid timeline
// is cleared, and its ValidateMembership error comes back as the one
// violation, labelled with the caller's `component` and stamped t = 0. The
// negotiators and NormalizeConferenceConfig share this one rule.
std::vector<InvariantViolation> NormalizeMembership(
    const char* component, int num_participants,
    std::vector<MembershipEvent>& membership);

// Initial-presence rule shared by Conference and the negotiators.
bool MembershipPresentAtStart(int participant,
                              const std::vector<MembershipEvent>& events);

// Number of completed leave events for `participant` at or before `t`; a
// rejoin after the k-th leave runs as incarnation k, which scopes its SSRC
// bank (rtp/ssrc_allocator.h) disjoint from every earlier stream.
int MembershipIncarnationAt(int participant, Timestamp t,
                            const std::vector<MembershipEvent>& events);

// Everything one endpoint brings to the negotiation.
struct EndpointCapabilities {
  bool supports_multipath = true;
  int max_paths = 2;
  int num_streams = 1;
  // Congestion-control algorithm this endpoint is configured to run
  // ("gcc" | "nada" | "cross" — cc/cc_controller.h owns the vocabulary).
  // Offered via `a=x-converge-cc`; the answer echoes it only when the
  // answerer runs the same algorithm, so a mismatch (or a legacy endpoint
  // that drops the unknown attribute) falls back to GCC on both sides.
  std::string cc_algorithm = "gcc";
  // Conference participant id; scopes the endpoint's published SSRCs
  // (rtp/ssrc_allocator.h) so N senders never collide. The historical
  // 2-party default of 0 keeps legacy SDP byte-compatible.
  int participant_id = 0;
  // Regional hub this endpoint asks to home its uplink at in a cascaded
  // SFU fabric (DESIGN §10). Offered via `a=x-converge-home-hub` only when
  // > 0 — legacy SDP stays byte-identical and a legacy endpoint (whose
  // offer never carries the attribute) lands on hub 0.
  int home_hub = 0;
  // Layered-media capability, offered via `a=x-converge-layers:<S>x<T>`
  // only when either dimension exceeds 1. The answer echoes the
  // element-wise minimum of both sides; a legacy peer (whose SDP never
  // carries the attribute) resolves the session to single-layer (1x1).
  int simulcast_rungs = 1;
  int temporal_layers = 1;
  std::vector<NetworkInterface> interfaces;
};

// Result of offer/answer + ICE: what the media session should use.
struct NegotiatedSession {
  bool use_multipath = false;
  int num_paths = 1;
  int num_streams = 1;
  // Resolved congestion controller: the offered algorithm when both sides
  // advertise it, otherwise "gcc" (the legacy fallback).
  std::string cc_algorithm = "gcc";
  // Home hub the offer requested, through the serialized round trip (0 when
  // the attribute was absent). NegotiateCascade validates it against the
  // fabric's hub count.
  int home_hub = 0;
  // Layer capability both sides agreed on through the serialized round
  // trip: min(offer, answer) per dimension, 1x1 when either side stayed
  // silent (the legacy fallback).
  int simulcast_rungs = 1;
  int temporal_layers = 1;
  std::vector<CandidatePair> pairs;  // one per media path
};

// Builds the SDP offer for an endpoint (advertises multipath iff capable).
SessionDescription CreateOffer(const EndpointCapabilities& caps);

// Builds the answer given a remote offer: multipath appears in the answer
// only when both sides support it.
SessionDescription CreateAnswer(const EndpointCapabilities& caps,
                                const SessionDescription& offer);

// Completes the handshake: capability intersection + ICE gathering/pairing
// on both sides. `remote` answers `local`'s offer.
NegotiatedSession Negotiate(const EndpointCapabilities& local,
                            const EndpointCapabilities& remote);

// Result of negotiating an N-party conference, one pairwise session per
// edge of the topology.
struct ConferencePlan {
  int num_participants = 0;
  bool star = false;
  // Mesh: sessions for unordered pairs (i, j), i < j, in row-major order
  // ((0,1), (0,2), ..., (1,2), ...). Star: session i is participant i's
  // uplink to the forwarder.
  std::vector<NegotiatedSession> sessions;
  // Scheduled mid-call joins/leaves, sorted by time. Empty = everyone is in
  // the call for its whole duration (the historical behaviour).
  std::vector<MembershipEvent> membership;
  // Cascaded fabric shape (star only): number of regional hubs and the
  // validated per-participant home hub. num_hubs == 1 (every non-cascade
  // negotiation) leaves home_hub empty — the degenerate single-star plan.
  int num_hubs = 1;
  std::vector<int> home_hub;

  // Mesh lookup: the session negotiated between participants a and b.
  const NegotiatedSession& PairSession(int a, int b) const;
  // Membership queries over the timeline above.
  bool PresentAtStart(int participant) const {
    return MembershipPresentAtStart(participant, membership);
  }
  bool PresentAt(int participant, Timestamp t) const;
  // Star lookup: participant's uplink session.
  const NegotiatedSession& UplinkSession(int participant) const {
    return sessions.at(static_cast<size_t>(participant));
  }
};

// Both negotiators take the full roster up front (every participant that
// will EVER be in the call, as real conferencing services do — a rejoiner
// re-uses its negotiated session under a fresh incarnation) and attach the
// membership timeline through NormalizeMembership: sorted by time, or
// reported through the invariant registry and attached empty when invalid.
// An empty timeline is the fixed-membership call.
//
// Full-mesh negotiation: offer/answer between every participant pair (lower
// id offers). A single legacy endpoint only downgrades its own pairs — the
// rest of the mesh keeps multipath.
ConferencePlan NegotiateMesh(
    const std::vector<EndpointCapabilities>& participants,
    std::vector<MembershipEvent> membership = {});

// Star negotiation: every participant negotiates its uplink against the
// forwarder's capabilities (the forwarder answers).
ConferencePlan NegotiateStar(
    const EndpointCapabilities& forwarder,
    const std::vector<EndpointCapabilities>& participants,
    std::vector<MembershipEvent> membership = {});

// Cascaded-fabric negotiation (DESIGN §10): a star over `num_hubs` regional
// hubs. Each participant negotiates its uplink against the forwarder
// exactly as NegotiateStar does (so a 1-hub cascade plan is the star plan
// plus num_hubs/home_hub), and its `a=x-converge-home-hub` request is
// resolved through the SDP round trip: a pin inside [0, num_hubs) is
// honored — a legacy endpoint, whose offer never carries the attribute,
// parses as hub 0 and lands there — while an out-of-range pin falls back
// to participant_index % num_hubs (round-robin).
ConferencePlan NegotiateCascade(
    const EndpointCapabilities& forwarder,
    const std::vector<EndpointCapabilities>& participants, int num_hubs,
    std::vector<MembershipEvent> membership = {});

}  // namespace converge
