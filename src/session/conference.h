// Conference runtime: the N-party, topology-driven session layer.
//
// A Conference instantiates N participants on ONE shared EventLoop and wires
// directed media legs between them according to a declarative topology:
//
//   kMesh — full-mesh P2P. Every ordered pair (sender, receiver) gets its
//     own Network plus a complete pipeline (scheduler, FEC controller,
//     Sender, ReceiverEndpoint, MetricsCollector). Modelling a mesh as
//     independent directed legs matches real mesh conferencing, where each
//     peer runs a separate encode + congestion-control loop per remote.
//
//   kStar — SFU-style forwarder hop. Each sending participant runs ONE
//     uplink (Sender + Network to the hub); the hub terminates the uplink
//     congestion-control loop with a feedback-only ReceiverEndpoint (RR,
//     transport feedback, NACK — exactly what a real SFU answers on behalf
//     of receivers) and fans every uplink packet out through one
//     HubForwarder per receiving participant: a congestion-controlled,
//     frame-aware paced queue per (receiver, path) downlink that thins
//     whole frames when a downlink cannot carry the aggregate, answers
//     downlink NACKs from hub history, and relays PLI upstream when a drop
//     breaks a dependency chain (see session/hub_forwarder.h and DESIGN §7).
//     Keyframe requests and Converge QoE feedback remain end-to-end; all
//     other downlink feedback is consumed by the hub. The hub forwards
//     uplink path p onto downlink path p, so all edges of a star must
//     expose the same number of paths.
//
//   A star may additionally be sharded over N regional hubs — a cascaded
//   SFU fabric (DESIGN §10): ConferenceConfig::num_hubs pins every
//   participant to a home hub, directed inter-hub trunks (each a full
//   HubForwarder engine with its own congestion loop and paced queues,
//   traced under "hub_trunk") carry a publisher's media at most once per
//   remote hub, and per-hub fault plans drive mid-call hub failure with
//   deterministic re-homing of the affected participants. num_hubs == 1 is
//   the historical single-star path, bit-for-bit.
//
// Call/CallConfig (session/call.h) are now a thin 2-party adapter over this
// runtime: a 2-participant mesh with one directed leg, constructed in
// exactly the order the historical point-to-point Call used, which keeps its
// results byte-identical (pinned by tests/data fixtures).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/video_aware_scheduler.h"
#include "fec/converge_fec_controller.h"
#include "fec/fec_controller.h"
#include "net/fault_plan.h"
#include "net/network.h"
#include "schedulers/scheduler.h"
#include "session/hub_forwarder.h"
#include "session/metrics.h"
#include "session/receiver_endpoint.h"
#include "session/sender.h"
#include "signaling/negotiation.h"
#include "util/invariants.h"
#include "util/trace_recorder.h"

namespace converge {

// The systems evaluated in §6.
enum class Variant {
  kWebRtcPath0,       // single-path WebRTC on the first path
  kWebRtcPath1,       // single-path WebRTC on the second path
  kWebRtcCm,          // single path + connection migration
  kSrtt,              // minRTT multipath (MPTCP/MPQUIC default)
  kEcf,               // Earliest Completion First (heterogeneity-aware)
  kMtput,             // Musher throughput scheduler
  kMrtp,              // MPRTP
  kConverge,          // full system
  kConvergeNoFeedback,  // ablation: video-aware scheduler, no QoE feedback
  kConvergeWebRtcFec,   // ablation: Converge scheduler + table-based FEC
};

std::string ToString(Variant v);

enum class Topology {
  kMesh,  // full-mesh P2P: one directed leg per ordered participant pair
  kStar,  // SFU-style: per-sender uplink to a forwarder, fan-out downlinks
};

std::string ToString(Topology t);

// Edge id of the star forwarder for ConferenceConfig::paths_for_edge.
inline constexpr int kHubId = -1;

struct ParticipantSpec {
  bool sends = true;
  bool receives = true;
  // Camera streams this participant publishes when it sends.
  int num_streams = 1;
};

struct ConferenceConfig {
  Variant variant = Variant::kConverge;
  Topology topology = Topology::kMesh;
  // N >= 2 participants; when left empty, two duplex participants.
  std::vector<ParticipantSpec> participants;

  // Mid-call membership churn: scheduled join/leave events (sorted by time;
  // signaling/negotiation.h defines the type and ValidateMembership the
  // rules). A participant whose FIRST event is a join is absent at t=0 (a
  // late joiner); everyone else is in the call from the start. A leave tears
  // the participant's legs down (mesh pairs, or star downlink + hub state);
  // a rejoin builds fresh ones under a new SSRC incarnation. Empty = the
  // historical fixed-membership call, byte-identical to before this field
  // existed.
  std::vector<MembershipEvent> membership;

  // Path template instantiated independently for every directed network
  // edge (mesh: sender->receiver pair; star: participant->hub uplink and
  // hub->participant downlink).
  std::vector<PathSpec> paths;
  // Optional per-edge override; `to == kHubId` names an uplink into the
  // forwarder and `from == kHubId` a downlink out of it. Must return the
  // same number of paths for every edge (the hub forwards path p to path p).
  std::function<std::vector<PathSpec>(int from, int to)> paths_for_edge;

  // Per-stream media knobs (identical semantics to the historical
  // CallConfig).
  DataRate max_rate_per_stream = DataRate::MegabitsPerSec(10);
  double fps = 30.0;
  int width = 1280;
  int height = 720;
  Duration duration = Duration::Seconds(180);
  uint64_t seed = 1;
  bool enable_fec = true;
  // Receiver buffer sizing (§2.1 "small, fixed-size buffers").
  size_t packet_buffer_capacity = 512;
  size_t frame_buffer_capacity = 16;
  // Tunables for the Converge variants (design-choice ablations).
  VideoAwareScheduler::Config video_scheduler;
  ConvergeFecController::Config converge_fec;
  // Per-path congestion-control algorithm (every sender path AND every hub
  // downlink and trunk run one instance of it) and the strategy coupling a
  // sender's per-path targets into allocated rates. Defaults preserve the
  // historical uncoupled-GCC behavior byte-for-byte. The hub's forwarding
  // engines take nothing else from the caller: their CC start and max
  // rates derive from the aggregate publisher rate (an SFU starts
  // optimistic and lets delay/loss signals pull a slow downlink back),
  // their NACK flavour follows the variant like the receivers', and their
  // thinning, eviction, rung-selection and padding policy is fixed
  // (session/hub_forwarder.cc).
  CcAlgorithm cc_algorithm = CcAlgorithm::kGcc;
  CcCoupling cc_coupling = CcCoupling::kUncoupled;

  // --- Layered media (simulcast + temporal SVC metadata) -----------------
  // simulcast_rungs > 1 makes every publisher encode that many rungs per
  // capture (video/encoder.h: rung k halves the linear resolution k times)
  // and switches the hub's per-receiver forwarders from whole-frame
  // thinning to per-(origin, stream) rung selection with ALR padding
  // (HubForwarder::Config::layered, set from this field at build time).
  // Requires the star topology AND a Converge-family variant (rung
  // filtering leaves per-SSRC seq gaps that only mp_seq-based per-path
  // NACK tolerates; a mesh receiver would see every rung and mis-assemble);
  // invalid combinations are rejected through the invariant registry and
  // degraded back to single-layer. temporal_layers > 1 stamps dyadic
  // temporal ids on frames (metadata only; no frames are withheld).
  // Defaults (1/1) keep every pipeline byte-identical to the unlayered
  // build. Negotiated over SDP as `a=x-converge-layers:SxT`
  // (signaling/sdp.h); legacy peers fall back to 1x1.
  int simulcast_rungs = 1;
  int temporal_layers = 1;

  // --- Cascaded SFU fabric (star only; DESIGN §10) -----------------------
  // Number of regional hubs the forwarding fabric is sharded over. 1 (the
  // default) is the degenerate single-star case and leaves the historical
  // path untouched bit-for-bit. With k > 1 every participant is pinned to
  // a home hub: its uplink terminates there, media for receivers homed at
  // that hub fans out locally, and media for every other hub crosses
  // exactly one inter-hub trunk before fanning out on the remote hub's
  // downlinks.
  int num_hubs = 1;
  // Per-participant home hub in [0, num_hubs). Empty assigns participant p
  // to hub p % num_hubs (round-robin). Out-of-range pins are rejected via
  // the invariant registry and fall back to round-robin.
  std::vector<int> home_hub;
  // Trunk path template, instantiated for every ordered pair of distinct
  // hubs. Trunks must expose the same number of paths as the star's edges
  // (uplink path p crosses trunk path p onto downlink path p). Empty falls
  // back to `paths`.
  std::vector<PathSpec> trunk_paths;
  // Optional per-trunk override, mirroring paths_for_edge.
  std::function<std::vector<PathSpec>(int from_hub, int to_hub)>
      paths_for_trunk;
  // Per-hub fault plans, indexed by hub id (shorter vectors leave the tail
  // hubs fault-free). Each kOutage window marks the hub DEAD for its
  // duration: its trunks retire and every participant homed there is
  // re-homed to the next alive hub in ring order under a fresh SSRC
  // incarnation (PR 7's detach-don't-destroy machinery). At the window's
  // end the hub rejoins the fabric — trunks are rebuilt so it can serve
  // future re-homings — but participants do not move back.
  std::vector<FaultPlan> hub_fault_plans;

  // Flight-recorder capacity in events; 0 (the default) disables tracing.
  size_t trace_capacity = 0;
};

// What NormalizeConferenceConfig makes of a config.
struct NormalizedConference {
  // The config a Conference builds: defaulted, clamped, rejected fields
  // degraded, the membership timeline sorted (or cleared when invalid) and
  // home_hub resolved to one in-range entry per participant.
  ConferenceConfig config;
  // Every rule the input broke, in check order, as the "Conference"
  // component's violations at t = 0 — exactly what the constructor records
  // through the invariant registry.
  std::vector<InvariantViolation> violations;
};

// The ConferenceConfig contract in one pure function: every check, clamp and
// fallback, run without an EventLoop or the invariant registry. Its output
// config normalizes to itself.
NormalizedConference NormalizeConferenceConfig(ConferenceConfig config);

// Aggregated results of one directed media flow: a whole point-to-point
// Call, or one leg of a Conference.
struct CallStats {
  std::vector<StreamQoe> streams;
  std::vector<SecondSample> time_series;

  // Sender-side counters.
  int64_t media_packets_sent = 0;
  int64_t fec_packets_sent = 0;
  int64_t rtx_packets_sent = 0;
  int64_t frames_encoded = 0;

  // FEC economics (§6): overhead = FEC/media packets sent; utilization =
  // parity packets that actually repaired a loss / parity received.
  double fec_overhead = 0.0;
  double fec_utilization = 0.0;
  int64_t fec_recovered_packets = 0;

  // Receiver totals.
  int64_t total_frame_drops = 0;
  int64_t total_keyframe_requests = 0;

  // Sender lookups that fell behind a sent history's age bound
  // (kSentHistoryHorizon): per-path NACKed seqs and transport-feedback
  // arrivals. Zero while every lookup stays inside the horizon.
  int64_t nack_horizon_misses = 0;
  int64_t feedback_horizon_misses = 0;

  // Convenience aggregates over streams.
  double AvgFps() const;
  double AvgFreezeMs() const;
  double AvgE2eMs() const;
  double TotalTputMbps() const;
  double AvgQp() const;
  double AvgPsnrDb() const;
};

struct ConferenceStats {
  // One entry per directed leg, in construction order (mesh: from-major over
  // ordered pairs; star: same order, legs of one uplink grouped together;
  // churn-created legs follow in join order). Legs retired by a mid-call
  // leave still report, with their stats normalized over [joined_s, left_s).
  struct Leg {
    int from = 0;
    int to = 0;
    // Sender incarnation this leg carried (0 unless `from` rejoined).
    int incarnation = 0;
    // Observation window within the call, seconds. Whole-call legs report
    // [0, duration).
    double joined_s = 0.0;
    double left_s = 0.0;
    CallStats stats;
  };

  // Receive-side QoE aggregated per participant over all inbound legs.
  struct ParticipantQoe {
    int participant = 0;
    int inbound_streams = 0;
    // Seconds this participant was actually in the call (= duration unless
    // it churned). Per-stream rates below are already normalized by each
    // leg's own membership window, so a late joiner's fps is comparable to
    // a full-call participant's.
    double active_s = 0.0;
    double avg_fps = 0.0;
    double avg_freeze_ms = 0.0;
    // Mean frozen fraction of the inbound streams' active windows — the
    // lifetime-fair form of avg_freeze_ms.
    double avg_freeze_ratio = 0.0;
    double avg_e2e_ms = 0.0;
    double total_tput_mbps = 0.0;
    double avg_qp = 0.0;
    double avg_psnr_db = 0.0;
    int64_t frame_drops = 0;
    int64_t keyframe_requests = 0;
  };

  // Star only: final state of one (hub, receiver, path) downlink, keyed by
  // serving hub so the rows stay unambiguous when two hubs served the same
  // receiver across a re-homing. Live forwarders report first in
  // (receiver, path) order (single-hub order unchanged), then forwarders
  // retired by a re-homing in retirement order, tagged with the hub that
  // ran them. Empty for mesh conferences.
  struct Downlink {
    int hub = 0;
    int receiver = 0;
    PathId path = 0;
    double target_kbps = 0.0;
    double srtt_ms = 0.0;
    double loss = 0.0;
    // Layered forwarding only: the deepest rung any of this receiver's
    // subscriptions sits at when the call ends (0 = every stream at the
    // top rung). Stays 0 — and unexported — for single-layer calls.
    int selected_rung = 0;
    // Transport-feedback arrivals the downlink controller's age bound had
    // already dropped (DownlinkCc::horizon_misses).
    int64_t feedback_horizon_misses = 0;
    HubForwarder::DownlinkStats forwarder;
  };

  // Multi-hub only: final state of one inter-hub trunk path, in trunk
  // construction order. A trunk retired by a hub failure still reports,
  // with live = false.
  struct Trunk {
    int from_hub = 0;
    int to_hub = 0;
    PathId path = 0;
    bool live = true;
    double target_kbps = 0.0;
    double srtt_ms = 0.0;
    double loss = 0.0;
    int64_t feedback_batches = 0;
    int64_t packets_registered = 0;
    int64_t feedback_horizon_misses = 0;
    HubForwarder::DownlinkStats forwarder;
  };

  // Multi-hub only: per-hub membership and failover accounting.
  struct Hub {
    int hub = 0;
    bool alive = true;
    int64_t failures = 0;
    // Participants re-homed away from / onto this hub over the call.
    int64_t rehomed_away = 0;
    int64_t rehomed_onto = 0;
    // Present participants homed here at call end.
    int home_participants = 0;
  };

  // One competing cross-traffic flow (net/cross_traffic.h) and its final
  // AIMD state, in construction order. `from`/`to` name the edge whose
  // forward link the flow shared (kHubId = the star hub side).
  struct CrossFlow {
    int from = 0;
    int to = 0;
    PathId path = 0;
    std::string name;
    std::string kind;  // "tcp" | "quic"
    int64_t packets_sent = 0;
    int64_t packets_delivered = 0;
    int64_t packets_dropped = 0;
    int64_t loss_events = 0;
    double throughput_mbps = 0.0;
    double final_cwnd = 0.0;
  };

  std::vector<Leg> legs;
  std::vector<ParticipantQoe> participants;
  std::vector<Downlink> downlinks;
  std::vector<CrossFlow> cross_traffic;
  // Hub-graph shape and state; trunks/hubs stay empty (and unexported) for
  // single-hub conferences, which keeps their stats JSON byte-identical.
  int num_hubs = 1;
  std::vector<Trunk> trunks;
  std::vector<Hub> hubs;
  // Effective layer shape after topology/variant gating (1/1 for
  // single-layer calls, whose stats JSON omits every layer field).
  int simulcast_rungs = 1;
  int temporal_layers = 1;
  // Events scheduled in the past and run at the current time instead
  // (EventLoop::clamped_past_events). Every modelled call keeps it 0; the
  // stats JSON carries it only when nonzero.
  int64_t clamped_past_events = 0;
};

class Conference {
 public:
  // Builds the call NormalizeConferenceConfig(config) describes, after
  // recording its violations through the invariant registry.
  explicit Conference(const ConferenceConfig& config);
  ~Conference();

  // Runs the whole conference; returns per-leg stats plus per-participant
  // QoE aggregates. Equivalent to Start() + AdvanceTo(end) + Collect().
  ConferenceStats Run();

  // Incremental interface for drivers that interleave many conferences on
  // one thread (sim/fleet.h). Start() arms every endpoint; AdvanceTo() runs
  // this conference's loop up to `t` (monotonic across calls — RunUntil(t1)
  // then RunUntil(t2) executes exactly the events RunUntil(t2) would, which
  // is the determinism contract fleet sharding relies on); Collect() gathers
  // the stats once the final AdvanceTo has run.
  void Start();
  void AdvanceTo(Timestamp t);
  ConferenceStats Collect();

  EventLoop& loop() { return loop_; }
  // The conference's flight recorder (nullptr unless trace_capacity > 0).
  TraceRecorder* trace() { return trace_.get(); }

  // Leg introspection, for tests and the 2-party Call adapter. Legs are
  // indexed in construction order (matching ConferenceStats::legs).
  size_t num_legs() const { return legs_.size(); }
  int leg_from(size_t leg) const;
  int leg_to(size_t leg) const;
  const MetricsCollector& leg_metrics(size_t leg) const;
  const Sender& leg_sender(size_t leg) const;
  const ReceiverEndpoint& leg_receiver(size_t leg) const;
  Scheduler& leg_scheduler(size_t leg);
  // Mesh: the pair's network. Star: the origin sender's uplink network.
  const Network& leg_network(size_t leg) const;
  // Star only: the hub's per-receiver forwarding engine (nullptr for mesh
  // or non-receiving participants).
  const HubForwarder* hub_forwarder(int participant) const;
  // Cascade introspection for tests: the participant's current home hub
  // (0 for single-hub stars and meshes) and the live trunk engine between
  // two hubs (nullptr when no live trunk connects them).
  int home_hub(int participant) const;
  const HubForwarder* trunk_engine(int from_hub, int to_hub) const;

 private:
  // Routing graph. Nodes are endpoints (a publisher's Sender, a leg's
  // ReceiverEndpoint, a feedback-only endpoint), hub ingress (a publisher's
  // media arriving at a hub over its uplink or a trunk) and hub egress (a
  // receiver's forwarder or a trunk engine). Edges are one direction of a
  // Network: media and sender reports on forward links, feedback on
  // backward links. Every edge crossing is one WireHop (conference.cc); a
  // single-hub star is the 1-hub cascade, whose trunk set is empty.
  struct Leg;

  // One directed inter-hub trunk (from_hub -> to_hub). The near hub runs a
  // full HubForwarder as the trunk engine (congestion loop traced as
  // "hub_trunk", paced queues, thinning, NACK answering from trunk history)
  // with one egress sequence space per origin crossing it. The far hub
  // terminates the trunk's congestion loop with one feedback-only endpoint
  // per origin (Uplink::trunk_feedback), so trunk feedback never reaches
  // publisher uplink CC or the remote hub's downlink CC.
  struct Trunk {
    int from_hub = 0;
    int to_hub = 0;
    bool live = true;
    std::unique_ptr<Network> network{};
    std::unique_ptr<HubForwarder> engine{};
  };

  // One sending pipeline. Mesh: paired 1:1 with a leg. Star: one per
  // sending participant, fanned out to every receiving leg by the hub.
  //
  // Churn lifetime rule — detach, don't destroy: in-flight link delivery
  // continuations capture raw Uplink*/Leg*/Trunk* pointers and the
  // EventLoop has no event cancellation, so an object built for a
  // participant that later leaves is never destroyed mid-run. It is
  // *retired*: its timers stop, `live` flips false, and every routing hop
  // checks the flag before touching hub state that may have been replaced
  // by a rejoin. Retired objects die with the Conference.
  struct Uplink {
    int from = 0;
    // Mesh: the receiving peer. Star: kHubId.
    int to = 0;
    // SSRC incarnation this uplink publishes under (> 0 after a rejoin or
    // a re-homing).
    int incarnation = 0;
    // Star: the hub this uplink terminates at (the origin's home hub when
    // the uplink was built; a re-homing retires it and builds a fresh one).
    int hub = 0;
    bool live = true;
    std::unique_ptr<Network> network{};
    std::unique_ptr<Scheduler> scheduler{};
    std::unique_ptr<FecController> fec{};
    std::unique_ptr<Sender> sender{};
    // Star only: the feedback-only endpoints terminating the congestion
    // loops this uplink's media crosses — the uplink's own at the home hub,
    // and each trunk's at its far end (in build order). They retire with
    // the uplink; a retired trunk's stay listed, stopped.
    std::unique_ptr<ReceiverEndpoint> hub_feedback{};
    std::vector<std::pair<const Trunk*, std::unique_ptr<ReceiverEndpoint>>>
        trunk_feedback{};
    // Star only: receiving legs fed by this uplink. Retired legs stay
    // listed (in-flight hub deliveries still walk the list) and are
    // skipped via leg->live.
    std::vector<Leg*> fanout{};
  };

  // One directed media flow into a receiving participant.
  struct Leg {
    int from = 0;
    int to = 0;
    int incarnation = 0;
    // Star: the hub serving this leg's receiver when the leg was built.
    // Media reaches it locally when it matches the origin uplink's hub,
    // otherwise across the (uplink->hub -> leg->hub) trunk.
    int hub = 0;
    bool live = true;
    // Membership window: [joined, left). Whole-call legs keep the defaults.
    Timestamp joined = Timestamp::Zero();
    Timestamp left = Timestamp::PlusInfinity();
    Uplink* uplink = nullptr;
    // The last edge into the receiver: the pair network (mesh) or the
    // receiver's hub downlink (star).
    Network* inbound = nullptr;
    std::unique_ptr<MetricsCollector> metrics{};
    std::unique_ptr<ReceiverEndpoint> receiver{};
  };

  // Per-participant membership and routing table (a mesh routes by leg and
  // keeps home_hub at 0).
  struct Route {
    bool present = false;
    int home_hub = 0;
    // Re-homing incarnation bumps, added on top of the membership
    // timeline's leave count so every rebuild gets a fresh, never-reused
    // SSRC bank.
    int rehomings = 0;
    // The live uplink publishing as this participant (null while absent).
    Uplink* uplink = nullptr;
    // Hub -> participant downlink and its forwarder, which runs at
    // home_hub (null while absent or non-receiving).
    std::unique_ptr<Network> downlink;
    std::unique_ptr<HubForwarder> forwarder;
    // Inbound legs indexed by origin, for the forwarder's egress (null
    // where none; a rejoin overwrites the slot).
    std::vector<Leg*> legs_by_origin;
  };

  std::vector<PathSpec> EdgePaths(int from, int to) const;
  // Whether participant p is currently in the call in the given role.
  bool InCall(int p, bool ParticipantSpec::*role) const;
  void BuildMesh(Random& rng);
  void BuildStar(Random& rng);
  void SetInvariantContext();

  // Builders. The initial build calls them with the construction RNG;
  // mid-call joins and re-homings with churn_rng_, in the same phase order.
  Leg* BuildMeshLeg(int from, int to, int incarnation, Random& rng);
  void BuildStarDownlink(int to, Random& rng);
  Uplink* BuildStarUplink(int from, int incarnation, Random& rng);
  Leg* BuildStarLeg(Uplink* up, int to);
  void BuildStarForwarder(int to);
  void BuildTrunk(int from_hub, int to_hub, Random& rng);
  // Pipeline halves shared by the mesh and star builders.
  void BuildSendPipeline(Uplink* up, Leg* mesh_leg, Random& rng,
                         Sender::TransmitRtpFn rtp,
                         Sender::TransmitRtcpFn rtcp);
  void BuildLegMetrics(Leg* leg);
  void BuildLegReceiver(Leg* leg, ReceiverEndpoint::TransmitRtcpFn transmit);
  void CheckPathCount(const Network& net, int from, int to) const;
  // Starts legs_[first_leg..] and uplinks_[first_uplink..] in one order:
  // receivers, hub feedback endpoints, trunk agents (before the call starts
  // only), then senders. Start() arms everything; a join arms what it built.
  void ArmPipelines(size_t first_leg, size_t first_uplink);
  // Far-end feedback endpoint for `up`'s media on trunk `t` (t->from_hub
  // is up->hub), started at once when the call is already running.
  void BuildTrunkAgent(Trunk* t, Uplink* up);
  static ReceiverEndpoint* TrunkAgent(const Uplink& up, const Trunk* t);
  // Feedback-only endpoint terminating one hop's congestion loop for
  // `origin`'s media: answers RR/transport feedback/NACK, never decodes.
  std::unique_ptr<ReceiverEndpoint> BuildFeedbackEndpoint(
      int origin, int incarnation, ReceiverEndpoint::TransmitRtcpFn transmit);
  // Aggregate publisher rate over present senders other than `exclude`,
  // homed at `hub` when hub >= 0: the optimistic start of an egress engine.
  DataRate PublisherRate(int exclude, int hub) const;

  // Routing-graph nodes.
  void RtpToReceiver(Leg* leg, PathId path, RtpPacket packet);
  void RtcpToReceiver(Leg* leg, PathId path, const RtcpPacket& packet);
  void RtcpToPublisher(Uplink* up, bool live, PathId path,
                       const RtcpPacket& packet);
  // Hub ingress: `up`'s media (or sender report) arriving at `hub` over
  // its uplink or a trunk. The feedback endpoint terminating that hop sees
  // media first; then HubFanOut hands it to every live leg served at `hub`
  // and — at the publisher's home hub only — to each trunk toward a hub
  // serving a live leg: at most once per hub, a cascaded SFU's economy.
  void HubIngressRtp(Uplink* up, int hub, ReceiverEndpoint* feedback,
                     PathId path, RtpPacket packet, Timestamp arrival);
  void HubIngressRtcp(Uplink* up, int hub, PathId path,
                      const RtcpPacket& packet);
  template <typename ToLeg, typename ToTrunk>
  void HubFanOut(Uplink* up, int hub, ToLeg to_leg, ToTrunk to_trunk);
  // End-to-end feedback emitted at `hub` for `up`'s publisher: back across
  // the trunk that carried the media when `hub` is remote, then up the
  // uplink's feedback direction.
  void RelayToPublisher(Uplink* up, int hub, PathId path,
                        const RtcpPacket& packet);

  // --- cascaded hub fabric ---
  Trunk* LiveTrunk(int from_hub, int to_hub) const;
  void RetireTrunk(Trunk* t);
  // Hub outage handling, scheduled from hub_fault_plans: FailHub retires
  // the hub's trunks and re-homes every participant homed there to the
  // next alive hub (teardown-all then rebuild-all, so rebuilt legs never
  // reference forwarders about to retire); RecoverHub rebuilds the trunks
  // so the hub can serve future re-homings.
  void FailHub(int hub);
  void RecoverHub(int hub);

  // --- membership churn ---
  void ApplyMembershipEvent(const MembershipEvent& ev);
  void JoinParticipant(int p);
  // Shared teardown for leaves and re-homings: marks p absent, retires its
  // legs, uplink (with its feedback endpoints) and forwarder/downlink slot,
  // and clears the other egress engines' per-origin state. `rehomed` tags
  // the retired forwarder so stats still report its (hub, receiver, path)
  // rows.
  void DetachParticipantPipelines(int p, bool rehomed);

  ConferenceConfig config_;
  EventLoop loop_;
  std::unique_ptr<TraceRecorder> trace_;
  // Indexed by participant; sized once at construction.
  std::vector<Route> routes_;
  // Owned behind unique_ptr so routing callbacks capture pointers that stay
  // stable while churn appends new entries mid-call. Retired entries are
  // kept (never erased): in-flight deliveries may still reference them.
  std::vector<std::unique_ptr<Uplink>> uplinks_;
  std::vector<std::unique_ptr<Leg>> legs_;
  // Star: the downlink network and forwarder of every participant that left
  // or re-homed, kept alive for in-flight continuations. Their cross-traffic
  // flows still report.
  struct RetiredDownlink {
    int hub = 0;
    int receiver = 0;
    // True when retired by a hub-failure re-homing (its forwarder rows are
    // reported in stats); false for churn leaves (unreported, matching the
    // historical JSON).
    bool rehomed = false;
    std::unique_ptr<Network> network;
    std::unique_ptr<HubForwarder> forwarder;
  };
  std::vector<RetiredDownlink> retired_downlinks_;
  // Inter-hub trunks; empty for single-hub stars and meshes.
  std::vector<std::unique_ptr<Trunk>> trunks_;
  // Per-hub liveness and failover accounting (home_participants is filled
  // in at Collect).
  std::vector<ConferenceStats::Hub> hubs_;
  // Churn-time construction draws from a dedicated stream forked after the
  // initial build, so configs without membership events keep the historical
  // RNG sequence bit-for-bit.
  Random churn_rng_{0};
  bool started_ = false;
};

// Runs one independent Conference per config, fanned out across cores (each
// conference owns its EventLoop and seeded Random, so runs are
// embarrassingly parallel), and returns results in input order — identical
// however many workers ran. `jobs` <= 0 uses DefaultJobs(); 1 forces the
// serial fallback.
std::vector<ConferenceStats> RunConferences(
    const std::vector<ConferenceConfig>& configs, int jobs = 0);

}  // namespace converge
