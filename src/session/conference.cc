#include "session/conference.h"

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/invariants.h"
#include "util/parallel.h"

#include "core/video_aware_scheduler.h"
#include "fec/converge_fec_controller.h"
#include "fec/webrtc_fec_controller.h"
#include "rtp/ssrc_allocator.h"
#include "schedulers/connection_migration.h"
#include "schedulers/ecf_scheduler.h"
#include "schedulers/mprtp_scheduler.h"
#include "schedulers/mtput_scheduler.h"
#include "schedulers/single_path.h"
#include "schedulers/srtt_scheduler.h"

namespace converge {

std::string ToString(Variant v) {
  switch (v) {
    case Variant::kWebRtcPath0:
      return "WebRTC(p0)";
    case Variant::kWebRtcPath1:
      return "WebRTC(p1)";
    case Variant::kWebRtcCm:
      return "WebRTC-CM";
    case Variant::kSrtt:
      return "SRTT";
    case Variant::kEcf:
      return "ECF";
    case Variant::kMtput:
      return "M-TPUT";
    case Variant::kMrtp:
      return "M-RTP";
    case Variant::kConverge:
      return "Converge";
    case Variant::kConvergeNoFeedback:
      return "Converge-NoFB";
    case Variant::kConvergeWebRtcFec:
      return "Converge-TblFEC";
  }
  return "?";
}

std::string ToString(Topology t) {
  switch (t) {
    case Topology::kMesh:
      return "mesh";
    case Topology::kStar:
      return "star";
  }
  return "?";
}

namespace {

std::unique_ptr<Scheduler> MakeScheduler(const ConferenceConfig& config) {
  switch (config.variant) {
    case Variant::kWebRtcPath0:
      return std::make_unique<SinglePathScheduler>(0);
    case Variant::kWebRtcPath1:
      return std::make_unique<SinglePathScheduler>(1);
    case Variant::kWebRtcCm:
      return std::make_unique<ConnectionMigrationScheduler>();
    case Variant::kSrtt:
      return std::make_unique<SrttScheduler>();
    case Variant::kEcf:
      return std::make_unique<EcfScheduler>();
    case Variant::kMtput:
      return std::make_unique<MtputScheduler>();
    case Variant::kMrtp:
      return std::make_unique<MprtpScheduler>();
    case Variant::kConverge:
    case Variant::kConvergeNoFeedback:
    case Variant::kConvergeWebRtcFec:
      return std::make_unique<VideoAwareScheduler>(config.video_scheduler);
  }
  // The switch above is exhaustive; only a Variant forged from an
  // out-of-range integer lands here. Scream under the harness, then degrade
  // to single-path so release builds still produce a run.
  CONVERGE_INVARIANT(
      "Conference", Timestamp::MinusInfinity(), false,
      "unknown Variant " +
          std::to_string(static_cast<int>(config.variant)));
  return std::make_unique<SinglePathScheduler>(0);
}

std::unique_ptr<FecController> MakeFec(const ConferenceConfig& config) {
  switch (config.variant) {
    case Variant::kConverge:
    case Variant::kConvergeNoFeedback:
      return std::make_unique<ConvergeFecController>(config.converge_fec);
    case Variant::kWebRtcPath0:
    case Variant::kWebRtcPath1:
    case Variant::kWebRtcCm:
    case Variant::kSrtt:
    case Variant::kEcf:
    case Variant::kMtput:
    case Variant::kMrtp:
    case Variant::kConvergeWebRtcFec:
      // Baselines and the table-FEC ablation use stock WebRTC protection.
      return std::make_unique<WebRtcFecController>();
  }
  CONVERGE_INVARIANT(
      "Conference", Timestamp::MinusInfinity(), false,
      "unknown Variant " +
          std::to_string(static_cast<int>(config.variant)));
  return std::make_unique<WebRtcFecController>();
}

bool QoeFeedbackEnabled(Variant v) {
  return v == Variant::kConverge || v == Variant::kConvergeWebRtcFec;
}

// The per-path sequence spaces (Appendix B RTP extension) exist only on
// Converge endpoints; everything else runs standard SSRC-sequence NACK.
bool HasMultipathRtpExtension(Variant v) {
  return v == Variant::kConverge || v == Variant::kConvergeNoFeedback ||
         v == Variant::kConvergeWebRtcFec;
}

}  // namespace

NormalizedConference NormalizeConferenceConfig(ConferenceConfig config) {
  std::vector<InvariantViolation> violations;
  // `condition` is the rule that must hold, spelled as CONVERGE_INVARIANT
  // would stringify it.
  auto reject = [&violations](const char* condition, std::string detail) {
    violations.push_back({.component = "Conference",
                          .condition = condition,
                          .detail = std::move(detail),
                          .context = {},
                          .at = Timestamp::Zero()});
  };
  if (config.participants.empty()) {
    config.participants = {ParticipantSpec{}, ParticipantSpec{}};
  }
  const int n = static_cast<int>(config.participants.size());
  if (n < 2) {
    reject("n >= 2",
           "conference needs >= 2 participants, got " + std::to_string(n));
  }
  if (n > SsrcAllocator::kMaxParticipantsPerIncarnation) {
    reject("n <= SsrcAllocator::kMaxParticipantsPerIncarnation",
           "too many participants for the SSRC layout: " + std::to_string(n));
  }
  for (const ParticipantSpec& p : config.participants) {
    if (p.num_streams < 1 ||
        p.num_streams > SsrcAllocator::kMaxStreamsPerParticipant) {
      reject("p.num_streams >= 1 && "
             "p.num_streams <= SsrcAllocator::kMaxStreamsPerParticipant",
             "num_streams out of range: " + std::to_string(p.num_streams));
    }
  }
  for (InvariantViolation& v :
       NormalizeMembership("Conference", n, config.membership)) {
    violations.push_back(std::move(v));
  }
  // Hub graph. The cascade is a star concept; a mesh with num_hubs > 1 is
  // degraded to the plain mesh.
  if (config.num_hubs < 1) {
    reject("false",
           "num_hubs must be >= 1, got " + std::to_string(config.num_hubs));
    config.num_hubs = 1;
  }
  if (config.num_hubs > 1 && config.topology != Topology::kStar) {
    reject("false", "multi-hub cascade requires the star topology");
    config.num_hubs = 1;
  }
  const bool pinned = config.home_hub.size() == static_cast<size_t>(n);
  if (!pinned && !config.home_hub.empty()) {
    reject("config_.home_hub.empty() || "
           "config_.home_hub.size() == static_cast<size_t>(n)",
           "home_hub must be empty or have one entry per participant");
  }
  if (config.hub_fault_plans.size() > static_cast<size_t>(config.num_hubs)) {
    reject("false", "more hub fault plans than hubs");
    config.hub_fault_plans.resize(static_cast<size_t>(config.num_hubs));
  }
  // A hub outage re-homes onto another hub; with one hub there is none, so
  // a single-hub plan could only be ignored.
  if (config.num_hubs == 1 &&
      std::any_of(config.hub_fault_plans.begin(),
                  config.hub_fault_plans.end(),
                  [](const FaultPlan& plan) { return !plan.empty(); })) {
    reject("false", "hub fault plans require num_hubs > 1");
    config.hub_fault_plans.clear();
  }
  // Layered media. Simulcast needs (a) the star topology — a mesh receiver
  // would get every rung and the receiver's PacketBuffer keys frames by
  // (stream, frame_id), so two rungs of one capture would collide — and (b)
  // a Converge-family variant: rung filtering leaves per-SSRC `seq` gaps at
  // the hub, which only the multipath extension's per-path (mp_seq-based)
  // NACK machinery tolerates. Invalid combinations degrade to single-layer.
  config.simulcast_rungs = std::max(config.simulcast_rungs, 1);
  config.temporal_layers = std::clamp(config.temporal_layers, 1, 4);
  if (config.simulcast_rungs > HubForwarder::kMaxRungs) {
    reject("false", "simulcast_rungs " +
                        std::to_string(config.simulcast_rungs) +
                        " exceeds the wire/selection limit of " +
                        std::to_string(HubForwarder::kMaxRungs));
    config.simulcast_rungs = HubForwarder::kMaxRungs;
  }
  if (config.simulcast_rungs > 1 && config.topology != Topology::kStar) {
    reject("false", "simulcast requires the star topology");
    config.simulcast_rungs = 1;
  }
  if (config.simulcast_rungs > 1 &&
      !HasMultipathRtpExtension(config.variant)) {
    reject("false",
           "simulcast requires a Converge-family variant (per-path NACK)");
    config.simulcast_rungs = 1;
  }
  // Home hubs: in-range pins stand, everyone else goes round-robin.
  std::vector<int> home_hub(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    int& hub = home_hub[static_cast<size_t>(p)];
    hub = p % config.num_hubs;
    if (!pinned) continue;
    const int pin = config.home_hub[static_cast<size_t>(p)];
    if (pin >= 0 && pin < config.num_hubs) {
      hub = pin;
    } else {
      reject("false", "home_hub[" + std::to_string(p) + "]=" +
                          std::to_string(pin) + " outside [0, " +
                          std::to_string(config.num_hubs) + ")");
    }
  }
  config.home_hub = std::move(home_hub);
  return {std::move(config), std::move(violations)};
}

Conference::Conference(const ConferenceConfig& config) {
  NormalizedConference normalized = NormalizeConferenceConfig(config);
  InvariantRegistry::ReportAll(normalized.violations);
  config_ = std::move(normalized.config);
  const size_t n = config_.participants.size();
  routes_.resize(n);
  for (size_t p = 0; p < n; ++p) {
    routes_[p].home_hub = config_.home_hub[p];
    routes_[p].present =
        MembershipPresentAtStart(static_cast<int>(p), config_.membership);
    routes_[p].legs_by_origin.resize(n);
  }
  for (int h = 0; h < config_.num_hubs; ++h) hubs_.push_back({.hub = h});
  if (config_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceRecorder>(config_.trace_capacity);
  }
  Random rng(config_.seed);
  if (config_.topology == Topology::kMesh) {
    BuildMesh(rng);
  } else {
    BuildStar(rng);
  }
  // Forked last: the initial build above consumes exactly the historical
  // fork sequence, so churn-free configs stay byte-identical.
  churn_rng_ = rng.Fork();
}

Conference::~Conference() = default;

std::vector<PathSpec> Conference::EdgePaths(int from, int to) const {
  return config_.paths_for_edge ? config_.paths_for_edge(from, to)
                                : config_.paths;
}

namespace {

Sender::Config MakeSenderConfig(const ConferenceConfig& config,
                                int participant, int incarnation) {
  const ParticipantSpec& spec =
      config.participants[static_cast<size_t>(participant)];
  Sender::Config sconf;
  for (int i = 0; i < spec.num_streams; ++i) {
    Sender::StreamConfig sc;
    sc.ssrc = SsrcAllocator::StreamSsrc(participant, i, incarnation);
    sc.camera.stream_id = i;
    sc.camera.fps = config.fps;
    sc.camera.width = config.width;
    sc.camera.height = config.height;
    sc.encoder.max_rate = config.max_rate_per_stream;
    sc.encoder.simulcast_rungs = config.simulcast_rungs;
    sc.encoder.temporal_layers = config.temporal_layers;
    if (config.simulcast_rungs > 1) {
      // Layered mode moves the resolution choice to the hub's per-receiver
      // rung selection; the sender-side adaptive ladder would fight it.
      sc.encoder.adapt_resolution = false;
    }
    sconf.streams.push_back(sc);
  }
  sconf.max_total_rate =
      config.max_rate_per_stream * static_cast<int64_t>(spec.num_streams);
  sconf.cc.algorithm = config.cc_algorithm;
  sconf.cc.max_rate = sconf.max_total_rate * 2;
  sconf.cc_coupling = config.cc_coupling;
  sconf.enable_fec = config.enable_fec;
  sconf.per_path_nack = HasMultipathRtpExtension(config.variant);
  return sconf;
}

// Receiver-side subscription to `from`'s published streams. `subscribe` is
// false for the star hub's feedback-only endpoint: it answers RR/transport
// feedback/NACK for the uplink but never decodes media.
ReceiverEndpoint::Config MakeReceiverConfig(const ConferenceConfig& config,
                                            int from, int incarnation,
                                            bool subscribe) {
  ReceiverEndpoint::Config rconf;
  if (subscribe) {
    const ParticipantSpec& spec =
        config.participants[static_cast<size_t>(from)];
    for (int i = 0; i < spec.num_streams; ++i) {
      rconf.ssrcs.push_back(SsrcAllocator::StreamSsrc(from, i, incarnation));
    }
  }
  rconf.stream_template.packet_buffer.capacity_packets =
      config.packet_buffer_capacity;
  rconf.stream_template.frame_buffer.capacity_frames =
      config.frame_buffer_capacity;
  rconf.stream_template.enable_qoe_feedback =
      QoeFeedbackEnabled(config.variant);
  rconf.per_path_nack = HasMultipathRtpExtension(config.variant);
  return rconf;
}

MetricsCollector::Config MakeMetricsConfig(const ConferenceConfig& config,
                                          int from) {
  MetricsCollector::Config mconf;
  mconf.num_streams =
      config.participants[static_cast<size_t>(from)].num_streams;
  mconf.expected_frame_interval = Duration::Seconds(1.0 / config.fps);
  return mconf;
}

// An egress engine (receiver forwarder or trunk) starts optimistic — at the
// aggregate publisher rate it would have to carry — and lets its own
// delay/loss feedback pull a constrained link down. It answers the NACK
// flavour the call's receivers send.
HubForwarder::Config EgressConfig(const ConferenceConfig& config,
                                  DataRate start,
                                  const char* trace_component) {
  HubForwarder::Config conf;
  conf.per_path_nack = HasMultipathRtpExtension(config.variant);
  conf.cc.algorithm = config.cc_algorithm;
  conf.cc.start_rate = start;
  conf.cc.max_rate = start * 2;
  conf.cc.trace_component = trace_component;
  return conf;
}

// A membership or hub-fabric event on the "conference" trace track; `id`
// names the participant or hub.
void TraceConferenceEvent(const char* name, Timestamp at, int id) {
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Instant("conference", name, at, static_cast<double>(id));
  }
}

// The arrival half of one wire hop: enters the next node on behalf of
// `participant`, handing it the payload that crossed the wire.
template <typename Payload, typename Next>
struct HopArrival {
  Payload payload;
  Next next;
  int participant;
  void operator()(Timestamp arrival) {
    TraceParticipantScope scope(participant);
    next(std::move(payload), arrival);
  }
};

// One wire hop of the routing graph: puts `packet` on `link` and, on
// arrival, continues into the next node. Nothing goes on the wire once the
// sending side is retired (`live` false). Duplication faults clone media
// here — the link only sees bytes and an opaque move-only continuation, so
// it cannot copy a packet itself. Feedback is never duplicated: the
// duplication draw consumes RNG and is made for media only.
template <typename Payload, typename Next>
void WireHop(Link& link, bool live, int participant, Payload packet,
             Next next) {
  using Arrival = HopArrival<Payload, Next>;
  // InlineFunction's inline-storage condition: a continuation that failed
  // it would cost a heap allocation per packet.
  static_assert(sizeof(Arrival) <= Link::kDeliverInlineBytes &&
                    alignof(Arrival) <= alignof(std::max_align_t) &&
                    std::is_nothrow_move_constructible_v<Arrival>,
                "hop continuation does not fit Link's inline buffer");
  if (!live) return;
  const int64_t wire_bytes = packet.wire_size();
  if constexpr (std::is_same_v<Payload, RtpPacket>) {
    for (int copy = link.SendCopies(); copy > 1; --copy) {
      link.Send(wire_bytes, Arrival{packet, next, participant});
    }
  }
  link.Send(wire_bytes,
            Arrival{std::move(packet), std::move(next), participant});
}

// Appends to an owning list whose entries keep their address for life.
template <typename T>
T* Append(std::vector<std::unique_ptr<T>>& list, T value) {
  return list.emplace_back(std::make_unique<T>(std::move(value))).get();
}

}  // namespace

// The sending half of a pipeline, attributed to its publisher: network
// fork, scheduler, FEC, then the Sender's fork. A mesh leg builds its
// receiver's metrics in between, as the historical Call did.
void Conference::BuildSendPipeline(Uplink* up, Leg* mesh_leg, Random& rng,
                                   Sender::TransmitRtpFn rtp,
                                   Sender::TransmitRtcpFn rtcp) {
  TraceParticipantScope scope(up->from);
  up->network = std::make_unique<Network>(
      &loop_, EdgePaths(up->from, up->to), rng.Fork());
  up->scheduler = MakeScheduler(config_);
  up->fec = MakeFec(config_);
  if (mesh_leg != nullptr) BuildLegMetrics(mesh_leg);
  up->sender = std::make_unique<Sender>(
      &loop_, MakeSenderConfig(config_, up->from, up->incarnation),
      up->scheduler.get(), up->fec.get(), up->network->path_ids(), rng.Fork(),
      std::move(rtp), std::move(rtcp));
}

void Conference::BuildLegMetrics(Leg* leg) {
  TraceParticipantScope scope(leg->to);
  leg->metrics = std::make_unique<MetricsCollector>(
      &loop_, MakeMetricsConfig(config_, leg->from));
}

void Conference::BuildLegReceiver(Leg* leg,
                                  ReceiverEndpoint::TransmitRtcpFn transmit) {
  TraceParticipantScope scope(leg->to);
  leg->receiver = std::make_unique<ReceiverEndpoint>(
      &loop_,
      MakeReceiverConfig(config_, leg->from, leg->incarnation,
                         /*subscribe=*/true),
      leg->metrics.get(), std::move(transmit));
}

// One full pipeline for the ordered pair (from, to), built in exactly the
// order the historical point-to-point Call used (network fork, scheduler,
// FEC, metrics, sender fork, receiver) — with one sending participant and
// one receiving participant this IS the old Call, RNG stream and event
// schedule included, which is what keeps the 2-party adapter byte-identical.
Conference::Leg* Conference::BuildMeshLeg(int from, int to, int incarnation,
                                          Random& rng) {
  Uplink* up = Append(uplinks_, Uplink{.from = from, .to = to,
                                       .incarnation = incarnation});
  Leg* leg = Append(legs_, Leg{.from = from, .to = to,
                               .incarnation = incarnation,
                               .joined = loop_.now(), .uplink = up});
  BuildSendPipeline(
      up, leg, rng,
      [this, leg](PathId path, RtpPacket packet) {
        RtpToReceiver(leg, path, std::move(packet));
      },
      [this, leg](PathId path, const RtcpPacket& packet) {
        RtcpToReceiver(leg, path, packet);
      });
  leg->inbound = up->network.get();
  BuildLegReceiver(leg, [this, leg](PathId path, const RtcpPacket& packet) {
    RtcpToPublisher(leg->uplink, leg->live, path, packet);
  });
  return leg;
}

bool Conference::InCall(int p, bool ParticipantSpec::*role) const {
  return routes_[static_cast<size_t>(p)].present &&
         config_.participants[static_cast<size_t>(p)].*role;
}

void Conference::BuildMesh(Random& rng) {
  const int n = static_cast<int>(config_.participants.size());
  for (int from = 0; from < n; ++from) {
    if (!InCall(from, &ParticipantSpec::sends)) continue;
    for (int to = 0; to < n; ++to) {
      if (to != from && InCall(to, &ParticipantSpec::receives)) {
        BuildMeshLeg(from, to, /*incarnation=*/0, rng);
      }
    }
  }
}

// Hub->participant downlink network, shared by every stream forwarded to
// that participant.
void Conference::BuildStarDownlink(int to, Random& rng) {
  TraceParticipantScope scope(to);
  routes_[static_cast<size_t>(to)].downlink =
      std::make_unique<Network>(&loop_, EdgePaths(kHubId, to), rng.Fork());
}

std::unique_ptr<ReceiverEndpoint> Conference::BuildFeedbackEndpoint(
    int origin, int incarnation, ReceiverEndpoint::TransmitRtcpFn transmit) {
  return std::make_unique<ReceiverEndpoint>(
      &loop_,
      MakeReceiverConfig(config_, origin, incarnation, /*subscribe=*/false),
      /*metrics=*/nullptr, std::move(transmit));
}

// Per-sender uplink: pipeline into the hub plus the hub-side endpoint that
// terminates the uplink congestion-control loop.
Conference::Uplink* Conference::BuildStarUplink(int from, int incarnation,
                                                Random& rng) {
  Route& route = routes_[static_cast<size_t>(from)];
  Uplink* up = Append(uplinks_, Uplink{.from = from, .to = kHubId,
                                       .incarnation = incarnation,
                                       .hub = route.home_hub});
  route.uplink = up;
  TraceParticipantScope scope(from);
  BuildSendPipeline(
      up, /*mesh_leg=*/nullptr, rng,
      [this, up](PathId path, RtpPacket packet) {
        WireHop(up->network->path(path).forward(), up->live, up->from,
                std::move(packet),
                [this, up, path](RtpPacket p, Timestamp arrival) {
                  HubIngressRtp(up, up->hub, up->hub_feedback.get(), path,
                                std::move(p), arrival);
                });
      },
      [this, up](PathId path, const RtcpPacket& packet) {
        WireHop(up->network->path(path).forward(), up->live, up->from, packet,
                [this, up, path](const RtcpPacket& p, Timestamp arrival) {
                  up->hub_feedback->OnRtcpPacket(p, arrival, path);
                  HubIngressRtcp(up, up->hub, path, p);
                });
      });
  up->hub_feedback = BuildFeedbackEndpoint(
      from, incarnation, [this, up](PathId path, const RtcpPacket& p) {
        RtcpToPublisher(up, /*live=*/true, path, p);
      });
  CheckPathCount(*up->network, from, kHubId);
  // Mid-call builds (joins, re-homings) register with the trunks already
  // leaving this hub; the initial build has no trunks yet — BuildTrunk
  // registers the existing uplinks itself.
  for (auto& t : trunks_) {
    if (t->live && t->from_hub == up->hub) BuildTrunkAgent(t.get(), up);
  }
  return up;
}

// The hub forwards path p across every hop, so an uplink (`to` == kHubId)
// or an inter-hub trunk must expose as many paths as every downlink.
// Stamped with the build time: joins and re-homings build mid-call.
void Conference::CheckPathCount(const Network& net, int from, int to) const {
  for (size_t p = 0; p < routes_.size(); ++p) {
    const Network* down = routes_[p].downlink.get();
    CONVERGE_INVARIANT(
        "Conference", loop_.now(),
        down == nullptr || down->num_paths() == net.num_paths(),
        (to == kHubId ? "star edge path-count mismatch: uplink " +
                            std::to_string(from) + " has "
                      : "trunk " + std::to_string(from) + "->" +
                            std::to_string(to) +
                            " path-count mismatch: trunk has ") +
            std::to_string(net.num_paths()) + ", downlink " +
            std::to_string(p) + " has " +
            std::to_string(down == nullptr ? 0 : down->num_paths()));
  }
}

// Receiving leg: per (sender, receiver) metrics + receive pipeline,
// registered with the sender's uplink for hub fan-out.
Conference::Leg* Conference::BuildStarLeg(Uplink* up, int to) {
  Route& route = routes_[static_cast<size_t>(to)];
  Leg* leg = Append(legs_, Leg{.from = up->from, .to = to,
                               .incarnation = up->incarnation,
                               .hub = route.home_hub, .joined = loop_.now(),
                               .uplink = up,
                               .inbound = route.downlink.get()});
  BuildLegMetrics(leg);
  BuildLegReceiver(leg, [this, leg](PathId path, const RtcpPacket& packet) {
    // Receiver -> hub on the downlink's feedback direction. The forwarder
    // consumes transport feedback and receiver reports (its downlink
    // congestion loop) and answers NACKs from hub history; the origin's CC
    // never sees downlink feedback. Only keyframe requests (the origin owns
    // the encoder) and Converge QoE feedback (it owns the scheduler split)
    // travel on.
    WireHop(leg->inbound->path(path).backward(), leg->live, leg->to, packet,
            [this, leg, path](const RtcpPacket& p, Timestamp) {
              // The leg may have been retired while this feedback was in
              // flight; its forwarder slot may belong to a rejoin.
              if (!leg->live) return;
              if (routes_[static_cast<size_t>(leg->to)]
                      .forwarder->OnReceiverRtcp(leg->from, path, p)) {
                return;
              }
              if (std::holds_alternative<KeyframeRequest>(p.payload) ||
                  std::holds_alternative<QoeFeedback>(p.payload)) {
                RelayToPublisher(leg->uplink, leg->hub, path, p);
              }
            });
  });
  up->fanout.push_back(leg);
  route.legs_by_origin[static_cast<size_t>(up->from)] = leg;
  return leg;
}

DataRate Conference::PublisherRate(int exclude, int hub) const {
  DataRate rate = DataRate::Zero();
  for (size_t p = 0; p < routes_.size(); ++p) {
    const ParticipantSpec& spec = config_.participants[p];
    if (static_cast<int>(p) == exclude || !routes_[p].present ||
        !spec.sends || (hub >= 0 && routes_[p].home_hub != hub)) {
      continue;
    }
    rate = rate +
           config_.max_rate_per_stream * static_cast<int64_t>(spec.num_streams);
  }
  return rate;
}

// Per-receiver forwarding engine.
void Conference::BuildStarForwarder(int to) {
  Route& route = routes_[static_cast<size_t>(to)];
  // Aggregated over currently-present senders (= all senders when
  // membership is static).
  HubForwarder::Config hconf =
      EgressConfig(config_, PublisherRate(/*exclude=*/to, /*hub=*/-1),
                   HubTraceComponent(config_.cc_algorithm));
  // Receiver-facing engines run rung selection whenever the conference is
  // layered.
  hconf.layered = config_.simulcast_rungs > 1;
  // Hub work on this receiver's downlinks is attributed to the receiver,
  // like the downlink delivery callbacks.
  TraceParticipantScope scope(to);
  route.forwarder = std::make_unique<HubForwarder>(
      &loop_, hconf, route.downlink->path_ids(),
      [this, to](int from, PathId path, RtpPacket packet) {
        // A retired leg's forwarder is stopped with it, but a packet can be
        // in flight through the hub when the receiver leaves.
        Leg* leg = routes_[static_cast<size_t>(to)]
                       .legs_by_origin[static_cast<size_t>(from)];
        if (leg != nullptr) RtpToReceiver(leg, path, std::move(packet));
      },
      [this, to](int from, uint32_t ssrc, PathId path) {
        if (Uplink* up = routes_[static_cast<size_t>(from)].uplink) {
          RelayToPublisher(up, routes_[static_cast<size_t>(to)].home_hub,
                           path, RtcpPacket{path, KeyframeRequest{ssrc}});
        }
      });
}

void Conference::BuildStar(Random& rng) {
  const int n = static_cast<int>(config_.participants.size());
  for (int to = 0; to < n; ++to) {
    if (InCall(to, &ParticipantSpec::receives)) BuildStarDownlink(to, rng);
  }
  for (int from = 0; from < n; ++from) {
    if (InCall(from, &ParticipantSpec::sends)) {
      BuildStarUplink(from, /*incarnation=*/0, rng);
    }
  }
  for (auto& up : uplinks_) {
    for (int to = 0; to < n; ++to) {
      if (to != up->from && InCall(to, &ParticipantSpec::receives)) {
        BuildStarLeg(up.get(), to);
      }
    }
  }
  for (int to = 0; to < n; ++to) {
    if (InCall(to, &ParticipantSpec::receives)) BuildStarForwarder(to);
  }
  // Trunks are built last — after every single-hub phase — so the RNG fork
  // sequence up to here is the historical one; a single hub has none.
  for (int a = 0; a < config_.num_hubs; ++a) {
    for (int b = 0; b < config_.num_hubs; ++b) {
      if (a != b) BuildTrunk(a, b, rng);
    }
  }
}

Conference::Trunk* Conference::LiveTrunk(int from_hub, int to_hub) const {
  for (const auto& t : trunks_) {
    if (t->live && t->from_hub == from_hub && t->to_hub == to_hub) {
      return t.get();
    }
  }
  return nullptr;
}

void Conference::BuildTrunk(int from_hub, int to_hub, Random& rng) {
  Trunk* t = Append(trunks_, Trunk{.from_hub = from_hub, .to_hub = to_hub});
  t->network = std::make_unique<Network>(
      &loop_,
      config_.paths_for_trunk ? config_.paths_for_trunk(from_hub, to_hub)
      : config_.trunk_paths.empty() ? config_.paths
                                    : config_.trunk_paths,
      rng.Fork());
  CheckPathCount(*t->network, from_hub, to_hub);
  // Starts at the aggregate rate of the publishers homed at the near hub.
  DataRate aggregate = PublisherRate(/*exclude=*/-1, from_hub);
  if (aggregate.bps() == 0) aggregate = config_.max_rate_per_stream;
  // A trunk is never layered: it must carry EVERY rung, because the remote
  // hub's per-receiver engines make their own selections.
  HubForwarder::Config tconf = EgressConfig(config_, aggregate, "hub_trunk");
  tconf.trace_category = "hub_trunk";
  t->engine = std::make_unique<HubForwarder>(
      &loop_, tconf, t->network->path_ids(),
      [this, t](int origin, PathId path, RtpPacket packet) {
        WireHop(t->network->path(path).forward(), t->live, origin,
                std::move(packet),
                [this, t, origin, path](RtpPacket p, Timestamp arrival) {
                  if (!t->live) return;
                  // Far-hub ingress. Nothing fans out when the origin left or
                  // re-homed while this packet crossed: its fresh uplink
                  // publishes under a new incarnation, and the remote
                  // forwarders' state for the old one has been reset.
                  Uplink* up = routes_[static_cast<size_t>(origin)].uplink;
                  if (up != nullptr && up->hub != t->from_hub) up = nullptr;
                  HubIngressRtp(up, t->to_hub,
                                up == nullptr ? nullptr : TrunkAgent(*up, t),
                                path, std::move(p), arrival);
                });
      },
      [this, t](int origin, uint32_t ssrc, PathId path) {
        // Trunk thinning broke a dependency chain: chase the keyframe all
        // the way to the origin publisher.
        if (!t->live) return;
        if (Uplink* up = routes_[static_cast<size_t>(origin)].uplink) {
          RtcpToPublisher(up, /*live=*/true, path,
                          RtcpPacket{path, KeyframeRequest{ssrc}});
        }
      });
  for (auto& up : uplinks_) {
    if (up->live && up->hub_feedback != nullptr && up->hub == from_hub) {
      BuildTrunkAgent(t, up.get());
    }
  }
}

void Conference::BuildTrunkAgent(Trunk* t, Uplink* up) {
  const int origin = up->from;
  TraceParticipantScope scope(origin);
  auto agent = BuildFeedbackEndpoint(
      origin, up->incarnation,
      [t, origin](PathId path, const RtcpPacket& packet) {
        WireHop(t->network->path(path).backward(), t->live, origin, packet,
                [t, origin, path](const RtcpPacket& p, Timestamp) {
                  // Live or not, trunk feedback terminates HERE — it never
                  // reaches the publisher's uplink CC or the remote hub's
                  // downlink CC.
                  if (t->live) t->engine->OnReceiverRtcp(origin, path, p);
                });
      });
  if (started_) agent->Start();
  up->trunk_feedback.emplace_back(t, std::move(agent));
}

ReceiverEndpoint* Conference::TrunkAgent(const Uplink& up, const Trunk* t) {
  for (const auto& [trunk, agent] : up.trunk_feedback) {
    if (trunk == t) return agent.get();
  }
  return nullptr;
}

void Conference::RetireTrunk(Trunk* t) {
  if (!t->live) return;
  t->live = false;
  t->engine->Stop();
  for (auto& up : uplinks_) {
    if (ReceiverEndpoint* agent = TrunkAgent(*up, t)) agent->Stop();
  }
}

void Conference::RtpToReceiver(Leg* leg, PathId path, RtpPacket packet) {
  // Retired legs keep their pipelines alive (in-flight continuations) but
  // put nothing new on the wire.
  WireHop(leg->inbound->path(path).forward(), leg->live, leg->to,
          std::move(packet), [leg, path](RtpPacket p, Timestamp arrival) {
            leg->receiver->OnRtpPacket(std::move(p), arrival, path);
          });
}

void Conference::RtcpToReceiver(Leg* leg, PathId path,
                                const RtcpPacket& packet) {
  WireHop(leg->inbound->path(path).forward(), leg->live, leg->to, packet,
          [leg, path](const RtcpPacket& p, Timestamp arrival) {
            leg->receiver->OnRtcpPacket(p, arrival, path);
          });
}

void Conference::RtcpToPublisher(Uplink* up, bool live, PathId path,
                                 const RtcpPacket& packet) {
  WireHop(up->network->path(path).backward(), live, up->from, packet,
          [up](const RtcpPacket& p, Timestamp arrival) {
            up->sender->HandleRtcp(p, arrival);
          });
}

template <typename ToLeg, typename ToTrunk>
void Conference::HubFanOut(Uplink* up, int hub, ToLeg to_leg,
                           ToTrunk to_trunk) {
  auto serves = [up](int h) {
    return std::any_of(up->fanout.begin(), up->fanout.end(),
                       [h](Leg* leg) { return leg->live && leg->hub == h; });
  };
  for (Leg* leg : up->fanout) {
    if (leg->live && leg->hub == hub) to_leg(leg);
  }
  if (hub != up->hub) return;
  // A live trunk implies both of its hubs are alive.
  for (auto& t : trunks_) {
    if (t->live && t->from_hub == hub && serves(t->to_hub)) to_trunk(t.get());
  }
}

void Conference::HubIngressRtp(Uplink* up, int hub,
                               ReceiverEndpoint* feedback, PathId path,
                               RtpPacket packet, Timestamp arrival) {
  // Like a real SFU's per-publisher transport context.
  if (feedback != nullptr) feedback->OnRtpPacket(packet, arrival, path);
  if (up == nullptr) return;
  // Uplink path p -> downlink path p (equal path counts, checked at build).
  // The forwarder owns the downlink pacing/drop decisions.
  HubFanOut(
      up, hub,
      [&](Leg* leg) {
        TraceParticipantScope scope(leg->to);
        routes_[static_cast<size_t>(leg->to)].forwarder->OnMediaFromUplink(
            up->from, path, RtpPacket(packet));
      },
      [&](Trunk* t) {
        t->engine->OnMediaFromUplink(up->from, path, RtpPacket(packet));
      });
}

void Conference::HubIngressRtcp(Uplink* up, int hub, PathId path,
                                const RtcpPacket& packet) {
  HubFanOut(
      up, hub, [&](Leg* leg) { RtcpToReceiver(leg, path, packet); },
      [&](Trunk* t) {
        WireHop(t->network->path(path).forward(), /*live=*/true, up->from,
                packet, [this, t, up, path](const RtcpPacket& p, Timestamp) {
                  if (t->live && up->live) {
                    HubIngressRtcp(up, t->to_hub, path, p);
                  }
                });
      });
}

void Conference::RelayToPublisher(Uplink* up, int hub, PathId path,
                                  const RtcpPacket& packet) {
  if (hub == up->hub) {
    RtcpToPublisher(up, /*live=*/true, path, packet);
    return;
  }
  Trunk* t = LiveTrunk(up->hub, hub);
  if (t == nullptr) return;
  WireHop(t->network->path(path).backward(), /*live=*/true, up->from, packet,
          [this, t, up, path](const RtcpPacket& p, Timestamp) {
            if (t->live && up->live) RtcpToPublisher(up, true, path, p);
          });
}

void Conference::FailHub(int hub) {
  ConferenceStats::Hub& state = hubs_[static_cast<size_t>(hub)];
  if (!state.alive) return;
  state.alive = false;
  ++state.failures;
  TraceConferenceEvent("hub_fail", loop_.now(), hub);
  for (auto& t : trunks_) {
    if (t->live && (t->from_hub == hub || t->to_hub == hub)) {
      RetireTrunk(t.get());
    }
  }
  // Re-home onto the next alive hub in ring order.
  int fallback = -1;
  for (int step = 1; step < config_.num_hubs && fallback < 0; ++step) {
    const int h = (hub + step) % config_.num_hubs;
    if (hubs_[static_cast<size_t>(h)].alive) fallback = h;
  }
  CONVERGE_INVARIANT("Conference", loop_.now(), fallback >= 0,
                     "hub " + std::to_string(hub) +
                         " failed with no alive hub to re-home onto");
  if (fallback < 0) return;
  std::vector<int> affected;
  for (size_t p = 0; p < routes_.size(); ++p) {
    if (routes_[p].present && routes_[p].home_hub == hub) {
      affected.push_back(static_cast<int>(p));
    }
  }
  // Teardown-all first, then rebuild-all: a rebuilt participant's legs must
  // never be wired against a forwarder or uplink that the next teardown in
  // the batch is about to retire. The whole batch is marked absent for the
  // rebuild so each JoinParticipant wires only pairs whose far side is
  // already rebuilt — exactly a batch of simultaneous rejoins; a leg toward
  // a torn-down peer would capture its null downlink slot.
  for (int p : affected) {
    TraceParticipantScope scope(p);
    DetachParticipantPipelines(p, /*rehomed=*/true);
  }
  for (int p : affected) {
    routes_[static_cast<size_t>(p)].home_hub = fallback;
    ++routes_[static_cast<size_t>(p)].rehomings;
    ++state.rehomed_away;
    ++hubs_[static_cast<size_t>(fallback)].rehomed_onto;
  }
  for (int p : affected) {
    TraceParticipantScope scope(p);
    JoinParticipant(p);
    TraceConferenceEvent("rehome", loop_.now(), p);
  }
}

void Conference::RecoverHub(int hub) {
  if (hubs_[static_cast<size_t>(hub)].alive) return;
  hubs_[static_cast<size_t>(hub)].alive = true;
  TraceConferenceEvent("hub_recover", loop_.now(), hub);
  // Rebuild the trunks so the hub can serve future re-homings; participants
  // re-homed away do not move back.
  for (int other = 0; other < config_.num_hubs; ++other) {
    if (other == hub || !hubs_[static_cast<size_t>(other)].alive) continue;
    if (LiveTrunk(hub, other) == nullptr) BuildTrunk(hub, other, churn_rng_);
    if (LiveTrunk(other, hub) == nullptr) BuildTrunk(other, hub, churn_rng_);
  }
}

void Conference::DetachParticipantPipelines(int p, bool rehomed) {
  for (auto& leg : legs_) {
    if (!leg->live || (leg->from != p && leg->to != p)) continue;
    leg->live = false;
    leg->left = loop_.now();
    leg->receiver->Stop();
    leg->metrics->Stop();
  }
  for (auto& up : uplinks_) {
    if (!up->live || up->from != p) continue;
    up->live = false;
    up->sender->Stop();
    if (up->hub_feedback != nullptr) up->hub_feedback->Stop();
    for (auto& [trunk, agent] : up->trunk_feedback) agent->Stop();
  }
  Route& route = routes_[static_cast<size_t>(p)];
  route.present = false;
  route.uplink = nullptr;

  // Hub-side teardown. The forwarder and downlink network of the leaver are
  // moved to the retired list (in-flight continuations may still reference
  // them) and their slots cleared so a rejoin rebuilds fresh ones; the
  // remaining receivers' forwarders and the trunk engines drop the leaver's
  // queued media and forget its egress/gate/RTX state so a rejoin (fresh
  // incarnation, new SSRCs) never inherits stamp counters from the previous
  // life.
  if (route.downlink != nullptr) {
    route.forwarder->Stop();
    retired_downlinks_.push_back({route.home_hub, p, rehomed,
                                  std::move(route.downlink),
                                  std::move(route.forwarder)});
  }
  for (size_t q = 0; q < routes_.size(); ++q) {
    if (routes_[q].forwarder != nullptr) routes_[q].forwarder->ResetOrigin(p);
    route.legs_by_origin[q] = nullptr;
    routes_[q].legs_by_origin[static_cast<size_t>(p)] = nullptr;
  }
  for (auto& t : trunks_) t->engine->ResetOrigin(p);
}

void Conference::JoinParticipant(int p) {
  const Timestamp now = loop_.now();
  routes_[static_cast<size_t>(p)].present = true;
  const int n = static_cast<int>(config_.participants.size());
  const ParticipantSpec& spec = config_.participants[static_cast<size_t>(p)];
  // Incarnation = membership-timeline leave count + re-homing bumps, so
  // every rebuild (rejoin OR re-home) publishes under a fresh, never-reused
  // SSRC bank.
  auto incarnation = [&](int q) {
    return MembershipIncarnationAt(q, now, config_.membership) +
           routes_[static_cast<size_t>(q)].rehomings;
  };
  const size_t first_leg = legs_.size();
  const size_t first_uplink = uplinks_.size();

  if (config_.topology == Topology::kMesh) {
    // Mesh semantics: every directed pair runs its own encode loop, so the
    // join creates full pipelines both ways — p toward every present
    // receiver, and every present sender toward p (under the *sender's*
    // current incarnation; its other legs keep their own networks, so SSRC
    // spaces never mix).
    for (int q = 0; q < n; ++q) {
      if (spec.sends && q != p && InCall(q, &ParticipantSpec::receives)) {
        BuildMeshLeg(p, q, incarnation(p), churn_rng_);
      }
    }
    for (int q = 0; q < n; ++q) {
      if (spec.receives && q != p && InCall(q, &ParticipantSpec::sends)) {
        BuildMeshLeg(q, p, incarnation(q), churn_rng_);
      }
    }
  } else {
    // Star: mirror the constructor's phase order for this one participant —
    // downlink, uplink (path counts re-checked), legs, forwarder.
    if (spec.receives) BuildStarDownlink(p, churn_rng_);
    if (spec.sends) {
      Uplink* up = BuildStarUplink(p, incarnation(p), churn_rng_);
      for (int q = 0; q < n; ++q) {
        if (q != p && InCall(q, &ParticipantSpec::receives)) {
          BuildStarLeg(up, q);
        }
      }
    }
    if (spec.receives) {
      // One inbound leg per live publisher, in uplink construction order.
      for (auto& up : uplinks_) {
        if (up->live && up->from != p) BuildStarLeg(up.get(), p);
      }
      BuildStarForwarder(p);
    }
  }
  ArmPipelines(first_leg, first_uplink);
}

void Conference::ApplyMembershipEvent(const MembershipEvent& ev) {
  TraceParticipantScope scope(ev.participant);
  const bool join = ev.kind == MembershipEvent::Kind::kJoin;
  if (join) {
    JoinParticipant(ev.participant);
  } else {
    DetachParticipantPipelines(ev.participant, /*rehomed=*/false);
  }
  TraceConferenceEvent(join ? "join" : "leave", loop_.now(), ev.participant);
}

namespace {

CallStats CollectLegStats(int num_streams, MetricsCollector* metrics,
                          const Sender& sender,
                          const ReceiverEndpoint& receiver,
                          Timestamp window_start, Timestamp window_end) {
  CallStats out;
  int64_t fec_received = 0;
  int64_t fec_used = 0;
  for (int i = 0; i < num_streams; ++i) {
    const auto rx_stats = receiver.stream(i).GetStats();
    metrics->SetReceiverCounters(i, rx_stats.FrameDrops(),
                                 rx_stats.keyframe_requests);
    out.total_frame_drops += rx_stats.FrameDrops();
    out.total_keyframe_requests += rx_stats.keyframe_requests;
    const auto& fec = receiver.stream(i).fec().stats();
    fec_received += fec.fec_received;
    fec_used += fec.fec_used;
    out.fec_recovered_packets += fec.packets_recovered;
  }
  out.streams = metrics->AllStreams(window_start, window_end);
  out.time_series = metrics->time_series();

  const auto& tx = sender.stats();
  out.media_packets_sent = tx.media_packets_sent;
  out.fec_packets_sent = tx.fec_packets_sent;
  out.rtx_packets_sent = tx.rtx_packets_sent;
  out.nack_horizon_misses = sender.nack_horizon_misses();
  out.feedback_horizon_misses = sender.feedback_horizon_misses();
  out.frames_encoded = tx.frames_encoded;
  out.fec_overhead =
      tx.media_packets_sent > 0
          ? static_cast<double>(tx.fec_packets_sent) /
                static_cast<double>(tx.media_packets_sent)
          : 0.0;
  out.fec_utilization =
      fec_received > 0
          ? static_cast<double>(fec_used) / static_cast<double>(fec_received)
          : 0.0;
  return out;
}

// Seconds participant p spent in the call, from the membership timeline
// (sorted by time), clamped to the call window.
double ActiveSeconds(int p, const ConferenceConfig& config) {
  const Timestamp end = Timestamp::Zero() + config.duration;
  bool present = MembershipPresentAtStart(p, config.membership);
  Timestamp open = Timestamp::Zero();
  double total = 0.0;
  for (const MembershipEvent& ev : config.membership) {
    if (ev.participant != p) continue;
    if (ev.at >= end) break;
    if (ev.kind == MembershipEvent::Kind::kLeave && present) {
      total += (ev.at - open).seconds();
      present = false;
    } else if (ev.kind == MembershipEvent::Kind::kJoin && !present) {
      open = ev.at;
      present = true;
    }
  }
  if (present) total += (end - open).seconds();
  return total;
}

}  // namespace

ConferenceStats Conference::Run() {
  Start();
  AdvanceTo(Timestamp::Zero() + config_.duration);
  return Collect();
}

void Conference::SetInvariantContext() {
  // Label invariant violations with the run that produced them — essential
  // when a parallel multi-seed chaos sweep trips one check in one run. A
  // single-leg conference (the 2-party Call adapter) keeps the historical
  // "<variant> seed=<n>" label.
  if (InvariantRegistry::enabled()) {
    std::string context = ToString(config_.variant) +
                          " seed=" + std::to_string(config_.seed);
    if (legs_.size() > 1) {
      context += " " + ToString(config_.topology) +
                 " n=" + std::to_string(config_.participants.size());
    }
    InvariantRegistry::SetContext(std::move(context));
  }
}

void Conference::ArmPipelines(size_t first_leg, size_t first_uplink) {
  const auto legs = std::span(legs_).subspan(first_leg);
  const auto ups = std::span(uplinks_).subspan(first_uplink);
  for (const auto& leg : legs) {
    TraceParticipantScope scope(leg->to);
    leg->receiver->Start();
  }
  for (const auto& up : ups) {
    if (up->hub_feedback == nullptr) continue;
    TraceParticipantScope scope(up->from);
    up->hub_feedback->Start();
  }
  if (!started_) {
    // Once the call runs, trunk agents start as they are built.
    for (const auto& t : trunks_) {
      for (const auto& up : ups) {
        if (ReceiverEndpoint* agent = TrunkAgent(*up, t.get())) {
          TraceParticipantScope scope(up->from);
          agent->Start();
        }
      }
    }
  }
  for (const auto& up : ups) {
    TraceParticipantScope scope(up->from);
    up->sender->Start();
  }
}

void Conference::Start() {
  SetInvariantContext();
  // Conferences run single-threaded (one per worker in parallel sweeps), so
  // the thread-local recorder covers exactly this conference's components.
  TraceScope trace_scope(trace_.get());
  ArmPipelines(0, 0);
  // Arm the membership timeline once: events fire inside AdvanceTo (which
  // re-establishes the trace/invariant scopes per slice), and scheduling
  // them all up front keeps their (time, sequence) dispatch order identical
  // however the run is sliced.
  if (!started_) {
    started_ = true;
    for (const MembershipEvent& ev : config_.membership) {
      loop_.ScheduleAt(ev.at, [this, ev] { ApplyMembershipEvent(ev); });
    }
    // Hub outages are scheduled the same way: every kOutage window of hub
    // h's fault plan kills the hub at its start and recovers it at its end
    // (only a cascade keeps hub fault plans; see NormalizeConferenceConfig).
    for (size_t h = 0; h < config_.hub_fault_plans.size(); ++h) {
      const int hub = static_cast<int>(h);
      for (const auto& [fail_at, recover_at] :
           config_.hub_fault_plans[h].OutageWindows()) {
        loop_.ScheduleAt(fail_at, [this, hub] { FailHub(hub); });
        loop_.ScheduleAt(recover_at, [this, hub] { RecoverHub(hub); });
      }
    }
  }
}

void Conference::AdvanceTo(Timestamp t) {
  // Re-established per slice: a fleet driver interleaves many conferences on
  // one thread, each with its own recorder (usually none) and label.
  SetInvariantContext();
  TraceScope trace_scope(trace_.get());
  loop_.RunUntil(t);
}

ConferenceStats Conference::Collect() {
  ConferenceStats out;
  const Timestamp call_end = Timestamp::Zero() + config_.duration;
  out.legs.reserve(legs_.size());
  for (auto& leg : legs_) {
    // QoE is normalized over the leg's own membership window, so a
    // churn-created leg's rates are comparable to a whole-call leg's. Star
    // note: the sender-side counters (packets sent, FEC overhead) come from
    // the shared uplink, so they repeat across the uplink's legs; the
    // receive-side QoE is per leg.
    const Timestamp window_end = std::min(leg->left, call_end);
    out.legs.push_back(
        {.from = leg->from,
         .to = leg->to,
         .incarnation = leg->incarnation,
         .joined_s = (leg->joined - Timestamp::Zero()).seconds(),
         .left_s = (window_end - Timestamp::Zero()).seconds(),
         .stats = CollectLegStats(
             config_.participants[static_cast<size_t>(leg->from)].num_streams,
             leg->metrics.get(), *leg->uplink->sender, *leg->receiver,
             leg->joined, window_end)});
  }

  const int n = static_cast<int>(config_.participants.size());
  out.participants.reserve(static_cast<size_t>(n));
  for (int p = 0; p < n; ++p) {
    ConferenceStats::ParticipantQoe q;
    q.participant = p;
    q.active_s = ActiveSeconds(p, config_);
    std::vector<const StreamQoe*> inbound;
    for (const ConferenceStats::Leg& ls : out.legs) {
      if (ls.to != p) continue;
      for (const StreamQoe& s : ls.stats.streams) inbound.push_back(&s);
      q.frame_drops += ls.stats.total_frame_drops;
      q.keyframe_requests += ls.stats.total_keyframe_requests;
    }
    q.inbound_streams = static_cast<int>(inbound.size());
    q.avg_fps = MeanOverStreams(inbound, &StreamQoe::avg_fps);
    q.avg_freeze_ms = MeanOverStreams(inbound, &StreamQoe::freeze_total_ms);
    q.avg_freeze_ratio = MeanOverStreams(inbound, &StreamQoe::freeze_ratio);
    q.avg_e2e_ms = MeanOverStreams(inbound, &StreamQoe::e2e_mean_ms);
    q.total_tput_mbps = SumOverStreams(inbound, &StreamQoe::tput_mbps);
    q.avg_qp = MeanOverStreams(inbound, &StreamQoe::qp_mean);
    q.avg_psnr_db = MeanOverStreams(inbound, &StreamQoe::psnr_mean_db);
    out.participants.push_back(q);
  }

  // Star only: final per-(hub, receiver, path) downlink state. Live
  // forwarders first, in (receiver, path) order — the historical single-hub
  // row order, unchanged. Forwarders retired by a mid-call leave are
  // intentionally not reported (the slot either belongs to the rejoin or to
  // nobody); forwarders retired by a re-homing ARE reported afterwards,
  // tagged with the hub that ran them, so a failed-over call accounts for
  // both serving hubs.
  out.num_hubs = config_.num_hubs;
  out.simulcast_rungs = config_.simulcast_rungs;
  out.temporal_layers = config_.temporal_layers;
  out.clamped_past_events = loop_.clamped_past_events();
  // Per-path egress-engine state shared by downlink and trunk rows.
  auto fill = [](auto& row, const HubForwarder& fwd, PathId path) {
    row.path = path;
    row.target_kbps =
        static_cast<double>(fwd.downlink_target(path).bps()) / 1000.0;
    row.srtt_ms = fwd.downlink_srtt(path).seconds() * 1000.0;
    row.loss = fwd.downlink_loss(path);
    row.feedback_horizon_misses = fwd.cc(path).horizon_misses();
    row.forwarder = fwd.stats(path);
  };
  auto add_downlinks = [&](int hub, int receiver, const HubForwarder& fwd) {
    for (PathId path : fwd.path_ids()) {
      ConferenceStats::Downlink d;
      d.hub = hub;
      d.receiver = receiver;
      d.selected_rung = fwd.max_selected_rung();
      fill(d, fwd, path);
      out.downlinks.push_back(d);
    }
  };
  for (int p = 0; p < n; ++p) {
    const Route& route = routes_[static_cast<size_t>(p)];
    if (route.forwarder != nullptr) {
      add_downlinks(route.home_hub, p, *route.forwarder);
    }
  }
  for (const RetiredDownlink& rd : retired_downlinks_) {
    if (rd.rehomed) add_downlinks(rd.hub, rd.receiver, *rd.forwarder);
  }

  // Multi-hub only: trunk and hub state (both stay empty for single-hub
  // conferences, keeping their stats JSON byte-identical).
  if (config_.num_hubs > 1) {
    for (const auto& t : trunks_) {
      for (PathId path : t->engine->path_ids()) {
        ConferenceStats::Trunk ts;
        ts.from_hub = t->from_hub;
        ts.to_hub = t->to_hub;
        ts.live = t->live;
        fill(ts, *t->engine, path);
        ts.feedback_batches = t->engine->cc(path).feedback_batches();
        ts.packets_registered = t->engine->cc(path).packets_registered();
        out.trunks.push_back(ts);
      }
    }
    out.hubs = hubs_;
    for (const Route& route : routes_) {
      if (route.present) {
        ++out.hubs[static_cast<size_t>(route.home_hub)].home_participants;
      }
    }
  }

  // Competing cross-traffic, in deterministic construction order: uplink
  // edges first (mesh pair networks are "uplinks" here too), then live
  // star downlinks by receiver, then downlinks retired by churn.
  auto collect_flows = [&](int from, int to, const Network& net) {
    for (const auto& src : net.cross_traffic()) {
      ConferenceStats::CrossFlow f;
      f.from = from;
      f.to = to;
      f.path = src->path();
      f.name = src->spec().name;
      f.kind = CrossTrafficKindName(src->spec().kind);
      f.packets_sent = src->stats().packets_sent;
      f.packets_delivered = src->stats().packets_delivered;
      f.packets_dropped = src->stats().packets_dropped;
      f.loss_events = src->stats().loss_events;
      f.throughput_mbps = src->ThroughputMbps(call_end);
      f.final_cwnd = src->stats().final_cwnd;
      out.cross_traffic.push_back(std::move(f));
    }
  };
  for (auto& up : uplinks_) collect_flows(up->from, up->to, *up->network);
  for (size_t p = 0; p < routes_.size(); ++p) {
    if (routes_[p].downlink != nullptr) {
      collect_flows(kHubId, static_cast<int>(p), *routes_[p].downlink);
    }
  }
  for (const RetiredDownlink& rd : retired_downlinks_) {
    collect_flows(kHubId, rd.receiver, *rd.network);
  }
  for (const auto& t : trunks_) collect_flows(kHubId, kHubId, *t->network);
  return out;
}

const HubForwarder* Conference::hub_forwarder(int participant) const {
  return participant < 0 || static_cast<size_t>(participant) >= routes_.size()
             ? nullptr
             : routes_[static_cast<size_t>(participant)].forwarder.get();
}

int Conference::home_hub(int participant) const {
  return participant < 0 || static_cast<size_t>(participant) >= routes_.size()
             ? 0
             : routes_[static_cast<size_t>(participant)].home_hub;
}

const HubForwarder* Conference::trunk_engine(int from_hub,
                                             int to_hub) const {
  const Trunk* t = LiveTrunk(from_hub, to_hub);
  return t == nullptr ? nullptr : t->engine.get();
}

int Conference::leg_from(size_t leg) const { return legs_.at(leg)->from; }
int Conference::leg_to(size_t leg) const { return legs_.at(leg)->to; }

const MetricsCollector& Conference::leg_metrics(size_t leg) const {
  return *legs_.at(leg)->metrics;
}

const Sender& Conference::leg_sender(size_t leg) const {
  return *legs_.at(leg)->uplink->sender;
}

const ReceiverEndpoint& Conference::leg_receiver(size_t leg) const {
  return *legs_.at(leg)->receiver;
}

Scheduler& Conference::leg_scheduler(size_t leg) {
  return *legs_.at(leg)->uplink->scheduler;
}

const Network& Conference::leg_network(size_t leg) const {
  return *legs_.at(leg)->uplink->network;
}

double CallStats::AvgFps() const {
  return MeanOverStreams(streams, &StreamQoe::avg_fps);
}

double CallStats::AvgFreezeMs() const {
  return MeanOverStreams(streams, &StreamQoe::freeze_total_ms);
}

double CallStats::AvgE2eMs() const {
  return MeanOverStreams(streams, &StreamQoe::e2e_mean_ms);
}

double CallStats::TotalTputMbps() const {
  return SumOverStreams(streams, &StreamQoe::tput_mbps);
}

double CallStats::AvgQp() const {
  return MeanOverStreams(streams, &StreamQoe::qp_mean);
}

double CallStats::AvgPsnrDb() const {
  return MeanOverStreams(streams, &StreamQoe::psnr_mean_db);
}

std::vector<ConferenceStats> RunConferences(
    const std::vector<ConferenceConfig>& configs, int jobs) {
  std::vector<ConferenceStats> out(configs.size());
  ParallelFor(
      static_cast<int64_t>(configs.size()),
      [&](int64_t i) {
        // Each worker gets a private copy of the config: nothing a
        // Conference mutates can alias another worker's state.
        ConferenceConfig config = configs[static_cast<size_t>(i)];
        Conference conference(config);
        out[static_cast<size_t>(i)] = conference.Run();
      },
      jobs);
  return out;
}

}  // namespace converge
