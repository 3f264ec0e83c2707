#include "session/hub_forwarder.h"

#include <algorithm>
#include <string>

#include "util/invariants.h"
#include "util/trace_recorder.h"

namespace converge {
namespace {

// Ingress thinning: while the worst downlink path's projected queue delay
// exceeds this, newly arriving delta frames are dropped whole (the
// stream's dependency chain is then gated until the next keyframe).
// Thinning breaks the GOP and costs a PLI round trip (debounced by
// kPliMinInterval), so this sits well above the GCC's delay-based
// operating point: on a persistently constrained downlink each admitted
// burst must be large enough to amortise the gate-closed dead time, or
// goodput degenerates to keyframe-rate.
constexpr Duration kThinQueueDelay = Duration::Millis(350);
// Egress drop policy: above this the oldest queued non-key frame is
// evicted whole; keyframes are only shed beyond twice this bound.
constexpr Duration kDropQueueDelay = Duration::Millis(600);
// Debounce for upstream PLI relays, per (leg, stream).
constexpr Duration kPliMinInterval = Duration::Millis(500);

// ---- Rung selection (Config::layered) ----
// Selected rung must fit inside kRungHeadroom * aggregate target.
constexpr double kRungHeadroom = 0.85;
// Upswitch hysteresis: the higher rung must also fit inside
// kRungHeadroom * kUpswitchMargin, and the current selection must have
// dwelled at least kMinDwell.
constexpr double kUpswitchMargin = 0.8;
constexpr Duration kMinDwell = Duration::Seconds(2);
// Cadence of selection re-evaluation and per-rung rate estimation.
constexpr Duration kLayerEvalInterval = Duration::Millis(250);
// Blend of the newest windowed rate into the per-rung estimate.
// Asymmetric: growth is tracked almost instantly (a rung outgrowing the
// budget must trigger the downswitch before the path chokes), decay uses
// the slower kRateAlpha (upswitches stay hysteretic).
constexpr double kRateAlpha = 0.5;
constexpr double kRateAlphaUp = 0.9;
// A deficit against the capacity belief must persist this many
// consecutive evals before a downswitch fires (one keyframe can inflate a
// single window's rung estimate); a sustained smoothed backlog beyond
// kEmergencyQueueDelay overrides the confirmation and switches
// immediately.
constexpr int kDownswitchConfirmEvals = 2;
constexpr Duration kEmergencyQueueDelay = Duration::Millis(30);

// ---- Application-limited (ALR) padding, layered engines only ----
// Forwarding only the selected rung leaves the downlink CC blind above the
// forwarded rate (its acked-rate ceiling pins the target just above what
// was sent), so after a downswitch the budget could never grow back to
// admit the higher rung. When the paced queue drains with budget to spare,
// the hub pads the path with probe duplicates up to the CC target — the
// receiver acks them in transport feedback but drops them before frame
// assembly — letting the estimator keep probing for real headroom exactly
// like WebRTC ALR padding.
//
// Padding fills to this fraction of the target, not all of it: the CC
// equilibrium then puts the actual send rate at the link's edge instead of
// past it, so capacity discovery costs far fewer overuse/backoff cycles on
// a saturated path.
constexpr double kPaddingTargetFactor = 0.9;
// Padding is expendable: it pauses while the path's loss estimate sits
// above this gate, so probing a constrained link to its knee costs padding
// packets first and media only briefly. Without the gate a droptail
// bottleneck is held at GCC's loss plateau and the media stream eats a
// continuous slice of that loss.
constexpr double kPaddingLossGate = 0.02;
// Same idea on the delay axis, and earlier: padding also pauses while the
// path's smoothed RTT sits more than this above the minimum it has
// observed (a building bottleneck queue inflates RTT long before a
// droptail queue starts dropping).
constexpr Duration kPaddingDelayGate = Duration::Millis(25);
// A gate trip means the last probe found the path's ceiling, so
// re-probing immediately would just rebuild the same queue. Probing
// episodes back off exponentially between kPaddingBackoff and
// kPaddingBackoffMax; a probe that stays clean for a few seconds resets
// the backoff (genuinely uncongested paths pad continuously and never
// enter this ladder).
constexpr Duration kPaddingBackoff = Duration::Seconds(1);
constexpr Duration kPaddingBackoffMax = Duration::Seconds(8);
// No padding until the path has carried media this long. At call start
// the CC target is an optimistic guess, min_srtt is unknown (so the delay
// gate cannot trip), and the encoder is still ramping — padding straight
// to the guessed target floods a constrained downlink and freezes
// first-second media behind the probe queue. By the end of the warm-up
// the estimator has real feedback and the gates are armed.
constexpr Duration kPaddingWarmup = Duration::Seconds(2);

// Flight-recorder category for the rung-selection engine: switches,
// selection counters, and the keyframe requests that commit them live
// apart from the queue probes in `config.trace_category`.
constexpr char kLayerTraceCategory[] = "hub_layer";

// Rebuilds the scheduler priority of a packet whose RTX provenance the hub
// strips (the origin tagged the retransmitted copy kRetransmit).
Priority RestorePriority(const RtpPacket& p) {
  switch (p.kind) {
    case PayloadKind::kPps:
      return Priority::kPps;
    case PayloadKind::kSps:
      return Priority::kSps;
    case PayloadKind::kFec:
      return Priority::kFec;
    default:
      return p.frame_kind == FrameKind::kKey ? Priority::kKeyframe
                                             : Priority::kNone;
  }
}

}  // namespace

HubForwarder::HubForwarder(EventLoop* loop, Config config,
                           const std::vector<PathId>& paths,
                           TransmitFn transmit, PliFn relay_pli)
    : loop_(loop),
      config_(config),
      transmit_(std::move(transmit)),
      relay_pli_(std::move(relay_pli)),
      rtx_(config_.per_path_nack),
      last_process_(loop->now()),
      last_layer_eval_(loop->now()) {
  for (PathId path : paths) {
    CcConfig cc = config_.cc;
    cc.trace_path = static_cast<int>(path);
    paths_.emplace(path, std::make_unique<PathState>(cc));
  }
  task_ = std::make_unique<RepeatingTask>(loop_, kPacingInterval,
                                          [this] { Process(); });
}

HubForwarder::~HubForwarder() = default;

void HubForwarder::Stop() {
  task_.reset();
  // The conference routes no RTCP to a stopped engine (feedback reaches
  // live legs and live trunks only), so nothing asks its sent histories
  // again: release them. Collect() reads only stats, controllers and gates.
  rtx_ = RtxHistory(config_.per_path_nack);
  for (auto& [path, ps] : paths_) ps->egress.clear();
}

void HubForwarder::ResetOrigin(int leg) {
  for (auto& [path, ps] : paths_) {
    for (std::deque<Queued>* q : {&ps->queue, &ps->rtx_queue}) {
      std::deque<Queued> kept;
      for (Queued& entry : *q) {
        if (entry.leg == leg) {
          ps->queued_bytes -= entry.packet.wire_size();
          ++ps->stats.packets_dropped;
        } else {
          kept.push_back(std::move(entry));
        }
      }
      *q = std::move(kept);
    }
    ps->egress.erase(leg);
    // Padding must not clone the departed origin's packet: the conference
    // drops every copy. It resumes with the next origin's media.
    if (ps->last_media.leg == leg) ps->has_last_media = false;
  }
  for (auto it = gates_.begin(); it != gates_.end();) {
    it = it->first.first == leg ? gates_.erase(it) : std::next(it);
  }
  rtx_.ForgetLeg(leg);
}

HubForwarder::PathState& HubForwarder::Path(PathId path) {
  return *paths_.at(path);
}
const HubForwarder::PathState& HubForwarder::Path(PathId path) const {
  return *paths_.at(path);
}

Duration HubForwarder::ProjectedDelay(const PathState& ps) const {
  if (ps.queued_bytes == 0) return Duration::Zero();
  if (ps.pacing_rate.IsZero()) {
    // Before the first Process() tick the pacing rate is unset; project
    // with the controller's current target instead of reporting infinity.
    return (ps.cc.target_rate() * kPacingFactor)
        .TransmitTime(ps.queued_bytes);
  }
  return ps.pacing_rate.TransmitTime(ps.queued_bytes);
}

HubForwarder::Backlog HubForwarder::WorstBacklog() const {
  Backlog worst;
  for (const auto& [id, ps] : paths_) {
    const Duration d = ProjectedDelay(*ps);
    if (d > worst.delay) worst = {d, id};
  }
  return worst;
}

double HubForwarder::WorstSmoothedDelayMs() const {
  double worst = 0.0;
  for (const auto& [path, ps] : paths_) {
    worst = std::max(worst, ps->smoothed_delay_ms);
  }
  return worst;
}

size_t HubForwarder::DecisionWindow::LowerBound(int32_t frame_id) const {
  return static_cast<size_t>(
      std::lower_bound(
          entries_.begin(), entries_.end(), frame_id,
          [](const Verdict& v, int32_t id) { return v.frame_id < id; }) -
      entries_.begin());
}

const int* HubForwarder::DecisionWindow::Find(int32_t frame_id) const {
  const size_t i = LowerBound(frame_id);
  if (i == entries_.size() || entries_[i].frame_id != frame_id) {
    return nullptr;
  }
  return &entries_[i].verdict;
}

void HubForwarder::DecisionWindow::Set(int32_t frame_id, int verdict) {
  const size_t i = LowerBound(frame_id);
  if (i < entries_.size() && entries_[i].frame_id == frame_id) {
    entries_[i].verdict = verdict;
  } else {
    entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(i),
                    {frame_id, verdict});
  }
}

void HubForwarder::DecisionWindow::Prune() {
  if (entries_.size() > kDecisionWindow) {
    entries_.erase(entries_.begin(),
                   entries_.end() - static_cast<ptrdiff_t>(kDecisionWindow));
  }
}

bool HubForwarder::StreamGate::PliDue(Timestamp now) {
  if (last_pli.IsFinite() && now - last_pli < kPliMinInterval) return false;
  last_pli = now;
  return true;
}

void HubForwarder::CloseGate(StreamGate& gate, int leg, int stream_id,
                             PathId culprit, Timestamp now) {
  gate.open = false;
  gate.culprit = culprit;
  if (!gate.PliDue(now)) return;
  ++Path(culprit).stats.plis_relayed;
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Instant(config_.trace_category, "pli_relay", now, static_cast<double>(leg),
                   static_cast<int32_t>(culprit), stream_id);
  }
  relay_pli_(leg, gate.ssrc, culprit);
}

bool HubForwarder::AdmitMedia(int leg, PathId path, const RtpPacket& packet,
                              Timestamp now) {
  StreamGate& g = gates_[{leg, packet.stream_id}];
  if (packet.ssrc != 0) g.ssrc = packet.ssrc;
  if (config_.layered && packet.num_spatial > 1) {
    return AdmitLayered(g, leg, path, packet, now);
  }
  if (packet.frame_kind == FrameKind::kKey) {
    // Keyframes are always admitted; they repair the dependency chain.
    g.open = true;
    g.decisions.Set(packet.frame_id, 0);
  } else {
    const int* held = g.decisions.Find(packet.frame_id);
    int verdict = held != nullptr ? *held : 0;
    if (held == nullptr) {
      // First packet of a new delta frame: the whole-frame thinning
      // decision. A closed gate thins it too (and is charged to the path
      // that closed it): the chain stays broken until the next keyframe.
      bool admit = g.open;
      PathId culprit = g.culprit;
      if (admit) {
        const Backlog worst = WorstBacklog();
        admit = worst.delay <= kThinQueueDelay;
        culprit = worst.path;
      }
      verdict = admit ? 0 : -1;
      g.decisions.Set(packet.frame_id, verdict);
      if (!admit) ThinFrame(g, leg, packet, culprit, now);
    }
    if (verdict < 0) {
      ++Path(g.culprit).stats.packets_dropped;
      return false;
    }
  }
  g.decisions.Prune();
  return true;
}

bool HubForwarder::AdmitLayered(StreamGate& g, int leg, PathId path,
                                const RtpPacket& packet, Timestamp now) {
  g.num_rungs = std::min<int>(packet.num_spatial, kMaxRungs);
  // Every rung's ingress bytes feed the rate estimates — including rungs
  // the receiver is not subscribed to; those estimates are exactly what an
  // upswitch decision needs.
  if (packet.spatial_id < kMaxRungs) {
    g.rung_window_bytes[packet.spatial_id] += packet.wire_size();
  }

  const int* held = g.decisions.Find(packet.frame_id);
  int rung = held != nullptr ? *held : 0;
  if (held == nullptr) {
    // First packet of this frame_id (any rung, any path): decide which
    // rung of the frame goes downstream. Exactly one rung per frame_id
    // keeps the subscriber's frame continuity — full fps at every rung.
    if (packet.frame_kind == FrameKind::kKey) {
      if (g.pending >= 0 && g.pending != g.current) {
        // The keyframe all rungs share is the decodable switch boundary.
        g.current = std::min(g.pending, g.num_rungs - 1);
        g.last_switch = now;
        PathState& cp = *paths_.begin()->second;
        ++cp.stats.layer_switches;
        if (TraceRecorder* trace = TraceRecorder::Current()) {
          trace->Instant(kLayerTraceCategory, "layer_switch", now,
                         static_cast<double>(g.current),
                         static_cast<int32_t>(leg), packet.stream_id);
        }
      }
      g.pending = -1;
      g.open = true;
      rung = std::min(g.current, g.num_rungs - 1);
    } else if (!g.open) {
      rung = -1;  // chain already broken; wait for the next keyframe
    } else {
      rung = std::min(g.current, g.num_rungs - 1);
      // Overload backstop below the lowest rung: if even the selected rung
      // overruns the worst path's queue, fall back to whole-frame thinning
      // exactly like the single-layer hub.
      const Backlog worst = WorstBacklog();
      if (worst.delay > kThinQueueDelay) {
        rung = -1;
        ThinFrame(g, leg, packet, worst.path, now);
      }
    }
    g.decisions.Set(packet.frame_id, rung);
  }
  // The verdict is already read: pruning may drop this very frame's entry
  // when it is older than every held one.
  g.decisions.Prune();

  if (rung < 0) {
    ++Path(g.culprit).stats.packets_dropped;
    return false;
  }
  if (packet.spatial_id != rung) {
    // Deliberate rung filtering, not loss: hub-stamped egress sequence
    // spaces mean the receiver never sees a gap to chase.
    ++Path(path).stats.layer_packets_filtered;
    return false;
  }
  return true;
}

void HubForwarder::ThinFrame(StreamGate& g, int leg, const RtpPacket& packet,
                             PathId culprit, Timestamp now) {
  ++Path(culprit).stats.frames_thinned;
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Instant(config_.trace_category, "frame_thinned", now,
                   static_cast<double>(packet.frame_id),
                   static_cast<int32_t>(culprit), packet.stream_id);
  }
  // Dropping a delta breaks the chain until the next keyframe.
  CloseGate(g, leg, packet.stream_id, culprit, now);
}

void HubForwarder::RequestSwitchKeyframe(StreamGate& gate, int leg,
                                         int stream_id, Timestamp now) {
  if (!gate.PliDue(now)) return;
  // Attribute the request to the constraining downlink path (the lowest
  // CC target) — the one the switch is for.
  PathId culprit = paths_.begin()->first;
  DataRate lowest = DataRate::Infinity();
  for (const auto& [id, ps] : paths_) {
    if (ps->cc.target_rate() < lowest) {
      lowest = ps->cc.target_rate();
      culprit = id;
    }
  }
  ++Path(culprit).stats.plis_relayed;
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Instant(kLayerTraceCategory, "switch_pli", now,
                   static_cast<double>(gate.pending),
                   static_cast<int32_t>(leg), stream_id);
  }
  relay_pli_(leg, gate.ssrc, culprit);
}

void HubForwarder::EvaluateLayerSelection(Timestamp now) {
  if (!config_.layered) return;
  const Duration window = now - last_layer_eval_;
  if (window < kLayerEvalInterval) return;
  last_layer_eval_ = now;
  const double window_s = window.seconds();
  if (window_s <= 0.0) return;

  double total_target_bps = 0.0;
  for (const auto& [id, ps] : paths_) {
    total_target_bps += static_cast<double>(ps->cc.target_rate().bps());
  }
  if (total_target_bps >= peak_total_target_bps_) {
    peak_total_target_bps_ = total_target_bps;
  } else {
    peak_total_target_bps_ += std::min(1.0, window_s / 4.0) *
                              (total_target_bps - peak_total_target_bps_);
  }
  int layered_streams = 0;
  for (const auto& [key, g] : gates_) {
    if (g.num_rungs > 1) ++layered_streams;
  }
  if (layered_streams == 0) return;
  // Every layered stream this receiver subscribes to shares the aggregate
  // downlink budget equally. Selection (which rung SHOULD fit) runs on
  // the slow-decaying capacity belief; the upswitch margin additionally
  // checks the instantaneous target so a stale peak cannot drive a climb.
  const double budget_bps = peak_total_target_bps_ * kRungHeadroom /
                            static_cast<double>(layered_streams);
  const double cur_budget_bps = total_target_bps * kRungHeadroom /
                                static_cast<double>(layered_streams);

  for (auto& [key, g] : gates_) {
    if (g.num_rungs <= 1) continue;
    const int leg = key.first;
    const int stream_id = key.second;
    // Fold the window's ingress bytes into the per-rung rate estimates.
    for (int k = 0; k < g.num_rungs; ++k) {
      const double inst =
          static_cast<double>(g.rung_window_bytes[k]) * 8.0 / window_s;
      g.rung_window_bytes[k] = 0;
      const double alpha =
          inst > g.rung_rate_bps[k] ? kRateAlphaUp : kRateAlpha;
      g.rung_rate_bps[k] =
          g.rung_rate_bps[k] <= 0.0
              ? inst
              : g.rung_rate_bps[k] + alpha * (inst - g.rung_rate_bps[k]);
    }
    // Highest-quality rung whose measured rate fits the budget; when even
    // the lowest rung overruns, subscribe to the lowest anyway — the
    // thinning backstop handles what remains.
    int desired = g.num_rungs - 1;
    for (int k = 0; k < g.num_rungs; ++k) {
      if (g.rung_rate_bps[k] > 0.0 && g.rung_rate_bps[k] <= budget_bps) {
        desired = k;
        break;
      }
    }
    // A sustained backlog means the pacer cannot drain the current rung
    // no matter what the budget arithmetic believes (the capacity belief
    // lags real losses by design) — degrade one rung now.
    const bool emergency =
        WorstSmoothedDelayMs() > kEmergencyQueueDelay.ms();
    if (emergency && desired <= g.current && g.current < g.num_rungs - 1) {
      desired = g.current + 1;
    }
    if (desired == g.current) {
      g.pending = -1;  // converged; cancel any stale switch request
      g.deficit_evals = 0;
    } else if (desired > g.current) {
      // Downswitch: a deficit against the peak-tracked budget is a
      // genuine capacity shortfall (probe dips do not dent the peak), so
      // confirmation is only about riding out one keyframe-inflated
      // window; an emergency bypasses even that. Commits at the next
      // keyframe.
      ++g.deficit_evals;
      const bool confirmed = g.deficit_evals >= kDownswitchConfirmEvals;
      if (emergency || confirmed) {
        if (g.pending != desired) g.pending = desired;
        RequestSwitchKeyframe(g, leg, stream_id, now);
      }
    } else {
      g.deficit_evals = 0;
      // Upswitch: hysteretic — the better rung must fit a tighter budget
      // and the current selection must have dwelled.
      const bool fits_margin =
          g.rung_rate_bps[desired] <= cur_budget_bps * kUpswitchMargin;
      const bool dwelled =
          !g.last_switch.IsFinite() || now - g.last_switch >= kMinDwell;
      if (fits_margin && dwelled) {
        if (g.pending != desired) g.pending = desired;
        RequestSwitchKeyframe(g, leg, stream_id, now);
      } else {
        g.pending = -1;
      }
    }
    if (TraceRecorder* trace = TraceRecorder::Current()) {
      trace->Counter(kLayerTraceCategory, "selected_rung", now,
                     static_cast<double>(g.current),
                     static_cast<int32_t>(leg), stream_id);
      trace->Counter(kLayerTraceCategory, "rung_budget_kbps", now,
                     budget_bps / 1000.0, static_cast<int32_t>(leg),
                     stream_id);
    }
  }
}

void HubForwarder::OnMediaFromUplink(int leg, PathId path,
                                     RtpPacket packet) {
  const Timestamp now = loop_->now();
  CONVERGE_INVARIANT("HubForwarder", now, task_ != nullptr,
                     "media from origin " + std::to_string(leg) +
                         " reached a stopped engine");
  auto pit = paths_.find(path);
  if (pit == paths_.end()) return;
  PathState& ps = *pit->second;

  // Uplink RTX provenance ends at the hub: the receiver never saw a gap
  // (egress sequence spaces are hub-stamped), so a packet the hub chased
  // and recovered from the origin goes downstream as a first transmission.
  if (packet.via_rtx) {
    packet.via_rtx = false;
    packet.rtx_for_path = kInvalidPathId;
    packet.rtx_for_mp_seq = 0;
    packet.priority = RestorePriority(packet);
  }

  if (packet.IsMediaLike()) {
    if (!AdmitMedia(leg, path, packet, now)) return;
  } else if (packet.kind == PayloadKind::kFec) {
    // Parity covering a gated stream is dead weight on a congested link.
    auto git = gates_.find({leg, packet.stream_id});
    if (git != gates_.end() && !git->second.open) {
      ++Path(git->second.culprit).stats.packets_dropped;
      return;
    }
    // Layered: parity protects exactly one rung (the sender windows FEC
    // per rung), so forward only the subscribed rung's parity.
    if (config_.layered && packet.num_spatial > 1 &&
        git != gates_.end() &&
        packet.spatial_id != git->second.current) {
      ++ps.stats.layer_packets_filtered;
      return;
    }
  }

  ps.queued_bytes += packet.wire_size();
  ps.stats.max_queue_bytes =
      std::max(ps.stats.max_queue_bytes, ps.queued_bytes);
  ps.queue.push_back({std::move(packet), now, leg});
}

void HubForwarder::EvictFrame(PathId path, PathState& ps, int leg,
                              int stream_id, int64_t frame_id,
                              Timestamp now) {
  StreamGate& g = gates_[{leg, stream_id}];
  // Evict the target frame and every queued delta that depends on it
  // (later deltas of the stream cannot decode once the chain is cut).
  std::deque<Queued> kept;
  // Doomed frames, each once however its packets interleave in the queue
  // (an uplink-recovered packet can sit behind the next frame's).
  std::vector<int64_t> frames_gone;
  for (Queued& q : ps.queue) {
    const RtpPacket& p = q.packet;
    const bool same_stream =
        q.leg == leg && p.stream_id == stream_id && p.IsMediaLike();
    const bool doomed =
        same_stream && (p.frame_id == frame_id ||
                        (p.frame_id > frame_id &&
                         p.frame_kind == FrameKind::kDelta));
    if (!doomed) {
      kept.push_back(std::move(q));
      continue;
    }
    if (std::find(frames_gone.begin(), frames_gone.end(), p.frame_id) ==
        frames_gone.end()) {
      frames_gone.push_back(p.frame_id);
      g.decisions.Set(p.frame_id, -1);
    }
    ps.queued_bytes -= p.wire_size();
    ++ps.stats.packets_dropped;
  }
  ps.queue = std::move(kept);
  ps.stats.frames_evicted += static_cast<int64_t>(frames_gone.size());
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Instant(config_.trace_category, "frame_evicted", now,
                   static_cast<double>(frame_id),
                   static_cast<int32_t>(path), stream_id);
  }
  CloseGate(g, leg, stream_id, path, now);
}

void HubForwarder::EvictForSpace(PathId path, PathState& ps,
                                 Timestamp now) {
  while (!ps.queue.empty() &&
         ProjectedDelay(ps) > kDropQueueDelay) {
    // Oldest-frame-first, keyframe-protected: scan for the first entry
    // that is not part of a keyframe.
    auto victim = ps.queue.end();
    for (auto it = ps.queue.begin(); it != ps.queue.end(); ++it) {
      const RtpPacket& p = it->packet;
      if (p.IsMediaLike() && p.frame_kind == FrameKind::kKey) continue;
      victim = it;
      break;
    }
    if (victim == ps.queue.end()) {
      // Only keyframes left; shed them only beyond the hard bound.
      if (ProjectedDelay(ps) <= kDropQueueDelay * 2.0) break;
      victim = ps.queue.begin();
    }
    const RtpPacket& p = victim->packet;
    if (p.IsMediaLike()) {
      EvictFrame(path, ps, victim->leg, p.stream_id, p.frame_id, now);
    } else {
      ps.queued_bytes -= p.wire_size();
      ++ps.stats.packets_dropped;
      ps.queue.erase(victim);
    }
  }
}

void HubForwarder::Emit(PathId path, PathState& ps, Queued q,
                        Timestamp now, bool padding) {
  RtpPacket& packet = q.packet;
  CONVERGE_INVARIANT("HubForwarder", now, FitsPacketPathId(path),
                     "path " + std::to_string(path));
  packet.path_id = path;
  packet.send_time = now;
  // Hub-owned sequence spaces, stamped at queue output so the per-path
  // wire order stays strictly sequential even when retransmissions jump
  // the backlog (mirrors Sender::DispatchPacket).
  ps.egress[q.leg].Stamp(packet);
  ps.cc.OnPacketSent();
  ps.pad_budget.Spend(packet.wire_size());

  rtx_.OnSent(q.leg, packet);
  if (packet.IsMediaLike() && config_.layered && !packet.via_rtx) {
    ps.last_media = q;
    if (!ps.first_media_at.IsFinite()) ps.first_media_at = now;
    ps.has_last_media = true;
  }

  if (padding) {
    ++ps.stats.padding_packets;
  } else {
    ++ps.stats.packets_forwarded;
    ps.stats.bytes_forwarded += packet.wire_size();
  }
  transmit_(q.leg, path, std::move(packet));
}

void HubForwarder::ProcessPath(PathId path, PathState& ps, Timestamp now) {
  const Duration elapsed = now - last_process_;
  ps.pacing_rate = ps.cc.target_rate() * kPacingFactor;
  ps.budget.Accrue(ps.pacing_rate, elapsed);
  if (config_.layered) {
    ps.pad_budget.Accrue(ps.cc.target_rate() * kPaddingTargetFactor,
                         elapsed);
  }

  const Duration backlog = ProjectedDelay(ps);
  ps.stats.max_queue_delay_ms =
      std::max(ps.stats.max_queue_delay_ms, backlog.seconds() * 1000.0);
  ps.stats.max_queue_bytes =
      std::max(ps.stats.max_queue_bytes, ps.queued_bytes);
  if (config_.layered) {
    const double backlog_ms =
        backlog.IsInfinite() ? 1000.0 : backlog.ms();
    ps.smoothed_delay_ms += std::min(1.0, elapsed.ms() / 250.0) *
                            (backlog_ms - ps.smoothed_delay_ms);
  }

  EvictForSpace(path, ps, now);

  while (true) {
    std::deque<Queued>* source =
        !ps.rtx_queue.empty() ? &ps.rtx_queue : &ps.queue;
    if (source->empty()) break;
    const int64_t size = source->front().packet.wire_size();
    if (!ps.budget.Covers(size)) break;
    Queued q = std::move(source->front());
    source->pop_front();
    ps.queued_bytes -= size;
    ps.budget.Spend(size);
    Emit(path, ps, std::move(q), now);
  }
  if (ps.queue.empty() && ps.rtx_queue.empty() && ps.budget.bytes() > 0.0) {
    // Application-limited: pad up to the CC target with probe duplicates
    // of the last forwarded media packet so the estimator keeps seeing —
    // and probing above — a target-rate ack stream (see the ALR padding
    // constants above).
    const Duration srtt = ps.cc.smoothed_rtt();
    if (!srtt.IsInfinite() && srtt < ps.min_srtt) ps.min_srtt = srtt;
    const bool gates_clean =
        (srtt.IsInfinite() || ps.min_srtt.IsInfinite() ||
         srtt - ps.min_srtt <= kPaddingDelayGate) &&
        ps.cc.loss_estimate() <= kPaddingLossGate;
    if (!gates_clean) {
      ps.pad_clean_since = now;
      if (now >= ps.pad_resume) {
        // A probe just found the ceiling; re-probing immediately would
        // only rebuild the queue. Back off (exponentially per episode).
        ps.pad_backoff = ps.pad_backoff.IsZero()
                             ? kPaddingBackoff
                             : std::min(ps.pad_backoff * 2, kPaddingBackoffMax);
        ps.pad_resume = now + ps.pad_backoff;
      }
    } else if (now < ps.pad_resume) {
      ps.pad_clean_since = now;  // still waiting out the backoff
    } else if (ps.pad_clean_since.IsFinite() && !ps.pad_backoff.IsZero() &&
               now - ps.pad_clean_since >= Duration::Seconds(3)) {
      ps.pad_backoff = Duration::Zero();  // sustained clean probe: reset
    }
    const bool warmed_up =
        ps.has_last_media &&
        now - ps.first_media_at >= kPaddingWarmup;
    if (config_.layered && warmed_up && gates_clean &&
        now >= ps.pad_resume) {
      while (true) {
        const int64_t size = ps.last_media.packet.wire_size();
        if (!ps.pad_budget.Covers(size) || !ps.budget.Covers(size)) break;
        Queued pad = ps.last_media;
        pad.packet.kind = PayloadKind::kProbe;
        pad.packet.is_probe_duplicate = true;
        pad.packet.priority = Priority::kNone;
        pad.packet.via_rtx = false;
        pad.enqueued = now;
        ps.budget.Spend(size);
        Emit(path, ps, std::move(pad), now, /*padding=*/true);
      }
    }
    ps.budget.CapIdle();
  }
  if (ps.pad_budget.bytes() < 0.0) ps.pad_budget = {};

  if (TraceRecorder* trace = TraceRecorder::Current()) {
    const int32_t tp = static_cast<int32_t>(path);
    trace->Counter(config_.trace_category, "queue_pkts", now,
                   static_cast<double>(ps.queue.size() +
                                       ps.rtx_queue.size()),
                   tp);
    trace->Counter(config_.trace_category, "queue_bytes", now,
                   static_cast<double>(ps.queued_bytes), tp);
    const Duration delay = ProjectedDelay(ps);
    trace->Counter(config_.trace_category, "queue_delay_ms", now,
                   delay.IsInfinite() ? -1.0 : delay.seconds() * 1000.0,
                   tp);
    trace->Counter(config_.trace_category, "target_kbps", now,
                   static_cast<double>(ps.cc.target_rate().bps()) / 1000.0,
                   tp);
  }

  CONVERGE_INVARIANT("HubForwarder", now, ps.queued_bytes >= 0,
                     "queued_bytes=" + std::to_string(ps.queued_bytes));
  CONVERGE_INVARIANT(
      "HubForwarder", now,
      !(ps.queue.empty() && ps.rtx_queue.empty()) || ps.queued_bytes == 0,
      "empty queues but queued_bytes=" + std::to_string(ps.queued_bytes));
  CONVERGE_INVARIANT(
      "HubForwarder", now,
      ps.budget.bytes() <= static_cast<double>(kMaxBurstBytes),
      "budget=" + std::to_string(ps.budget.bytes()));
}

void HubForwarder::Process() {
  const Timestamp now = loop_->now();
  EvaluateLayerSelection(now);
  for (auto& [path, ps] : paths_) {
    ProcessPath(path, *ps, now);
  }
  last_process_ = now;
}

bool HubForwarder::OnReceiverRtcp(int leg, PathId path,
                                  const RtcpPacket& packet) {
  const Timestamp now = loop_->now();
  // Stop() released the histories this would be answered from.
  CONVERGE_INVARIANT("HubForwarder", now, task_ != nullptr,
                     "RTCP from leg " + std::to_string(leg) +
                         " reached a stopped engine");
  if (const auto* fb = std::get_if<TransportFeedback>(&packet.payload)) {
    auto pit = paths_.find(packet.path_id);
    if (pit == paths_.end()) return true;
    PathState& ps = *pit->second;
    // No life means the leg never sent here, or left since: nothing of
    // its feedback can be matched.
    auto eit = ps.egress.find(leg);
    if (eit == ps.egress.end()) return true;
    int64_t misses = 0;
    const std::vector<PacketResult> results = eit->second.Match(*fb, misses);
    ps.cc.OnTransportFeedback(results, misses, now);
    return true;
  }
  if (std::get_if<ReceiverReport>(&packet.payload) != nullptr) {
    // Consumed: the downlink loss branch is driven from transport
    // feedback (the RR's SR echo measures the origin's round trip, not
    // the hub's), and the origin hears about its uplink from the hub's
    // own feedback endpoint instead.
    return true;
  }
  if (const auto* nack = std::get_if<Nack>(&packet.payload)) {
    const PathId report_path =
        packet.path_id != kInvalidPathId ? packet.path_id : path;
    // Answered on the path the packet was lost on: the report path for
    // per-path NACKs, the path it originally left on for legacy ones.
    const int64_t misses = rtx_.horizon_misses();
    rtx_.AnswerNack(
        leg, report_path, *nack, now,
        [&](RtpPacket rtx, PathId target, uint16_t seq) {
          auto tit = paths_.find(target);
          if (tit == paths_.end()) return false;
          PathState& tp = *tit->second;
          tp.queued_bytes += rtx.wire_size();
          ++tp.stats.rtx_answered;
          if (TraceRecorder* trace = TraceRecorder::Current()) {
            trace->Instant(config_.trace_category, "rtx_answered", now,
                           static_cast<double>(seq),
                           static_cast<int32_t>(target), rtx.stream_id);
          }
          tp.rtx_queue.push_back({std::move(rtx), now, leg});
          return true;
        });
    // Counted per report path, for either flavour.
    auto rit = paths_.find(report_path);
    if (rit != paths_.end()) {
      rit->second->stats.nack_horizon_misses += rtx_.horizon_misses() - misses;
    }
    return true;
  }
  return false;
}

std::vector<PathId> HubForwarder::path_ids() const {
  std::vector<PathId> ids;
  ids.reserve(paths_.size());
  for (const auto& [path, ps] : paths_) ids.push_back(path);
  return ids;
}

DataRate HubForwarder::downlink_target(PathId path) const {
  return Path(path).cc.target_rate();
}
Duration HubForwarder::downlink_srtt(PathId path) const {
  return Path(path).cc.smoothed_rtt();
}
double HubForwarder::downlink_loss(PathId path) const {
  return Path(path).cc.loss_estimate();
}
Duration HubForwarder::queue_delay(PathId path) const {
  return ProjectedDelay(Path(path));
}
const HubForwarder::DownlinkStats& HubForwarder::stats(PathId path) const {
  return Path(path).stats;
}
const DownlinkCc& HubForwarder::cc(PathId path) const {
  return Path(path).cc;
}

size_t HubForwarder::history_pages_allocated() const {
  size_t pages = rtx_.pages_allocated();
  for (const auto& [path, ps] : paths_) {
    for (const auto& [leg, egress] : ps->egress) {
      pages += egress.pages_allocated();
    }
  }
  return pages;
}

int HubForwarder::selected_rung(int leg, int stream_id) const {
  auto it = gates_.find({leg, stream_id});
  return it == gates_.end() ? 0 : it->second.current;
}

int HubForwarder::max_selected_rung() const {
  int deepest = 0;
  for (const auto& [key, g] : gates_) {
    if (g.num_rungs > 1) deepest = std::max(deepest, g.current);
  }
  return deepest;
}

}  // namespace converge
