// Per-receiver forwarding engine for the star (SFU) hub.
//
// PR 4's hub forwarded every uplink packet straight onto the matching
// downlink path, so downlinks had to be provisioned for the aggregate
// sender rate. This class closes that gap: the hub runs one congestion
// loop (DownlinkCc) and one frame-aware paced queue per (receiver, path)
// downlink, thins whole frames deterministically when a downlink cannot
// carry the aggregate, answers downlink NACKs from local history, and
// relays a PLI upstream whenever a drop breaks a stream's dependency
// chain. Forwarded rate therefore converges to
// min(uplink inflow, downlink estimate) per receiver.
//
// Sequence-space ownership: the hub re-stamps mp_seq and mp_transport_seq
// per (origin leg, path) at queue *output* (mirroring Pacer/Sender), so
// each downlink sees a gap-free per-path sequence space even when the hub
// deliberately drops frames — receivers never NACK-chase hub drops, and
// per-leg transport feedback never misreads another leg's packets as
// losses. The per-SSRC media `seq` is left untouched, which keeps FEC
// recovery metadata valid end-to-end.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "cc/downlink_cc.h"
#include "cc/pacer.h"
#include "rtp/rtcp.h"
#include "rtp/rtp_packet.h"
#include "session/egress_seq.h"
#include "session/rtx_history.h"
#include "sim/event_loop.h"
#include "util/time.h"

namespace converge {

class HubForwarder {
 public:
  // Only what production callers set differently; the forwarding policy
  // (thinning, eviction, PLI debounce, rung selection, ALR padding) is
  // the named constants in hub_forwarder.cc, and pacing is cc/pacer's.
  struct Config {
    // The NACK flavour the call negotiated (a conference derives it from
    // the variant, like the receivers' per_path_nack): true answers
    // per-path (hub-stamped mp_seq) NACKs, false legacy (ssrc, seq) ones
    // (see RtxHistory).
    bool per_path_nack = true;
    // Per-subscriber simulcast-rung selection (the production-SFU
    // behaviour the Zoom/Webex/Meet measurement study documents). When set
    // and the origin publishes layered media, the hub subscribes each
    // (origin leg, stream) to exactly one rung sized to the aggregate
    // downlink CC budget instead of thinning whole frames: every frame_id
    // still goes downstream (at a lower rung), so a constrained receiver
    // keeps full fps. Selections are hysteretic (upswitches need sustained
    // headroom) and keyframe-gated (a switch commits on the next keyframe,
    // which the hub requests via a debounced PLI relay); whole-frame
    // thinning remains as the overload backstop below the lowest rung, and
    // ALR padding keeps the downlink CC probing above the forwarded rung.
    // Receiver-facing engines only; trunk engines forward all rungs for
    // downstream hubs and never pad.
    bool layered = false;
    // Flight-recorder category for this engine's queue/thinning probes.
    // Receiver-facing downlink forwarders keep the historical "hub";
    // inter-hub trunk engines run under "hub_trunk" so a trace separates
    // the two hops of a cascaded forward. Must outlive the forwarder
    // (string literals only).
    const char* trace_category = "hub";
    // Template for each path's congestion controller; trace_path is
    // overridden per path.
    CcConfig cc;
  };

  // Highest rung index the selection engine tracks (wire field is 4 bits;
  // practical simulcast ladders stop at 4 rungs).
  static constexpr int kMaxRungs = 4;

  // Cumulative per-(receiver, path) accounting, surfaced via
  // ConferenceStats::Downlink.
  struct DownlinkStats {
    int64_t packets_forwarded = 0;
    int64_t bytes_forwarded = 0;
    int64_t frames_thinned = 0;  // whole frames dropped at ingress
    int64_t frames_evicted = 0;  // whole frames evicted from the queue
    int64_t packets_dropped = 0; // packets inside thinned/evicted frames
    int64_t rtx_answered = 0;
    int64_t plis_relayed = 0;
    int64_t max_queue_bytes = 0;
    double max_queue_delay_ms = 0.0;
    // Layered forwarding: rung switches committed at a keyframe, and
    // packets of unsubscribed rungs filtered at ingress (deliberate
    // selection, not loss — disjoint from packets_dropped).
    int64_t layer_switches = 0;
    int64_t layer_packets_filtered = 0;
    int64_t padding_packets = 0;  // ALR probe duplicates (layered only)
    // NACKed seqs of either flavour on this report path the RTX history's
    // age bound had already dropped (RtxHistory::horizon_misses).
    int64_t nack_horizon_misses = 0;
  };

  // Delivers a stamped packet onto the downlink: (origin leg, path, packet).
  using TransmitFn = std::function<void(int, PathId, RtpPacket)>;
  // Relays a keyframe request upstream to `leg`'s origin for `ssrc`,
  // describing downlink path `path`.
  using PliFn = std::function<void(int, uint32_t, PathId)>;

  HubForwarder(EventLoop* loop, Config config,
               const std::vector<PathId>& paths, TransmitFn transmit,
               PliFn relay_pli);
  ~HubForwarder();
  HubForwarder(const HubForwarder&) = delete;
  HubForwarder& operator=(const HubForwarder&) = delete;

  // Media from `leg`'s uplink, already consumed by the hub's uplink
  // feedback endpoint. Uplink RTX provenance is cleared here: a packet the
  // hub recovered from the origin is a *first* transmission downstream.
  void OnMediaFromUplink(int leg, PathId path, RtpPacket packet);

  // Feedback from this receiver for downlink `path`. Returns true when the
  // packet was consumed at the hub (transport feedback and receiver
  // reports feed the downlink controller, NACKs are answered from local
  // history); false for end-to-end signals the conference must still relay
  // upstream (keyframe requests, QoE feedback).
  bool OnReceiverRtcp(int leg, PathId path, const RtcpPacket& packet);

  // Origin `leg`'s sender left the conference. Drops its queued media and
  // forgets its egress lives (sequence spaces and send records),
  // dependency gates, and RTX history, so a rejoin (which arrives under a
  // fresh incarnation with brand-new SSRCs) starts from clean hub state
  // instead of inheriting stamp counters, send records and half-open gates
  // from the previous life.
  void ResetOrigin(int leg);
  // Quiesces the pacing timer when this forwarder's receiver leaves the
  // call, or its trunk retires, and releases the sent histories (RTX
  // windows and send records). The retired forwarder stays alive
  // (in-flight deliveries may still reference it, and Collect() reads its
  // stats, controllers and gates) but emits nothing further, and neither
  // media nor RTCP may reach it again.
  void Stop();

  // Paths this engine paces over, in ascending PathId order (stable across
  // the forwarder's lifetime; stats collection for retired engines reads
  // them here once the owning Network has been retired separately).
  std::vector<PathId> path_ids() const;

  DataRate downlink_target(PathId path) const;
  Duration downlink_srtt(PathId path) const;
  double downlink_loss(PathId path) const;
  Duration queue_delay(PathId path) const;
  const DownlinkStats& stats(PathId path) const;
  const DownlinkCc& cc(PathId path) const;
  // Pages the sent histories hold: the RTX windows and every egress life's
  // send records.
  size_t history_pages_allocated() const;
  // Frame records the RTX windows hold (RtxHistory::frame_records).
  RtxHistory::FrameRecords history_frame_records() const {
    return rtx_.frame_records();
  }

  // Layered forwarding introspection. selected_rung: the rung (origin leg,
  // stream) is currently subscribed to (0 when the stream is unknown or
  // single-layer). max_selected_rung: the deepest downswitch across every
  // layered stream this receiver subscribes to — 0 means every stream runs
  // at the top rung.
  int selected_rung(int leg, int stream_id) const;
  int max_selected_rung() const;

 private:
  struct Queued {
    RtpPacket packet;
    Timestamp enqueued;
    int leg = 0;
  };
  struct PathState {
    explicit PathState(const CcConfig& cc_config) : cc(cc_config) {}
    DownlinkCc cc;
    std::deque<Queued> queue;
    std::deque<Queued> rtx_queue;  // hub NACK answers jump the backlog
    int64_t queued_bytes = 0;
    PacingBudget budget;
    // ALR padding accrues at the CC target (not the pacing rate) and is
    // drained by every emitted byte, so media + padding together track
    // the target and padding never displaces media.
    PacingBudget pad_budget;
    DataRate pacing_rate = DataRate::Zero();
    // Template for ALR probe duplicates: the last media packet emitted on
    // this path (Emit re-stamps the egress sequence fields per copy);
    // cleared when its origin leaves.
    bool has_last_media = false;
    Queued last_media;
    // First media emit on this path, anchor for the padding warm-up.
    Timestamp first_media_at = Timestamp::PlusInfinity();
    // EWMA of the projected queue delay (~250 ms time constant), the
    // backlog signal layer selection runs on: a keyframe burst drains in
    // one spike the average barely registers, while genuine overload
    // holds the average up. Thinning keeps using the instantaneous value.
    double smoothed_delay_ms = 0.0;
    // Baseline RTT for the padding delay gate.
    Duration min_srtt = Duration::Infinity();
    // Probe-episode backoff state (see kPaddingBackoff).
    Timestamp pad_resume = Timestamp::MinusInfinity();
    Timestamp pad_clean_since = Timestamp::MinusInfinity();
    Duration pad_backoff = Duration::Zero();  // set on first gate trip
    DownlinkStats stats;
    // Hub-owned egress life per origin leg on this path.
    std::map<int, EgressSeq> egress;
  };
  // Verdicts sorted by frame id in one flat array: a new frame id is
  // almost always the newest, so recording it appends, and Prune() drops
  // the oldest until the newest kDecisionWindow remain.
  class DecisionWindow {
   public:
    static constexpr size_t kDecisionWindow = 64;
    // The verdict held for `frame_id`, or nullptr. Set and Prune may move
    // entries, so read it before calling either.
    const int* Find(int32_t frame_id) const;
    // Records or overwrites the verdict for `frame_id`.
    void Set(int32_t frame_id, int verdict);
    void Prune();

   private:
    struct Verdict {
      int32_t frame_id;
      int32_t verdict;
    };
    size_t LowerBound(int32_t frame_id) const;
    std::vector<Verdict> entries_;
  };
  // Dependency gate for one (leg, stream): closed after the hub drops any
  // frame of the stream, reopened by the next keyframe. For layered
  // streams it also holds the rung subscription and per-rung rate
  // estimates the selection engine runs on.
  struct StreamGate {
    bool open = true;
    PathId culprit = kInvalidPathId;  // path whose backlog closed the gate
    uint32_t ssrc = 0;
    Timestamp last_pli = Timestamp::MinusInfinity();
    // PLI relays are debounced per (leg, stream): false while one went out
    // within the debounce interval, otherwise claims the slot at `now`.
    bool PliDue(Timestamp now);
    // Admission verdicts for recent frame ids (packets of one frame arrive
    // interleaved across paths). Verdict: admitted rung (0 for
    // single-layer streams), -1 = dropped.
    DecisionWindow decisions;
    // ---- layered state (meaningful when num_rungs > 1) ----
    int num_rungs = 1;
    int current = 0;   // subscribed rung, 0 = highest quality
    int pending = -1;  // rung awaiting a keyframe to take effect
    int deficit_evals = 0;  // consecutive evals wanting a downswitch
    Timestamp last_switch = Timestamp::MinusInfinity();
    // Per-rung ingress byte counts for the current estimation window and
    // the blended rate estimate they feed.
    int64_t rung_window_bytes[kMaxRungs] = {0, 0, 0, 0};
    double rung_rate_bps[kMaxRungs] = {0.0, 0.0, 0.0, 0.0};
  };

  void Process();
  void ProcessPath(PathId path, PathState& ps, Timestamp now);
  void EvictForSpace(PathId path, PathState& ps, Timestamp now);
  // Removes every queued packet of (leg, stream, frame) from ps.queue.
  void EvictFrame(PathId path, PathState& ps, int leg, int stream_id,
                  int64_t frame_id, Timestamp now);
  void Emit(PathId path, PathState& ps, Queued entry, Timestamp now,
            bool padding = false);
  bool AdmitMedia(int leg, PathId path, const RtpPacket& packet,
                  Timestamp now);
  // Layered admission: one rung per frame_id, keyframe-gated switches.
  bool AdmitLayered(StreamGate& g, int leg, PathId path,
                    const RtpPacket& packet, Timestamp now);
  // Drops `packet`'s whole frame at ingress, charged to `culprit`, and
  // closes the stream's dependency gate.
  void ThinFrame(StreamGate& g, int leg, const RtpPacket& packet,
                 PathId culprit, Timestamp now);
  // Re-evaluates every layered stream's rung against the aggregate
  // downlink budget (runs every kLayerEvalInterval inside Process()).
  void EvaluateLayerSelection(Timestamp now);
  // Debounced PLI toward the origin asking for the keyframe that commits
  // a pending rung switch (the gate stays open — unlike CloseGate, the
  // current rung keeps flowing until the key arrives).
  void RequestSwitchKeyframe(StreamGate& gate, int leg, int stream_id,
                             Timestamp now);
  void CloseGate(StreamGate& gate, int leg, int stream_id, PathId culprit,
                 Timestamp now);
  Duration ProjectedDelay(const PathState& ps) const;
  // The worst projected queue delay across paths and the path holding it
  // (the first such path; kInvalidPathId while every queue is empty). A
  // frame is decodable only if every path carries its share, so thinning
  // runs against the worst path.
  struct Backlog {
    Duration delay;
    PathId path = kInvalidPathId;
  };
  Backlog WorstBacklog() const;
  // Worst smoothed (EWMA) queue delay across paths, in milliseconds.
  double WorstSmoothedDelayMs() const;
  PathState& Path(PathId path);
  const PathState& Path(PathId path) const;

  EventLoop* loop_;
  Config config_;
  TransmitFn transmit_;
  PliFn relay_pli_;
  std::map<PathId, std::unique_ptr<PathState>> paths_;
  std::map<std::pair<int, int>, StreamGate> gates_;  // (leg, stream_id)
  RtxHistory rtx_;
  Timestamp last_process_;
  Timestamp last_layer_eval_;
  // Capacity belief the selection budget runs on: tracks the aggregate CC
  // target upward instantly but decays toward it slowly (~4 s), so a
  // probing episode's multiplicative backoff — which the next probe will
  // recover — does not read as a capacity loss and force a downswitch.
  double peak_total_target_bps_ = 0.0;
  std::unique_ptr<RepeatingTask> task_;
};

}  // namespace converge
