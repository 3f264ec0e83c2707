#include "session/sender.h"

#include <algorithm>
#include <string>
#include <utility>

#include "schedulers/path_stats.h"
#include "util/invariants.h"
#include "util/trace_recorder.h"

namespace converge {
namespace {

// Cadence of the scheduler and rate tick, sender reports and SDES
// frame-rate reports.
constexpr Duration kTickInterval = Duration::Millis(50);
constexpr Duration kSrInterval = Duration::Millis(100);
constexpr Duration kSdesInterval = Duration::Seconds(1.0);

}  // namespace

Sender::Sender(EventLoop* loop, Config config, Scheduler* scheduler,
               FecController* fec, std::vector<PathId> path_ids, Random rng,
               TransmitRtpFn transmit_rtp, TransmitRtcpFn transmit_rtcp)
    : loop_(loop),
      config_(std::move(config)),
      scheduler_(scheduler),
      fec_(fec),
      rng_(rng),
      transmit_rtp_(std::move(transmit_rtp)),
      transmit_rtcp_(std::move(transmit_rtcp)),
      path_ids_(std::move(path_ids)),
      rtx_(config_.per_path_nack) {
  for (PathId id : path_ids_) {
    PathState& st = paths_[id];
    CcConfig cc_config = config_.cc;
    cc_config.trace_path = static_cast<int>(id);
    st.cc = MakeCcController(cc_config);
    st.pacer = std::make_unique<Pacer>(
        loop_, Pacer::Config{.trace_path = static_cast<int>(id)},
        [this, id](RtpPacket&& packet) { DispatchPacket(id, std::move(packet)); });
    st.pacer->SetRate(config_.cc.start_rate);
  }
  for (size_t i = 0; i < config_.streams.size(); ++i) {
    const StreamConfig& sc = config_.streams[i];
    StreamState stream;
    stream.encoder =
        std::make_unique<Encoder>(sc.encoder, rng_.Fork());
    Packetizer::Config pconf = sc.packetizer;
    pconf.ssrc = sc.ssrc;
    stream.packetizer = std::make_unique<Packetizer>(pconf);
    Camera::Config cconf = sc.camera;
    cconf.stream_id = static_cast<int>(i);
    stream.camera = std::make_unique<Camera>(
        loop_, cconf, rng_.Fork(),
        [this, i](const RawFrame& raw) { OnCameraFrame(i, raw); });
    streams_.push_back(std::move(stream));
  }
}

Sender::~Sender() = default;

void Sender::Start() {
  for (StreamState& s : streams_) s.camera->Start();
  tick_task_ = std::make_unique<RepeatingTask>(loop_, kTickInterval,
                                               [this] { Tick(); });
  sr_task_ = std::make_unique<RepeatingTask>(
      loop_, kSrInterval, [this] { SendSenderReports(); });
  sdes_task_ = std::make_unique<RepeatingTask>(loop_, kSdesInterval,
                                               [this] { SendSdes(); });
  SendSdes();
}

void Sender::Stop() {
  for (StreamState& s : streams_) s.camera->Stop();
  tick_task_.reset();
  sr_task_.reset();
  sdes_task_.reset();
}

std::vector<DataRate> Sender::AllocatedRates() const {
  std::vector<PathCcSnapshot> snapshots;
  snapshots.reserve(path_ids_.size());
  for (PathId id : path_ids_) {
    const PathState& st = paths_.at(id);
    PathCcSnapshot snap;
    snap.target = st.cc->target_rate();
    snap.goodput = st.cc->goodput();
    snap.srtt = st.cc->smoothed_rtt();
    snap.loss = st.cc->loss_estimate();
    snapshots.push_back(snap);
  }
  return CoupleRates(config_.cc_coupling, snapshots, config_.cc.min_rate);
}

std::vector<PathInfo> Sender::BuildPathInfos() const {
  const std::vector<DataRate> allocated = AllocatedRates();
  std::vector<PathInfo> infos;
  infos.reserve(path_ids_.size());
  for (size_t i = 0; i < path_ids_.size(); ++i) {
    const PathId id = path_ids_[i];
    const PathState& st = paths_.at(id);
    PathInfo info;
    info.id = id;
    info.allocated_rate = allocated[i];
    info.srtt = st.cc->smoothed_rtt();
    info.loss = st.cc->loss_estimate();
    info.goodput = st.cc->goodput();
    info.pacer_queue_bytes = st.pacer->queue_bytes();
    info.pacer_queue_delay = st.pacer->QueueDelay();
    infos.push_back(info);
  }
  return infos;
}

double Sender::AggregateLoss() const {
  // Rate-weighted loss across paths: what application-level (WebRTC-style)
  // FEC keys on (§3.3).
  double weighted = 0.0;
  double total = 0.0;
  for (const auto& [id, st] : paths_) {
    const double rate = static_cast<double>(st.cc->target_rate().bps());
    weighted += st.cc->loss_estimate() * rate;
    total += rate;
  }
  return total > 0.0 ? weighted / total : 0.0;
}

void Sender::OnCameraFrame(size_t stream_index, const RawFrame& raw) {
  StreamState& stream = streams_[stream_index];
  // One EncodedFrame per simulcast rung (exactly one for the historical
  // single-layer config), all sharing the capture's frame_id. Each rung is
  // packetized, scheduled, and FEC-protected independently so a hub can
  // forward any one of them without touching the others.
  const std::vector<EncodedFrame> rungs = stream.encoder->EncodeLayered(raw);
  ++stats_.frames_encoded;
  if (!rungs.empty() && rungs.front().kind == FrameKind::kKey) {
    ++stats_.keyframes_encoded;
    stream.last_keyframe_encoded = loop_->now();
  }
  for (const EncodedFrame& frame : rungs) SendEncodedFrame(stream, frame);
}

void Sender::SendEncodedFrame(StreamState& stream,
                              const EncodedFrame& frame) {
  std::vector<RtpPacket> packets = stream.packetizer->Packetize(frame);
  CONVERGE_INVARIANT("Sender", loop_->now(),
                     std::in_range<uint8_t>(frame.qp),
                     "qp " + std::to_string(frame.qp));
  for (RtpPacket& p : packets) p.qp = frame.qp;

  const std::vector<PathInfo> infos = BuildPathInfos();
  const std::vector<PathId> assignment =
      scheduler_->AssignFrame(packets, infos);

  CONVERGE_INVARIANT("Scheduler", loop_->now(),
                     assignment.size() == packets.size(),
                     scheduler_->name() + " assigned " +
                         std::to_string(assignment.size()) + " of " +
                         std::to_string(packets.size()));
  if (InvariantRegistry::enabled()) {
    for (PathId id : assignment) {
      if (id == kInvalidPathId) continue;  // explicit blackout is legal
      // A scheduler must never place media on a path it itself flags dead.
      CONVERGE_INVARIANT("Scheduler", loop_->now(),
                         paths_.count(id) > 0 && scheduler_->IsPathActive(id),
                         scheduler_->name() + " picked path " +
                             std::to_string(id));
    }
  }

  // Group media by destination path for per-path FEC (§4.3).
  std::map<PathId, std::vector<const RtpPacket*>> per_path;
  for (size_t i = 0; i < packets.size(); ++i) {
    const PathId path = assignment[i];
    if (path == kInvalidPathId) continue;  // blackout (CM) — not sent
    per_path[path].push_back(&packets[i]);
  }

  if (TraceRecorder* trace = TraceRecorder::Current()) {
    // The per-frame split decision: one counter per destination path (paths
    // assigned nothing this frame report zero so their series stays dense),
    // plus one instant carrying the frame's packet count and kind.
    for (PathId id : path_ids_) {
      auto it = per_path.find(id);
      const double share =
          it != per_path.end() ? static_cast<double>(it->second.size()) : 0.0;
      trace->Counter("scheduler", "split_pkts", loop_->now(), share,
                     static_cast<int32_t>(id));
    }
    trace->Instant("scheduler", "frame_assigned", loop_->now(),
                   static_cast<double>(packets.size()), -1,
                   static_cast<int32_t>(frame.stream_id),
                   frame.kind == FrameKind::kKey ? 1.0 : 0.0);
  }

  // Send media packets.
  for (size_t i = 0; i < packets.size(); ++i) {
    const PathId path = assignment[i];
    if (path == kInvalidPathId) continue;
    ++stats_.media_packets_sent;
    stats_.media_bytes_sent += packets[i].wire_size();
    DispatchToPacer(path, packets[i]);
  }

  // Per-path FEC generation (§4.3). Parity covers a sliding window of the
  // path's recent media for this stream: at low loss the controller emits a
  // parity packet only every few frames, and covering the whole interval
  // keeps FEC utilization high (one parity packet guards ~1/l_i packets).
  if (config_.enable_fec && fec_ != nullptr) {
    const double aggregate = AggregateLoss();
    for (auto& [path, media] : per_path) {
      auto pit = paths_.find(path);
      const double path_loss =
          pit != paths_.end() ? pit->second.cc->loss_estimate() : 0.0;
      const int n_fec = fec_->NumFecPackets(
          static_cast<int>(media.size()), frame.kind, path, path_loss,
          aggregate);
      // Every controller caps parity at the media count it protects; more
      // would mean FEC overhead above 100% of the frame's share.
      CONVERGE_INVARIANT("FecController", loop_->now(),
                         n_fec >= 0 && n_fec <= static_cast<int>(media.size()),
                         "n_fec=" + std::to_string(n_fec) +
                             " media=" + std::to_string(media.size()) +
                             " path=" + std::to_string(path));

      auto& window = fec_window_[{path, frame.stream_id, frame.spatial_id}];
      for (const RtpPacket* p : media) window.push_back(*p);
      while (window.size() > kFecWindowPackets) window.pop_front();

      if (n_fec > 0) {
        std::vector<const RtpPacket*> covered;
        covered.reserve(window.size());
        for (const RtpPacket& p : window) covered.push_back(&p);
        std::vector<RtpPacket> parity =
            XorFecEncoder::Generate(covered, n_fec, next_fec_block_++);
        for (RtpPacket& fp : parity) {
          fp.seq = stream.next_fec_seq++;
          fp.qp = frame.qp;
          const PathId target = scheduler_->ChooseFecPath(fp, path, infos);
          if (target == kInvalidPathId) continue;
          ++stats_.fec_packets_sent;
          stats_.fec_bytes_sent += fp.wire_size();
          DispatchToPacer(target, fp);
        }
        window.clear();
      }
      fec_->OnFrameSent(path, static_cast<int>(media.size()), n_fec);
    }
  }
}

void Sender::DispatchToPacer(PathId path, const RtpPacket& packet) {
  auto it = paths_.find(path);
  if (it == paths_.end()) return;
  RtpPacket copy = packet;
  CONVERGE_INVARIANT("Sender", loop_->now(), FitsPacketPathId(path),
                     "path " + std::to_string(path));
  copy.path_id = path;
  it->second.pacer->Enqueue(std::move(copy));
}

void Sender::DispatchPacket(PathId path, RtpPacket packet) {
  PathState& st = paths_.at(path);
  packet.send_time = loop_->now();
  // Multipath sequence numbers are stamped at pacer *output* so the on-wire
  // order per path is strictly sequential even when retransmissions jump
  // the pacer queue (otherwise the receiver would read reordering as loss).
  st.egress.Stamp(packet);
  rtx_.OnSent(/*leg=*/0, packet);

  if (packet.IsMediaLike()) {
    // Min-srtt path computed directly (strict less, first wins, in
    // path_ids_ order — exactly MinSrttPath over BuildPathInfos()) so the
    // per-packet hot path does not materialize a PathInfo vector just for
    // this lookup.
    PathId fast = kInvalidPathId;
    Duration best_srtt = Duration::Zero();
    for (PathId id : path_ids_) {
      const Duration srtt = paths_.at(id).cc->smoothed_rtt();
      if (fast == kInvalidPathId || srtt < best_srtt) {
        fast = id;
        best_srtt = srtt;
      }
    }
    if (path == fast) last_fast_packet_ = packet;
  }

  transmit_rtp_(path, std::move(packet));
}

void Sender::Tick() {
  const Timestamp now = loop_->now();
  std::vector<PathInfo> infos = BuildPathInfos();
  scheduler_->OnTick(infos, now);

  // Per-path pacing rates and the aggregate encoder target (§4.1): the
  // encoder runs at min(sum of active path rates, application max). Rates
  // go through the coupling strategy first; under kUncoupled they are
  // exactly each controller's own target.
  const std::vector<DataRate> allocated = AllocatedRates();
  DataRate total = DataRate::Zero();
  for (size_t i = 0; i < path_ids_.size(); ++i) {
    const PathId id = path_ids_[i];
    PathState& st = paths_.at(id);
    const DataRate rate = allocated[i];
    st.pacer->SetRate(std::max(rate, DataRate::KilobitsPerSec(100)));
    if (scheduler_->IsPathActive(id)) total += rate;
  }
  encoder_target_ = std::min(total, config_.max_total_rate);

  // Encoder pushback: if any active path's pacer backlog grows, throttle
  // the encoder below the nominal aggregate until the queue drains (WebRTC's
  // pacer-queue signal into the bitrate allocator).
  Duration worst_queue = Duration::Zero();
  for (PathId id : path_ids_) {
    if (!scheduler_->IsPathActive(id)) continue;
    worst_queue = std::max(worst_queue, paths_.at(id).pacer->QueueDelay());
  }
  if (worst_queue > Duration::Millis(100) && !worst_queue.IsInfinite()) {
    const double factor = std::clamp(100.0 / worst_queue.ms(), 0.3, 1.0);
    encoder_target_ = encoder_target_ * factor;
  }

  const DataRate per_stream =
      encoder_target_ / static_cast<int64_t>(std::max<size_t>(1, streams_.size()));
  for (StreamState& s : streams_) s.encoder->SetTargetRate(per_stream);

  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Counter("sender", "encoder_target_kbps", now,
                   static_cast<double>(encoder_target_.bps()) / 1000.0);
  }

  // Probe disabled paths with duplicated fast-path packets (§4.2).
  for (PathId path : scheduler_->PathsNeedingProbe(now)) {
    if (!last_fast_packet_.has_value()) break;
    RtpPacket probe = *last_fast_packet_;
    probe.is_probe_duplicate = true;
    probe.kind = PayloadKind::kProbe;
    probe.priority = Priority::kNone;
    ++stats_.probe_packets_sent;
    DispatchToPacer(path, probe);
  }
}

void Sender::SendSenderReports() {
  for (PathId id : path_ids_) {
    RtcpPacket rtcp;
    rtcp.path_id = id;
    SenderReport sr;
    sr.ssrc = streams_.empty() ? 0 : config_.streams.front().ssrc;
    sr.send_time = loop_->now();
    sr.packet_count = static_cast<uint32_t>(stats_.media_packets_sent);
    rtcp.payload = sr;
    transmit_rtcp_(id, rtcp);
  }
}

void Sender::SendSdes() {
  // Announce the expected frame rate so the receiver can derive IFD_exp.
  const std::vector<PathInfo> infos = BuildPathInfos();
  const PathId fast = MinSrttPath(infos);
  if (fast == kInvalidPathId) return;
  for (size_t i = 0; i < streams_.size(); ++i) {
    RtcpPacket rtcp;
    rtcp.path_id = fast;
    SdesFrameRate sdes;
    sdes.ssrc = config_.streams[i].ssrc;
    sdes.fps = streams_[i].camera->fps();
    rtcp.payload = sdes;
    transmit_rtcp_(fast, rtcp);
  }
}

void Sender::HandleRtcp(const RtcpPacket& packet, Timestamp arrival) {
  const PathId path_id = packet.path_id;
  auto pit = paths_.find(path_id);

  if (const auto* rr = std::get_if<ReceiverReport>(&packet.payload)) {
    if (pit == paths_.end()) return;
    Duration rtt = Duration::Zero();
    if (rr->last_sr_time.IsFinite()) {
      rtt = arrival - rr->last_sr_time - rr->delay_since_last_sr;
      if (rtt < Duration::Zero()) rtt = Duration::Zero();
    }
    pit->second.cc->OnReceiverReport(rr->fraction_lost, rtt, arrival);
  } else if (const auto* fb =
                 std::get_if<TransportFeedback>(&packet.payload)) {
    HandleTransportFeedback(*fb, path_id, arrival);
  } else if (const auto* nack = std::get_if<Nack>(&packet.payload)) {
    HandleNack(*nack, path_id);
  } else if (const auto* pli =
                 std::get_if<KeyframeRequest>(&packet.payload)) {
    for (size_t i = 0; i < config_.streams.size(); ++i) {
      if (config_.streams[i].ssrc != pli->ssrc) continue;
      // Debounce: a keyframe encoded moments ago is likely still in
      // flight; re-keying would only burn bandwidth.
      if (streams_[i].last_keyframe_encoded.IsFinite() &&
          arrival - streams_[i].last_keyframe_encoded <
              Duration::Millis(500)) {
        continue;
      }
      streams_[i].encoder->RequestKeyframe();
    }
  } else if (const auto* qoe = std::get_if<QoeFeedback>(&packet.payload)) {
    scheduler_->OnQoeFeedback(*qoe);
  }
}

void Sender::HandleTransportFeedback(const TransportFeedback& feedback,
                                     PathId path_id, Timestamp now) {
  auto pit = paths_.find(path_id);
  if (pit == paths_.end()) return;
  PathState& st = pit->second;
  st.cc->OnTransportFeedback(
      st.egress.Match(feedback, feedback_horizon_misses_), now);
}

void Sender::HandleNack(const Nack& nack, PathId report_path) {
  const std::vector<PathInfo> infos = BuildPathInfos();
  std::map<PathId, int> losses_per_path;
  rtx_.AnswerNack(
      /*leg=*/0, report_path, nack, loop_->now(),
      [&](RtpPacket rtx, PathId origin, uint16_t) {
        const PathId target = scheduler_->ChooseRtxPath(rtx, infos);
        if (target == kInvalidPathId) return false;
        ++stats_.rtx_packets_sent;
        ++losses_per_path[origin];
        DispatchToPacer(target, rtx);
        return true;
      });
  if (fec_ != nullptr) {
    for (const auto& [path, count] : losses_per_path) {
      fec_->OnNack(path, count);
    }
  }
}

size_t Sender::history_pages_allocated() const {
  size_t pages = rtx_.pages_allocated();
  for (const auto& [id, st] : paths_) pages += st.egress.pages_allocated();
  return pages;
}

double Sender::path_loss(PathId path) const {
  auto it = paths_.find(path);
  return it == paths_.end() ? 0.0 : it->second.cc->loss_estimate();
}

}  // namespace converge
