#include "session/receiver_endpoint.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace converge {

ReceiverEndpoint::ReceiverEndpoint(EventLoop* loop, Config config,
                                   MetricsCollector* metrics,
                                   TransmitRtcpFn transmit_rtcp)
    : loop_(loop),
      config_(std::move(config)),
      metrics_(metrics),
      transmit_rtcp_(std::move(transmit_rtcp)) {
  for (size_t i = 0; i < config_.ssrcs.size(); ++i) {
    VideoReceiveStream::Config sc = config_.stream_template;
    sc.ssrc = config_.ssrcs[i];
    sc.stream_id = static_cast<int>(i);

    VideoReceiveStream::Callbacks callbacks;
    callbacks.send_keyframe_request = [this](uint32_t ssrc) {
      RtcpPacket rtcp;
      KeyframeRequest req;
      req.ssrc = ssrc;
      rtcp.payload = req;
      SendImmediate(rtcp);
    };
    callbacks.send_qoe_feedback = [this](const QoeFeedback& fb) {
      RtcpPacket rtcp;
      rtcp.path_id = fb.path_id;
      rtcp.payload = fb;
      SendImmediate(rtcp);
    };
    callbacks.on_decoded = [this](const DecodedFrame& frame) {
      if (metrics_ != nullptr) metrics_->OnDecodedFrame(frame);
    };
    callbacks.on_gathered = [this](Duration fcd, Duration ifd) {
      if (metrics_ != nullptr) metrics_->OnFrameGatheredDelays(fcd, ifd);
    };
    streams_.push_back(
        std::make_unique<VideoReceiveStream>(loop_, sc, callbacks));
  }

  // Loss detection (see Config::per_path_nack). In per-path mode NACKs
  // carry (path, mp_seqs); in legacy mode they carry (ssrc, media seqs).
  nack_ = std::make_unique<NackGenerator>(
      loop_, config_.nack,
      [this](int64_t flow, const std::vector<uint16_t>& seqs) {
        RtcpPacket rtcp;
        Nack nack;
        nack.seqs = seqs;
        if (config_.per_path_nack) {
          rtcp.path_id = static_cast<PathId>(flow);
        } else {
          nack.ssrc = static_cast<uint32_t>(flow);
        }
        rtcp.payload = nack;
        SendImmediate(rtcp);
      });
}

ReceiverEndpoint::~ReceiverEndpoint() = default;

void ReceiverEndpoint::Start() {
  feedback_task_ = std::make_unique<RepeatingTask>(
      loop_, config_.feedback_interval, [this] { SendFeedback(); });
}

void ReceiverEndpoint::Stop() {
  feedback_task_.reset();
  nack_->Stop();
}

int ReceiverEndpoint::StreamIndexOf(uint32_t ssrc) const {
  for (size_t i = 0; i < config_.ssrcs.size(); ++i) {
    if (config_.ssrcs[i] == ssrc) return static_cast<int>(i);
  }
  return -1;
}

void ReceiverEndpoint::OnRtpPacket(RtpPacket packet, Timestamp arrival,
                                   PathId path) {
  ++stats_.rtp_received;
  PathReceiveState& ps = path_state_[path];
  ps.last_activity = arrival;

  if (config_.per_path_nack) {
    // Gap in the path's FIFO sequence space == loss.
    nack_->OnPacket(path, packet.mp_seq);
    if (packet.via_rtx && packet.rtx_for_path != kInvalidPathId) {
      nack_->OnRecovered(packet.rtx_for_path, packet.rtx_for_mp_seq);
    }
  } else if (packet.kind != PayloadKind::kFec &&
             !packet.is_probe_duplicate) {
    // Legacy: per-SSRC media sequence gaps. An RTX naturally carries the
    // original (ssrc, seq), so its arrival clears the chase by itself —
    // and packets merely in flight on another path trigger spurious NACKs.
    nack_->OnPacket(static_cast<int64_t>(packet.ssrc), packet.seq);
  }

  // Transport-wide accounting (all packet kinds).
  const int64_t tseq = ps.transport_unwrapper.Unwrap(packet.mp_transport_seq);
  auto& pending = ps.pending_arrivals;
  if (pending.empty() || tseq > pending.back().first) {
    pending.emplace_back(tseq, arrival);
  } else {
    auto it = std::lower_bound(
        pending.begin(), pending.end(), tseq,
        [](const auto& entry, int64_t seq) { return entry.first < seq; });
    if (it->first == tseq) {
      it->second = arrival;  // a later copy: report its arrival
    } else {
      pending.emplace(it, tseq, arrival);
    }
  }

  // Per-path sequence accounting for the receiver report.
  const int64_t mpseq = ps.mp_unwrapper.Unwrap(packet.mp_seq);
  if (ps.expected_base < 0) ps.expected_base = mpseq;
  ps.highest_mp_seq = std::max(ps.highest_mp_seq, mpseq);
  ++ps.received_in_interval;

  // Jitter on send/arrival deltas (RFC 3550 flavor).
  if (ps.prev_arrival.IsFinite()) {
    const double d = std::fabs((arrival - ps.prev_arrival).ms() -
                               (packet.send_time - ps.prev_send).ms());
    ps.jitter_ms += (d - ps.jitter_ms) / 16.0;
  }
  ps.prev_arrival = arrival;
  ps.prev_send = packet.send_time;

  if (packet.kind == PayloadKind::kFec) {
    stats_.fec_bytes += packet.wire_size();
  } else if (!packet.is_probe_duplicate) {
    stats_.media_bytes += packet.wire_size();
    if (metrics_ != nullptr) {
      metrics_->OnMediaBytesReceived(packet.stream_id, packet.wire_size());
    }
  }

  // Probe duplicates only refresh path statistics (§4.2).
  if (packet.is_probe_duplicate) return;

  const int idx = StreamIndexOf(packet.ssrc);
  if (idx < 0) return;
  streams_[static_cast<size_t>(idx)]->OnRtpPacket(std::move(packet), arrival,
                                                  path);
}

void ReceiverEndpoint::OnRtcpPacket(const RtcpPacket& packet,
                                    Timestamp arrival, PathId path) {
  if (const auto* sr = std::get_if<SenderReport>(&packet.payload)) {
    PathReceiveState& ps = path_state_[path];
    ps.last_sr_time = sr->send_time;
    ps.last_sr_arrival = arrival;
  } else if (const auto* sdes = std::get_if<SdesFrameRate>(&packet.payload)) {
    const int idx = StreamIndexOf(sdes->ssrc);
    if (idx >= 0) {
      streams_[static_cast<size_t>(idx)]->OnSdesFrameRate(sdes->fps);
    }
  }
}

void ReceiverEndpoint::SendFeedback() {
  const Timestamp now = loop_->now();
  for (auto& [path, ps] : path_state_) {
    if (!ps.last_activity.IsFinite()) continue;

    // Transport feedback: every transport seq in (highest_reported,
    // max_pending], received or not.
    // Arrivals at or below highest_reported are left out: their seqs were
    // reported already. When they are all the interval holds, hi falls
    // below lo: the feedback is empty and highest_reported stays, so no
    // seq is ever reported twice.
    if (!ps.pending_arrivals.empty()) {
      TransportFeedback fb;
      const int64_t hi = ps.pending_arrivals.back().first;
      const int64_t lo = ps.highest_reported >= 0
                             ? ps.highest_reported + 1
                             : ps.pending_arrivals.front().first;
      auto it = ps.pending_arrivals.begin();
      for (int64_t s = lo; s <= hi; ++s) {
        while (it->first < s) ++it;  // hi is the last entry: never runs off
        TransportFeedback::Arrival a;
        a.mp_transport_seq = s;
        a.recv_time = it->first == s ? it->second : Timestamp::MinusInfinity();
        fb.arrivals.push_back(a);
      }
      ps.highest_reported = std::max(ps.highest_reported, hi);
      ps.pending_arrivals.clear();

      RtcpPacket rtcp;
      rtcp.path_id = path;
      rtcp.payload = std::move(fb);
      ++stats_.rtcp_sent;
      transmit_rtcp_(path, rtcp);
    }

    // Receiver report with per-path loss (Figure 19 extension).
    ReceiverReport rr;
    rr.ssrc = config_.ssrcs.empty() ? 0 : config_.ssrcs.front();
    const int64_t expected = ps.highest_mp_seq - ps.expected_base + 1;
    if (expected > 0) {
      const int64_t lost =
          std::max<int64_t>(0, expected - ps.received_in_interval);
      rr.fraction_lost = static_cast<double>(lost) /
                         static_cast<double>(std::max<int64_t>(1, expected));
      ps.cumulative_lost += lost;
      rr.cumulative_lost = ps.cumulative_lost;
    }
    ps.expected_base = ps.highest_mp_seq + 1;
    ps.received_in_interval = 0;
    rr.ext_high_mp_seq = static_cast<uint16_t>(ps.highest_mp_seq & 0xFFFF);
    rr.jitter = Duration::Micros(static_cast<int64_t>(ps.jitter_ms * 1000.0));
    rr.last_sr_time = ps.last_sr_time;
    rr.delay_since_last_sr = ps.last_sr_arrival.IsFinite()
                                 ? now - ps.last_sr_arrival
                                 : Duration::Zero();
    RtcpPacket rtcp;
    rtcp.path_id = path;
    rtcp.payload = rr;
    ++stats_.rtcp_sent;
    transmit_rtcp_(path, rtcp);
  }
}

void ReceiverEndpoint::SendImmediate(const RtcpPacket& packet) {
  // Critical feedback (NACK / PLI / QoE) is duplicated on every path that has
  // shown recent activity, so it survives a failing path; the sender
  // de-duplicates.
  const Timestamp now = loop_->now();
  bool sent = false;
  for (const auto& [path, ps] : path_state_) {
    if (ps.last_activity.IsFinite() &&
        now - ps.last_activity < Duration::Seconds(2.0)) {
      ++stats_.rtcp_sent;
      transmit_rtcp_(path, packet);
      sent = true;
    }
  }
  if (!sent && !path_state_.empty()) {
    ++stats_.rtcp_sent;
    transmit_rtcp_(path_state_.begin()->first, packet);
  }
}

}  // namespace converge
