// The receiving endpoint: per-stream receive pipelines plus the per-path
// RTCP machinery — receiver reports with the Figure-19 path extension,
// transport-wide feedback per path, immediate NACK/PLI/QoE feedback, and the
// SR echo needed for RTT measurement.
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "receiver/nack_generator.h"
#include "receiver/receiver.h"
#include "rtp/rtcp.h"
#include "rtp/sequence_number.h"
#include "session/metrics.h"
#include "sim/event_loop.h"

namespace converge {

class ReceiverEndpoint {
 public:
  struct Config {
    std::vector<uint32_t> ssrcs;  // one per camera stream, index = stream id
    VideoReceiveStream::Config stream_template;
    NackGenerator::Config nack;
    // Converge mode: loss detection over per-path sequence spaces (the
    // Appendix-B RTP extension), where a gap IS loss. Legacy mode (stock
    // WebRTC and the multipath variants of §2.2): gaps in the per-SSRC
    // media sequence space, where cross-path reordering looks like loss —
    // the spurious-retransmission behaviour §2.3 reports.
    bool per_path_nack = true;
    Duration feedback_interval = Duration::Millis(50);
  };

  struct Stats {
    int64_t rtp_received = 0;
    int64_t media_bytes = 0;
    int64_t fec_bytes = 0;
    int64_t rtcp_sent = 0;
  };

  // Feedback toward the sender; the Call wires it to the path's backward
  // link.
  using TransmitRtcpFn =
      std::function<void(PathId path, const RtcpPacket& packet)>;

  ReceiverEndpoint(EventLoop* loop, Config config, MetricsCollector* metrics,
                   TransmitRtcpFn transmit_rtcp);
  ~ReceiverEndpoint();

  void Start();
  // Cancels the periodic feedback and NACK timers when the participant
  // leaves mid-call. Late packets still in flight may keep arriving; they
  // are absorbed (and counted) but no longer generate feedback toward the
  // sender.
  void Stop();

  // Network delivery entry points. RTP packets arrive by value and are moved
  // through the stream pipeline into the packet buffer.
  void OnRtpPacket(RtpPacket packet, Timestamp arrival, PathId path);
  void OnRtcpPacket(const RtcpPacket& packet, Timestamp arrival, PathId path);

  const Stats& stats() const { return stats_; }
  const VideoReceiveStream& stream(int stream_id) const {
    return *streams_.at(static_cast<size_t>(stream_id));
  }
  size_t num_streams() const { return streams_.size(); }
  const NackGenerator& nack() const { return *nack_; }

 private:
  struct PathReceiveState {
    SeqUnwrapper transport_unwrapper;
    // Arrivals since the last transport feedback, (seq, time) sorted by seq
    // with each seq once. Cleared, not freed, after each feedback.
    std::vector<std::pair<int64_t, Timestamp>> pending_arrivals;
    int64_t highest_reported = -1;
    // Per-path media loss accounting (mp_seq space).
    SeqUnwrapper mp_unwrapper;
    int64_t highest_mp_seq = -1;
    int64_t received_in_interval = 0;
    int64_t expected_base = -1;
    int64_t cumulative_lost = 0;
    // SR echo.
    Timestamp last_sr_time = Timestamp::MinusInfinity();
    Timestamp last_sr_arrival = Timestamp::MinusInfinity();
    Timestamp last_activity = Timestamp::MinusInfinity();
    // Jitter (RFC 3550 style, on arrival deltas).
    double jitter_ms = 0.0;
    Timestamp prev_arrival = Timestamp::MinusInfinity();
    Timestamp prev_send = Timestamp::MinusInfinity();
  };

  void SendFeedback();
  void SendImmediate(const RtcpPacket& packet);
  int StreamIndexOf(uint32_t ssrc) const;

  EventLoop* loop_;
  Config config_;
  MetricsCollector* metrics_;
  TransmitRtcpFn transmit_rtcp_;
  Stats stats_;

  std::vector<std::unique_ptr<VideoReceiveStream>> streams_;
  std::unique_ptr<NackGenerator> nack_;
  std::map<PathId, PathReceiveState> path_state_;
  std::unique_ptr<RepeatingTask> feedback_task_;
};

}  // namespace converge
