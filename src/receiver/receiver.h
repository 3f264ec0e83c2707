// Per-stream receive pipeline: FEC recovery -> packet buffer -> frame buffer
// -> decoder, with NACK generation and the Converge QoE monitor attached.
// One instance per camera stream (SSRC); the session-level endpoint owns the
// per-path RTCP machinery and feeds packets in.
#pragma once

#include <functional>
#include <memory>

#include "receiver/fec_recovery.h"
#include "receiver/frame_buffer.h"
#include "receiver/packet_buffer.h"
#include "receiver/qoe_monitor.h"
#include "rtp/rtcp.h"
#include "video/decoder.h"

namespace converge {

class VideoReceiveStream {
 public:
  struct Config {
    uint32_t ssrc = 0;
    int stream_id = 0;
    PacketBuffer::Config packet_buffer;
    FrameBuffer::Config frame_buffer;
    QoeMonitor::Config qoe;
    Decoder::Config decoder;
    Duration min_keyframe_request_interval = Duration::Millis(1000);
    bool enable_qoe_feedback = true;  // Converge on; baselines off
  };

  // NACK generation lives at the endpoint (it operates on per-path
  // sequence spaces shared by all streams); the stream only raises
  // keyframe requests, QoE feedback, and decoded frames.
  struct Callbacks {
    std::function<void(uint32_t ssrc)> send_keyframe_request;
    std::function<void(const QoeFeedback&)> send_qoe_feedback;
    std::function<void(const DecodedFrame&)> on_decoded;
    // Once per gathered frame: its FCD and the IFD of its frame-buffer
    // insertion (§4.2).
    std::function<void(Duration fcd, Duration ifd)> on_gathered;
  };

  struct Stats {
    int64_t packets_received = 0;
    int64_t keyframe_requests = 0;
    // Frames lost at the receiver: skipped by the frame buffer, destroyed in
    // the packet buffer, or undecodable at the decoder.
    int64_t FrameDrops() const {
      return frame_buffer_dropped + packet_buffer_destroyed + decode_failures;
    }
    int64_t frame_buffer_dropped = 0;
    int64_t packet_buffer_destroyed = 0;
    int64_t decode_failures = 0;
    int64_t frames_decoded = 0;
  };

  VideoReceiveStream(EventLoop* loop, Config config, Callbacks callbacks);

  // Entry point for every RTP packet of this SSRC (any path, any kind).
  // By value: the packet is moved through to the packet buffer.
  void OnRtpPacket(RtpPacket packet, Timestamp arrival, PathId path);

  // Sender announcements.
  void OnSdesFrameRate(double fps) { qoe_monitor_.SetExpectedFps(fps); }

  Stats GetStats() const;
  const FecRecoverer& fec() const { return fec_; }
  const QoeMonitor& qoe() const { return qoe_monitor_; }
  const PacketBuffer& packet_buffer() const { return packet_buffer_; }
  const FrameBuffer& frame_buffer() const { return frame_buffer_; }

 private:
  void OnMediaLikePacket(RtpPacket packet, Timestamp arrival, PathId path);
  void RequestKeyframe();

  EventLoop* loop_;
  Config config_;
  Callbacks callbacks_;

  FecRecoverer fec_;
  PacketBuffer packet_buffer_;
  FrameBuffer frame_buffer_;
  QoeMonitor qoe_monitor_;
  Decoder decoder_;

  int64_t packets_received_ = 0;
  int64_t keyframe_requests_ = 0;
  Timestamp last_keyframe_request_ = Timestamp::MinusInfinity();
  // Arrival context while a packet traverses the recovery path.
  Timestamp current_arrival_;
  PathId current_path_ = kInvalidPathId;
};

}  // namespace converge
