#include "receiver/receiver.h"

#include <utility>

#include "util/trace_recorder.h"

namespace converge {

VideoReceiveStream::VideoReceiveStream(EventLoop* loop, Config config,
                                       Callbacks callbacks)
    : loop_(loop),
      config_(config),
      callbacks_(std::move(callbacks)),
      fec_([this](RtpPacket recovered) {
        // Recovered packets rejoin the media pipeline with the original
        // arrival context (recovery happens upon the triggering arrival).
        OnMediaLikePacket(std::move(recovered), current_arrival_,
                          current_path_);
      }),
      packet_buffer_(config.packet_buffer,
                     [this](GatheredFrame&& gathered) {
                       // The monitor always *measures* (FCD/IFD feed the
                       // metrics); enable_qoe_feedback only gates whether
                       // feedback messages leave the endpoint.
                       qoe_monitor_.OnFrameGathered(gathered);
                       const int32_t stream_id = gathered.frame.stream_id;
                       const Duration fcd = gathered.frame.fcd;
                       frame_buffer_.Insert(std::move(gathered.frame));
                       qoe_monitor_.OnFrameInserted(frame_buffer_.last_ifd());
                       if (callbacks_.on_gathered) {
                         callbacks_.on_gathered(fcd, frame_buffer_.last_ifd());
                       }
                       if (TraceRecorder* trace = TraceRecorder::Current()) {
                         trace->Counter("packet_buffer", "frames", loop_->now(),
                                        static_cast<double>(packet_buffer_.size()),
                                        -1, stream_id);
                         trace->Counter("frame_buffer", "frames", loop_->now(),
                                        static_cast<double>(frame_buffer_.size()),
                                        -1, stream_id);
                       }
                     }),
      frame_buffer_(
          loop, config.frame_buffer,
          [this](const AssembledFrame& frame) { decoder_.Decode(frame); },
          [this] { RequestKeyframe(); },
          [this](int64_t upto_frame) {
            packet_buffer_.PurgeFramesUpTo(upto_frame);
          }),
      qoe_monitor_(loop, config.qoe,
                   [this](const QoeFeedback& fb) {
                     if (config_.enable_qoe_feedback &&
                         callbacks_.send_qoe_feedback) {
                       callbacks_.send_qoe_feedback(fb);
                     }
                   }),
      decoder_(
          loop, config.decoder,
          [this](const DecodedFrame& frame) {
            if (callbacks_.on_decoded) callbacks_.on_decoded(frame);
          },
          [this](const AssembledFrame&) { RequestKeyframe(); }) {}

void VideoReceiveStream::OnRtpPacket(RtpPacket packet, Timestamp arrival,
                                     PathId path) {
  ++packets_received_;
  current_arrival_ = arrival;
  current_path_ = path;

  if (packet.kind == PayloadKind::kFec) {
    fec_.OnFecPacket(packet);
    return;
  }
  OnMediaLikePacket(std::move(packet), arrival, path);
}

void VideoReceiveStream::OnMediaLikePacket(RtpPacket packet,
                                           Timestamp arrival, PathId path) {
  // A rebuilt packet was recorded when FEC rebuilt it; any other copy of a
  // recorded seq is a duplicate, also after its frame left the buffer.
  if (!packet.via_fec) {
    if (fec_.Seen(packet.seq)) {
      packet_buffer_.CountDuplicate();
      return;
    }
    fec_.OnMediaPacket(packet);
  }
  packet_buffer_.Insert(std::move(packet), arrival, path);
}

void VideoReceiveStream::RequestKeyframe() {
  const Timestamp now = loop_->now();
  if (last_keyframe_request_.IsFinite() &&
      now - last_keyframe_request_ < config_.min_keyframe_request_interval) {
    return;
  }
  last_keyframe_request_ = now;
  ++keyframe_requests_;
  if (callbacks_.send_keyframe_request) {
    callbacks_.send_keyframe_request(config_.ssrc);
  }
}

VideoReceiveStream::Stats VideoReceiveStream::GetStats() const {
  Stats s;
  s.packets_received = packets_received_;
  s.keyframe_requests = keyframe_requests_;
  s.frame_buffer_dropped = frame_buffer_.stats().frames_dropped;
  s.packet_buffer_destroyed = packet_buffer_.stats().frames_destroyed;
  s.decode_failures = decoder_.decode_failures();
  s.frames_decoded = decoder_.frames_decoded();
  return s;
}

}  // namespace converge
