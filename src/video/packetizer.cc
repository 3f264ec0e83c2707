#include "video/packetizer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/invariants.h"

namespace converge {

std::vector<RtpPacket> Packetizer::Packetize(const EncodedFrame& frame) {
  std::vector<RtpPacket> packets;
  const bool keyframe = frame.kind == FrameKind::kKey;
  const uint32_t rtp_ts =
      static_cast<uint32_t>(frame.capture_time.us() * 90 / 1000);  // 90 kHz

  // RtpPacket's fields are narrower than the frame's: report a value that
  // would wrap instead of letting it.
  const Timestamp at = frame.capture_time;
  CONVERGE_INVARIANT("Packetizer", at, std::in_range<int32_t>(frame.frame_id),
                     "frame_id " + std::to_string(frame.frame_id));
  CONVERGE_INVARIANT("Packetizer", at, std::in_range<int32_t>(frame.gop_id),
                     "gop_id " + std::to_string(frame.gop_id));
  CONVERGE_INVARIANT("Packetizer", at, std::in_range<uint8_t>(frame.stream_id),
                     "stream_id " + std::to_string(frame.stream_id));
  CONVERGE_INVARIANT(
      "Packetizer", at,
      frame.spatial_id >= 0 && frame.num_spatial >= 0 &&
          frame.temporal_id >= 0 && frame.num_temporal >= 0 &&
          std::max({frame.spatial_id, frame.num_spatial, frame.temporal_id,
                    frame.num_temporal}) <= kMaxLayerCoordinate,
      "layers " + std::to_string(frame.spatial_id) + "/" +
          std::to_string(frame.num_spatial) + " " +
          std::to_string(frame.temporal_id) + "/" +
          std::to_string(frame.num_temporal));

  auto base_packet = [&](PayloadKind kind, Priority priority,
                         int64_t payload) {
    CONVERGE_INVARIANT("Packetizer", at, std::in_range<int32_t>(payload),
                       "payload_bytes " + std::to_string(payload));
    RtpPacket p;
    p.ssrc = config_.ssrc;
    p.seq = next_seq_++;
    p.rtp_timestamp = rtp_ts;
    p.kind = kind;
    p.priority = priority;
    p.frame_kind = frame.kind;
    p.stream_id = static_cast<uint8_t>(frame.stream_id);
    p.frame_id = static_cast<int32_t>(frame.frame_id);
    p.gop_id = static_cast<int32_t>(frame.gop_id);
    p.payload_bytes = static_cast<int32_t>(payload);
    p.capture_time = frame.capture_time;
    p.spatial_id = static_cast<uint8_t>(frame.spatial_id);
    p.num_spatial = static_cast<uint8_t>(frame.num_spatial);
    p.temporal_id = static_cast<uint8_t>(frame.temporal_id);
    p.num_temporal = static_cast<uint8_t>(frame.num_temporal);
    return p;
  };

  // SPS: decoding information for the group of frames; present at GOP start.
  if (keyframe) {
    packets.push_back(
        base_packet(PayloadKind::kSps, Priority::kSps, config_.sps_bytes));
  }
  // PPS: decoding information for this frame; present on every frame.
  packets.push_back(
      base_packet(PayloadKind::kPps, Priority::kPps, config_.pps_bytes));

  // Media slices. Keyframe media carries Table-2 priority 2; delta media is
  // unprioritized and split across paths by rate (§4.1).
  const Priority media_priority =
      keyframe ? Priority::kKeyframe : Priority::kNone;
  int64_t remaining = std::max<int64_t>(frame.size_bytes, 1);
  while (remaining > 0) {
    const int64_t payload = std::min(remaining, config_.max_payload_bytes);
    packets.push_back(
        base_packet(PayloadKind::kMedia, media_priority, payload));
    remaining -= payload;
  }

  packets.front().first_in_frame = true;
  packets.back().last_in_frame = true;
  packets.back().marker = true;
  return packets;
}

}  // namespace converge
