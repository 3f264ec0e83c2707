#include "session/rtx_history.h"

#include <limits>
#include <string>

#include "util/invariants.h"

namespace converge {

void RtxHistory::OnSent(int leg, const RtpPacket& packet) {
  // Only media-like packets are retransmittable (FEC and probes are not
  // worth recovering). A legacy window takes originals only: an RTX copy
  // keeps its original's (ssrc, seq), which already holds the entry.
  const bool media_like = packet.IsMediaLike();
  if (!per_path_nack_ && (!media_like || packet.via_rtx)) return;
  const Flow flow{leg, per_path_nack_ ? int64_t{packet.path_id}
                                      : int64_t{packet.ssrc}};
  const uint16_t seq = per_path_nack_ ? packet.mp_seq : packet.seq;
  SeqWindow<Slot, uint16_t>& window =
      windows_.try_emplace(flow, size_t{1} << 16).first->second;
  if (media_like) {
    window.Insert(seq, Pack(packet));
  } else {
    window.Erase(seq);  // stale wrap-around entry
  }
  window.Trim([&](const Slot& held) {
    return packet.send_time - held.send_time() > kSentHistoryHorizon;
  });
}

RtxHistory::Slot RtxHistory::Pack(const RtpPacket& packet) const {
  const int64_t send_offset_us = (packet.send_time - packet.capture_time).us();
  // One check for the three narrowings, so the per-packet cost is one.
  CONVERGE_INVARIANT(
      "RtxHistory", packet.send_time,
      send_offset_us == static_cast<int32_t>(send_offset_us) &&
          packet.payload_bytes == static_cast<uint16_t>(packet.payload_bytes) &&
          packet.fec == nullptr,
      "send time " + std::to_string(send_offset_us) +
          " us after capture, payload " +
          std::to_string(packet.payload_bytes) + " B, FEC block " +
          (packet.fec == nullptr ? "none" : "held"));
  Slot slot;
  slot.capture_time = packet.capture_time;
  slot.send_offset_us = static_cast<int32_t>(send_offset_us);
  slot.ssrc = packet.ssrc;
  slot.rtp_timestamp = packet.rtp_timestamp;
  slot.frame_id = packet.frame_id;
  slot.gop_id = packet.gop_id;
  slot.payload_bytes = static_cast<uint16_t>(packet.payload_bytes);
  slot.other_seq = per_path_nack_ ? packet.seq : packet.mp_seq;
  slot.path_id = packet.path_id;
  slot.stream_id = packet.stream_id;
  slot.qp = packet.qp;
  slot.payload_type = packet.payload_type;
  slot.spatial_id = packet.spatial_id;
  slot.num_spatial = packet.num_spatial;
  slot.temporal_id = packet.temporal_id;
  slot.num_temporal = packet.num_temporal;
  slot.kind = packet.kind;
  slot.frame_kind = packet.frame_kind;
  slot.marker = packet.marker;
  slot.first_in_frame = packet.first_in_frame;
  slot.last_in_frame = packet.last_in_frame;
  slot.via_fec = packet.via_fec;
  slot.is_probe_duplicate = packet.is_probe_duplicate;
  return slot;
}

void RtxHistory::ForgetLeg(int leg) {
  constexpr int64_t kLowest = std::numeric_limits<int64_t>::min();
  windows_.erase(windows_.lower_bound({leg, kLowest}),
                 windows_.lower_bound({leg + 1, kLowest}));
}

size_t RtxHistory::pages_allocated() const {
  size_t pages = 0;
  for (const auto& [flow, window] : windows_) {
    pages += window.pages_allocated();
  }
  return pages;
}

RtpPacket RtxHistory::Stamp(const Slot& held, bool per_path,
                            PathId report_path, uint16_t seq) {
  RtpPacket rtx;
  rtx.capture_time = held.capture_time;
  rtx.send_time = held.send_time();
  rtx.ssrc = held.ssrc;
  rtx.rtp_timestamp = held.rtp_timestamp;
  rtx.frame_id = held.frame_id;
  rtx.gop_id = held.gop_id;
  rtx.payload_bytes = held.payload_bytes;
  rtx.seq = per_path ? held.other_seq : seq;
  rtx.mp_seq = per_path ? seq : held.other_seq;
  rtx.path_id = held.path_id;
  rtx.stream_id = held.stream_id;
  rtx.qp = held.qp;
  rtx.payload_type = held.payload_type;
  rtx.kind = held.kind;
  rtx.frame_kind = held.frame_kind;
  rtx.spatial_id = held.spatial_id;
  rtx.num_spatial = held.num_spatial;
  rtx.temporal_id = held.temporal_id;
  rtx.num_temporal = held.num_temporal;
  rtx.marker = held.marker;
  rtx.first_in_frame = held.first_in_frame;
  rtx.last_in_frame = held.last_in_frame;
  rtx.via_fec = held.via_fec;
  rtx.is_probe_duplicate = held.is_probe_duplicate;
  rtx.via_rtx = true;
  rtx.priority = Priority::kRetransmit;
  // A per-path answer names the (path, mp_seq) hole it plugs so the
  // receiver's NACK tracker stops chasing it; a legacy answer's own
  // (ssrc, seq) is the hole.
  CONVERGE_INVARIANT("RtxHistory", Timestamp::MinusInfinity(),
                     !per_path || FitsPacketPathId(report_path),
                     "report path " + std::to_string(report_path));
  rtx.rtx_for_path = per_path ? report_path : kInvalidPathId;
  rtx.rtx_for_mp_seq = per_path ? seq : 0;
  return rtx;
}

}  // namespace converge
