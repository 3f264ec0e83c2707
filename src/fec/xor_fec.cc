#include "fec/xor_fec.h"

#include <algorithm>
#include <utility>

namespace converge {

ProtectedPacketMeta MetaOf(const RtpPacket& packet) {
  ProtectedPacketMeta meta;
  meta.seq = packet.seq;
  meta.stream_id = packet.stream_id;
  meta.frame_id = packet.frame_id;
  meta.gop_id = packet.gop_id;
  meta.frame_kind = packet.frame_kind;
  meta.kind = packet.kind;
  meta.priority = packet.priority;
  meta.first_in_frame = packet.first_in_frame;
  meta.last_in_frame = packet.last_in_frame;
  meta.marker = packet.marker;
  meta.payload_bytes = packet.payload_bytes;
  meta.capture_time = packet.capture_time;
  meta.spatial_id = packet.spatial_id;
  meta.num_spatial = packet.num_spatial;
  meta.temporal_id = packet.temporal_id;
  meta.num_temporal = packet.num_temporal;
  return meta;
}

RtpPacket PacketFromMeta(const ProtectedPacketMeta& meta, uint32_t ssrc) {
  RtpPacket p;
  p.ssrc = ssrc;
  p.seq = meta.seq;
  p.stream_id = meta.stream_id;
  p.frame_id = meta.frame_id;
  p.gop_id = meta.gop_id;
  p.frame_kind = meta.frame_kind;
  p.kind = meta.kind;
  p.priority = meta.priority;
  p.first_in_frame = meta.first_in_frame;
  p.last_in_frame = meta.last_in_frame;
  p.marker = meta.marker;
  p.payload_bytes = meta.payload_bytes;
  p.capture_time = meta.capture_time;
  p.spatial_id = meta.spatial_id;
  p.num_spatial = meta.num_spatial;
  p.temporal_id = meta.temporal_id;
  p.num_temporal = meta.num_temporal;
  return p;
}

std::vector<RtpPacket> XorFecEncoder::Generate(
    const std::vector<const RtpPacket*>& media, int num_fec,
    int64_t block_id) {
  std::vector<RtpPacket> out;
  if (media.empty() || num_fec <= 0) return out;
  num_fec = std::min<int>(num_fec, static_cast<int>(media.size()));

  for (int g = 0; g < num_fec; ++g) {
    RtpPacket fec;
    const RtpPacket& sample = *media.front();
    fec.ssrc = sample.ssrc;
    fec.kind = PayloadKind::kFec;
    fec.priority = Priority::kFec;
    fec.stream_id = sample.stream_id;
    fec.frame_id = sample.frame_id;
    fec.gop_id = sample.gop_id;
    fec.frame_kind = sample.frame_kind;
    fec.capture_time = sample.capture_time;
    // Parity inherits the covered rung's layer coordinates so a hub can
    // forward only the parity protecting the subscribed rung.
    fec.spatial_id = sample.spatial_id;
    fec.num_spatial = sample.num_spatial;
    fec.temporal_id = sample.temporal_id;
    fec.num_temporal = sample.num_temporal;

    int32_t max_payload = 0;
    FecBlockMeta block;
    block.block_id = block_id;
    for (size_t j = static_cast<size_t>(g); j < media.size();
         j += static_cast<size_t>(num_fec)) {
      const RtpPacket& covered = *media[j];
      block.covered.push_back(MetaOf(covered));
      max_payload = std::max(max_payload, covered.payload_bytes);
    }
    fec.fec = FecMetaRef::Make(std::move(block));
    fec.payload_bytes = max_payload + 10;  // FEC level header
    out.push_back(std::move(fec));
  }
  return out;
}

}  // namespace converge
