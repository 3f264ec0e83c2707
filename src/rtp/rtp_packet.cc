#include "rtp/rtp_packet.h"

namespace converge {
namespace {

void PutU16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v & 0xFF));
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v >> 24));
  out.push_back(static_cast<uint8_t>((v >> 16) & 0xFF));
  out.push_back(static_cast<uint8_t>((v >> 8) & 0xFF));
  out.push_back(static_cast<uint8_t>(v & 0xFF));
}

uint16_t GetU16(const std::vector<uint8_t>& in, size_t at) {
  return static_cast<uint16_t>((in[at] << 8) | in[at + 1]);
}

uint32_t GetU32(const std::vector<uint8_t>& in, size_t at) {
  return (static_cast<uint32_t>(in[at]) << 24) |
         (static_cast<uint32_t>(in[at + 1]) << 16) |
         (static_cast<uint32_t>(in[at + 2]) << 8) |
         static_cast<uint32_t>(in[at + 3]);
}

// RFC 5285 one-byte extension element IDs used by the Converge extension.
constexpr uint8_t kExtIdPathId = 1;
constexpr uint8_t kExtIdMpSeq = 2;
constexpr uint8_t kExtIdMpTransportSeq = 3;
// Layer coordinates (simulcast rung + temporal layer), emitted only for
// layered streams: the element fits in the padding of the 3-word extension
// block, so adding it changes neither wire_size nor the single-layer bytes.
constexpr uint8_t kExtIdLayers = 4;
constexpr uint16_t kOneByteProfile = 0xBEDE;

}  // namespace

int64_t RtpPacket::wire_size() const {
  return payload_bytes + kRtpHeaderBytes + kMultipathExtensionBytes;
}

std::vector<uint8_t> SerializeRtpHeader(const RtpPacket& packet) {
  std::vector<uint8_t> out;
  out.reserve(kRtpHeaderBytes + kMultipathExtensionBytes);

  // Byte 0: V=2, P=0, X=1 (extension present), CC=0.
  out.push_back(0x90);
  // Byte 1: M bit + payload type.
  out.push_back(static_cast<uint8_t>((packet.marker ? 0x80 : 0x00) |
                                     (packet.payload_type & 0x7F)));
  PutU16(out, packet.seq);
  PutU32(out, packet.rtp_timestamp);
  PutU32(out, packet.ssrc);

  // Extension block: profile 0xBEDE, length in 32-bit words.
  PutU16(out, kOneByteProfile);
  PutU16(out, 3);  // 12 bytes of extension data

  // pathID element: id=1, len=1 byte (L field = len-1 = 0).
  out.push_back(static_cast<uint8_t>((kExtIdPathId << 4) | 0));
  out.push_back(static_cast<uint8_t>(packet.path_id & 0xFF));
  // MpSequenceNumber: id=2, 2 bytes (L=1).
  out.push_back(static_cast<uint8_t>((kExtIdMpSeq << 4) | 1));
  PutU16(out, packet.mp_seq);
  // MpTransportSequenceNumber: id=3, 2 bytes (L=1).
  out.push_back(static_cast<uint8_t>((kExtIdMpTransportSeq << 4) | 1));
  PutU16(out, packet.mp_transport_seq);
  // Layers element: id=4, 2 bytes (L=1), only when the stream is layered.
  // Byte 0 packs (spatial_id, temporal_id), byte 1 (num_spatial,
  // num_temporal) — 4 bits each, mirroring the AV1 dependency descriptor's
  // compact layer coordinates.
  if (packet.num_spatial > 1 || packet.num_temporal > 1) {
    out.push_back(static_cast<uint8_t>((kExtIdLayers << 4) | 1));
    out.push_back(static_cast<uint8_t>(((packet.spatial_id & 0x0F) << 4) |
                                       (packet.temporal_id & 0x0F)));
    out.push_back(static_cast<uint8_t>(((packet.num_spatial & 0x0F) << 4) |
                                       (packet.num_temporal & 0x0F)));
  }
  // Pad to a 32-bit boundary (8 data bytes used, pad 4).
  while ((out.size() % 4) != 0) out.push_back(0);
  while (out.size() < static_cast<size_t>(kRtpHeaderBytes + kMultipathExtensionBytes)) {
    out.push_back(0);
  }
  return out;
}

bool ParseRtpHeader(const std::vector<uint8_t>& in, RtpPacket* packet) {
  if (in.size() < static_cast<size_t>(kRtpHeaderBytes + 4)) return false;
  if ((in[0] >> 6) != 2) return false;         // version
  const bool has_extension = (in[0] & 0x10) != 0;
  packet->marker = (in[1] & 0x80) != 0;
  packet->payload_type = in[1] & 0x7F;
  packet->seq = GetU16(in, 2);
  packet->rtp_timestamp = GetU32(in, 4);
  packet->ssrc = GetU32(in, 8);
  if (!has_extension) return true;

  size_t at = 12;
  if (GetU16(in, at) != kOneByteProfile) return false;
  const size_t ext_words = GetU16(in, at + 2);
  at += 4;
  const size_t ext_end = at + ext_words * 4;
  if (ext_end > in.size()) return false;

  while (at < ext_end) {
    const uint8_t header = in[at];
    if (header == 0) {  // padding
      ++at;
      continue;
    }
    const uint8_t id = header >> 4;
    const size_t len = static_cast<size_t>(header & 0x0F) + 1;
    ++at;
    if (at + len > ext_end) return false;
    switch (id) {
      case kExtIdPathId:
        packet->path_id = static_cast<int8_t>(in[at]);
        break;
      case kExtIdMpSeq:
        packet->mp_seq = GetU16(in, at);
        break;
      case kExtIdMpTransportSeq:
        packet->mp_transport_seq = GetU16(in, at);
        break;
      case kExtIdLayers:
        packet->spatial_id = in[at] >> 4;
        packet->temporal_id = in[at] & 0x0F;
        packet->num_spatial = in[at + 1] >> 4;
        packet->num_temporal = in[at + 1] & 0x0F;
        break;
      default:
        break;  // unknown element: skip
    }
    at += len;
  }
  return true;
}

}  // namespace converge
