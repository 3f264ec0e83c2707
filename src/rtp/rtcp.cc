#include "rtp/rtcp.h"

#include "rtp/byte_io.h"

namespace converge {
namespace {

// RTCP packet-type tags for the wire format. 200/201/205/206 follow RFC
// 3550/4585; 210/211 are the Converge extensions (SDES frame rate, QoE
// feedback) registered in the experimental range.
enum class WireType : uint8_t {
  kSenderReport = 200,
  kReceiverReport = 201,
  kTransportFeedback = 205,
  kKeyframeRequest = 206,
  kNack = 207,
  kSdesFrameRate = 210,
  kQoeFeedback = 211,
};

struct WireSizeVisitor {
  int64_t operator()(const SenderReport&) const { return 28; }
  int64_t operator()(const ReceiverReport&) const { return 44; }
  int64_t operator()(const TransportFeedback& fb) const {
    return 8 + static_cast<int64_t>(fb.arrivals.size()) * 10;
  }
  int64_t operator()(const Nack& n) const {
    return 12 + static_cast<int64_t>(n.seqs.size()) * 2;
  }
  int64_t operator()(const KeyframeRequest&) const { return 12; }
  int64_t operator()(const SdesFrameRate&) const { return 16; }
  int64_t operator()(const QoeFeedback&) const { return 20; }
};

}  // namespace

int64_t RtcpPacket::wire_size() const {
  // Common header (4) + path id word (4) + payload.
  return 8 + std::visit(WireSizeVisitor{}, payload);
}

std::vector<uint8_t> SerializeRtcp(const RtcpPacket& packet) {
  std::vector<uint8_t> out;
  out.push_back(0x80);  // V=2, P=0, RC=0
  // Packet type.
  WireType type = WireType::kSenderReport;
  if (std::holds_alternative<ReceiverReport>(packet.payload))
    type = WireType::kReceiverReport;
  else if (std::holds_alternative<TransportFeedback>(packet.payload))
    type = WireType::kTransportFeedback;
  else if (std::holds_alternative<Nack>(packet.payload))
    type = WireType::kNack;
  else if (std::holds_alternative<KeyframeRequest>(packet.payload))
    type = WireType::kKeyframeRequest;
  else if (std::holds_alternative<SdesFrameRate>(packet.payload))
    type = WireType::kSdesFrameRate;
  else if (std::holds_alternative<QoeFeedback>(packet.payload))
    type = WireType::kQoeFeedback;
  out.push_back(static_cast<uint8_t>(type));
  PutU16(out, 0);  // length placeholder (words - 1), patched below
  PutU32(out, static_cast<uint32_t>(packet.path_id));  // Figure 19 PathID word

  std::visit(
      [&out](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, SenderReport>) {
          PutU32(out, p.ssrc);
          PutU64(out, static_cast<uint64_t>(p.send_time.us()));
          PutU32(out, p.packet_count);
          PutU32(out, p.octet_count);
        } else if constexpr (std::is_same_v<T, ReceiverReport>) {
          PutU32(out, p.ssrc);
          PutU32(out, static_cast<uint32_t>(p.fraction_lost * 0xFFFFFF));
          PutU32(out, static_cast<uint32_t>(p.cumulative_lost));
          PutU16(out, p.ext_high_seq);
          PutU16(out, p.ext_high_mp_seq);
          PutU64(out, static_cast<uint64_t>(p.jitter.us()));
          PutU64(out, static_cast<uint64_t>(p.last_sr_time.us()));
          PutU64(out, static_cast<uint64_t>(p.delay_since_last_sr.us()));
        } else if constexpr (std::is_same_v<T, TransportFeedback>) {
          PutU32(out, static_cast<uint32_t>(p.arrivals.size()));
          for (const auto& a : p.arrivals) {
            PutU16(out, static_cast<uint16_t>(a.mp_transport_seq & 0xFFFF));
            PutU64(out, static_cast<uint64_t>(a.recv_time.us()));
          }
        } else if constexpr (std::is_same_v<T, Nack>) {
          PutU32(out, p.ssrc);
          PutU16(out, static_cast<uint16_t>(p.seqs.size()));
          for (uint16_t s : p.seqs) PutU16(out, s);
        } else if constexpr (std::is_same_v<T, KeyframeRequest>) {
          PutU32(out, p.ssrc);
        } else if constexpr (std::is_same_v<T, SdesFrameRate>) {
          PutU32(out, p.ssrc);
          PutU32(out, static_cast<uint32_t>(p.fps * 1000.0));
        } else if constexpr (std::is_same_v<T, QoeFeedback>) {
          PutU32(out, static_cast<uint32_t>(p.alpha));
          PutU64(out, static_cast<uint64_t>(p.fcd.us()));
        }
      },
      packet.payload);

  // Patch length: total 32-bit words minus one (RFC 3550 convention).
  while ((out.size() % 4) != 0) out.push_back(0);
  const uint16_t words = static_cast<uint16_t>(out.size() / 4 - 1);
  out[2] = static_cast<uint8_t>(words >> 8);
  out[3] = static_cast<uint8_t>(words & 0xFF);
  return out;
}

bool ParseRtcp(const std::vector<uint8_t>& in, RtcpPacket* packet) {
  if (in.size() < 8 || (in[0] >> 6) != 2) return false;
  const uint8_t type = in[1];
  size_t at = 4;
  packet->path_id = static_cast<PathId>(GetU32(in, at));

  switch (static_cast<WireType>(type)) {
    case WireType::kSenderReport: {
      SenderReport sr;
      sr.ssrc = GetU32(in, at);
      sr.send_time = Timestamp::Micros(static_cast<int64_t>(GetU64(in, at)));
      sr.packet_count = GetU32(in, at);
      sr.octet_count = GetU32(in, at);
      packet->payload = sr;
      return true;
    }
    case WireType::kReceiverReport: {
      ReceiverReport rr;
      rr.ssrc = GetU32(in, at);
      rr.fraction_lost = static_cast<double>(GetU32(in, at)) / 0xFFFFFF;
      rr.cumulative_lost = GetU32(in, at);
      rr.ext_high_seq = GetU16(in, at);
      rr.ext_high_mp_seq = GetU16(in, at);
      rr.jitter = Duration::Micros(static_cast<int64_t>(GetU64(in, at)));
      rr.last_sr_time = Timestamp::Micros(static_cast<int64_t>(GetU64(in, at)));
      rr.delay_since_last_sr =
          Duration::Micros(static_cast<int64_t>(GetU64(in, at)));
      packet->payload = rr;
      return true;
    }
    case WireType::kTransportFeedback: {
      TransportFeedback fb;
      const uint32_t n = GetU32(in, at);
      for (uint32_t i = 0; i < n; ++i) {
        TransportFeedback::Arrival a;
        a.mp_transport_seq = GetU16(in, at);
        a.recv_time = Timestamp::Micros(static_cast<int64_t>(GetU64(in, at)));
        fb.arrivals.push_back(a);
      }
      packet->payload = fb;
      return true;
    }
    case WireType::kNack: {
      Nack n;
      n.ssrc = GetU32(in, at);
      const uint16_t count = GetU16(in, at);
      for (uint16_t i = 0; i < count; ++i) n.seqs.push_back(GetU16(in, at));
      packet->payload = n;
      return true;
    }
    case WireType::kKeyframeRequest: {
      KeyframeRequest k;
      k.ssrc = GetU32(in, at);
      packet->payload = k;
      return true;
    }
    case WireType::kSdesFrameRate: {
      SdesFrameRate s;
      s.ssrc = GetU32(in, at);
      s.fps = static_cast<double>(GetU32(in, at)) / 1000.0;
      packet->payload = s;
      return true;
    }
    case WireType::kQoeFeedback: {
      QoeFeedback q;
      q.path_id = packet->path_id;
      q.alpha = static_cast<int32_t>(GetU32(in, at));
      q.fcd = Duration::Micros(static_cast<int64_t>(GetU64(in, at)));
      packet->payload = q;
      return true;
    }
    default:
      return false;
  }
}

}  // namespace converge
