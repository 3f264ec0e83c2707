#include "session/egress_seq.h"

namespace converge {

void EgressSeq::Stamp(RtpPacket& packet) {
  packet.mp_seq = next_mp_seq_++;
  packet.mp_transport_seq = static_cast<uint16_t>(transport_count_ & 0xFFFF);
  const Timestamp sent = packet.send_time;
  sent_.Insert(transport_count_++, SentRecord{sent, packet.wire_size()});
  sent_.Trim([&](const SentRecord& held) {
    return sent - held.send_time > kSentHistoryHorizon;
  });
}

std::vector<PacketResult> EgressSeq::Match(const TransportFeedback& feedback,
                                           int64_t& horizon_misses) const {
  std::vector<PacketResult> results;
  results.reserve(feedback.arrivals.size());
  for (const TransportFeedback::Arrival& a : feedback.arrivals) {
    const SentRecord* rec = sent_.Find(a.mp_transport_seq);
    if (rec == nullptr) {
      // A seq above the newest send was never sent on this life, whatever
      // its slot remembers.
      horizon_misses += a.mp_transport_seq < transport_count_ &&
                        sent_.Trimmed(a.mp_transport_seq);
      continue;
    }
    PacketResult r;
    r.transport_seq = a.mp_transport_seq;
    r.send_time = rec->send_time;
    r.bytes = rec->bytes;
    r.received = a.recv_time.IsFinite();
    r.recv_time = a.recv_time;
    results.push_back(r);
  }
  return results;
}

}  // namespace converge
