#include "session/egress_seq.h"

#include <string>

#include "util/invariants.h"

namespace converge {

void EgressSeq::Stamp(RtpPacket& packet) {
  packet.mp_seq = next_mp_seq_++;
  packet.mp_transport_seq = static_cast<uint16_t>(transport_count_ & 0xFFFF);
  const Timestamp sent = packet.send_time;
  const int64_t bytes = packet.wire_size();
  // One check for both narrowings, so the per-packet cost is one.
  CONVERGE_INVARIANT(
      "EgressSeq", sent,
      sent.us() >= 0 && sent.us() <= SentRecord::kMaxSendTimeUs &&
          bytes >= 0 && bytes <= SentRecord::kMaxBytes,
      "send time " + std::to_string(sent.us()) + " us, wire size " +
          std::to_string(bytes) + " B");
  const uint64_t word =
      (static_cast<uint64_t>(bytes) << SentRecord::kTimeBits) |
      (static_cast<uint64_t>(sent.us()) &
       static_cast<uint64_t>(SentRecord::kMaxSendTimeUs));
  sent_.Insert(transport_count_++, SentRecord{word});
  sent_.Trim([&](const SentRecord& held) {
    return sent - held.send_time() > kSentHistoryHorizon;
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
    r.send_time = rec->send_time();
    r.bytes = rec->bytes();
    r.received = a.recv_time.IsFinite();
    r.recv_time = a.recv_time;
    results.push_back(r);
  }
  return results;
}

}  // namespace converge
