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
  SeqWindow<RtpPacket, uint16_t>& window =
      windows_.try_emplace(flow, size_t{1} << 16).first->second;
  if (media_like) {
    window.Insert(seq, packet);
  } else {
    window.Erase(seq);  // stale wrap-around entry
  }
  window.Trim([&](const RtpPacket& held) {
    return packet.send_time - held.send_time > kSentHistoryHorizon;
  });
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

RtpPacket RtxHistory::Stamp(const RtpPacket& original, bool per_path,
                            PathId report_path, uint16_t seq) {
  RtpPacket rtx = original;
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
