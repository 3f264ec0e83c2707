#include "session/rtx_history.h"

#include <string>

#include "util/invariants.h"

namespace converge {

void RtxHistory::OnSent(int leg, PathId path, const RtpPacket& packet) {
  // Only media-like packets are retransmittable (FEC and probes are not
  // worth recovering).
  const bool media_like = packet.IsMediaLike();
  if (per_path_nack_) {
    SeqWindow<RtpPacket>& window =
        windows_.try_emplace(MpFlow(leg, path), size_t{1} << 16)
            .first->second;
    if (media_like) {
      window.Insert(packet.mp_seq, packet);
    } else {
      window.Erase(packet.mp_seq);  // stale wrap-around entry
    }
    window.Trim([&](const RtpPacket& held) {
      return packet.send_time - held.send_time > kSentHistoryHorizon;
    });
  } else if (media_like && !packet.via_rtx) {
    // An RTX copy keeps its original's (ssrc, seq), which already holds the
    // entry.
    legacy_[{LegacyFlow(leg, packet.ssrc), packet.seq}] = {packet, path};
    while (legacy_.size() > kLegacyCapacity) legacy_.erase(legacy_.begin());
  }
}

void RtxHistory::ForgetLeg(int leg) {
  // Every flow of `leg` lies in [leg << 33, (leg + 1) << 33).
  const int64_t begin = LegacyFlow(leg, 0);
  const int64_t end = LegacyFlow(leg + 1, 0);
  windows_.erase(windows_.lower_bound(begin), windows_.lower_bound(end));
  legacy_.erase(legacy_.lower_bound({begin, 0}),
                legacy_.lower_bound({end, 0}));
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
