// Retransmission policy shared by every engine that answers NACKs: the
// sender (one origin, leg 0) and each hub forwarding engine (one leg per
// origin it forwards). It decides which packets are kept for
// retransmission, which NACK flavour is answered, how a repeated NACK is
// de-duplicated, and how the RTX copy is stamped. The engine keeps only
// what differs between them: where the copy goes and what it counts.
//
// Flavours (DESIGN.md §12). A per-path NACK names (path, mp_seq) holes of
// one leg's per-path sequence space (the Appendix B multipath extension);
// its history is one SeqWindow per (leg, path) over the 16-bit mp_seq that
// keeps a packet for kSentHistoryHorizon after newer sends on its window
// (and never past the next wrap). A legacy NACK names (ssrc, seq); its
// history is one map over (leg, ssrc, seq) capped at kLegacyCapacity
// entries. An engine keeps the history of the flavour its call negotiated
// and ignores NACKs of the other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>

#include "net/path.h"
#include "rtp/rtcp.h"
#include "rtp/rtp_packet.h"
#include "util/seq_window.h"
#include "util/time.h"

namespace converge {

class RtxHistory {
 public:
  // Legacy packets and dedup records kept. Both maps evict their smallest
  // key first, which is not the oldest entry after a seq wrap or across
  // streams (ROADMAP).
  static constexpr size_t kLegacyCapacity = 4096;
  static constexpr size_t kDedupCapacity = 4096;
  // A NACK repeated within this window is not answered again (receivers
  // duplicate NACKs on every live path).
  static constexpr Duration kDedupWindow = Duration::Millis(40);

  explicit RtxHistory(bool per_path_nack) : per_path_nack_(per_path_nack) {}

  // Records `packet`, already stamped with its mp_seq, as sent by `leg`'s
  // origin on `path`.
  void OnSent(int leg, PathId path, const RtpPacket& packet);

  // Answers a NACK about `leg`'s media reported for `report_path`. For each
  // named packet still held and not answered within kDedupWindow, calls
  // `send(RtpPacket rtx, PathId origin, uint16_t seq)` with the stamped RTX
  // copy, the path the packet was lost on (the report path for per-path
  // NACKs, the original path for legacy ones) and the NACKed seq. `send`
  // returns true when it queued the copy; only then does a repeat count as
  // a duplicate.
  template <typename SendFn>
  void AnswerNack(int leg, PathId report_path, const Nack& nack,
                  Timestamp now, SendFn&& send);

  // `leg`'s origin left: its per-path windows and legacy entries go (a
  // rejoin restarts its sequence spaces), its dedup records stay.
  void ForgetLeg(int leg);

  // Per-path NACKed seqs declined because the age bound had trimmed them
  // from their window (SeqWindow::Trimmed), over the module's life.
  int64_t horizon_misses() const { return horizon_misses_; }
  // Pages the per-path windows hold (SeqWindow::pages_allocated).
  size_t pages_allocated() const;

 private:
  // (flow, seq). Flows put the leg above bit 32 and mark per-path flows
  // with bit 32, so keys order by leg, then path or ssrc, then seq.
  using Key = std::pair<int64_t, uint16_t>;
  struct LegacyEntry {
    RtpPacket packet;
    PathId path = kInvalidPathId;  // the path it originally left on
  };

  static int64_t MpFlow(int leg, PathId path) {
    return (static_cast<int64_t>(leg) << 33) | (int64_t{1} << 32) |
           static_cast<int64_t>(static_cast<uint32_t>(path));
  }
  static int64_t LegacyFlow(int leg, uint32_t ssrc) {
    return (static_cast<int64_t>(leg) << 33) | static_cast<int64_t>(ssrc);
  }
  static RtpPacket Stamp(const RtpPacket& original, bool per_path,
                         PathId report_path, uint16_t seq);

  bool per_path_nack_;
  std::map<int64_t, SeqWindow<RtpPacket>> windows_;  // by MpFlow
  std::map<Key, LegacyEntry> legacy_;
  std::map<Key, Timestamp> recent_;  // last answer per NACKed key
  int64_t horizon_misses_ = 0;
};

template <typename SendFn>
void RtxHistory::AnswerNack(int leg, PathId report_path, const Nack& nack,
                            Timestamp now, SendFn&& send) {
  const bool per_path = nack.ssrc == 0;
  if (per_path != per_path_nack_) return;
  const int64_t flow =
      per_path ? MpFlow(leg, report_path) : LegacyFlow(leg, nack.ssrc);
  const SeqWindow<RtpPacket>* window = nullptr;
  if (per_path) {
    auto it = windows_.find(flow);
    if (it == windows_.end()) return;
    window = &it->second;
  }
  for (uint16_t seq : nack.seqs) {
    const Key key{flow, seq};
    const RtpPacket* original = nullptr;
    PathId origin = report_path;
    if (per_path) {
      original = window->Find(seq);  // null: not media, never sent, or aged
      if (original == nullptr && window->Trimmed(seq)) ++horizon_misses_;
    } else if (auto it = legacy_.find(key); it != legacy_.end()) {
      // Cross-path reordering makes receivers NACK packets that are merely
      // late (§2.3); those answers are simply wasted.
      original = &it->second.packet;
      origin = it->second.path;
    }
    if (original == nullptr) continue;
    auto last = recent_.find(key);
    if (last != recent_.end() && now - last->second < kDedupWindow) continue;
    if (send(Stamp(*original, per_path, report_path, seq), origin, seq)) {
      recent_[key] = now;
      while (recent_.size() > kDedupCapacity) recent_.erase(recent_.begin());
    }
  }
}

}  // namespace converge
