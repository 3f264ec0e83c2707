// Retransmission policy shared by every engine that answers NACKs: the
// sender (one origin, leg 0) and each hub forwarding engine (one leg per
// origin it forwards). It decides which packets are kept for
// retransmission, which NACK flavour is answered, how a repeated NACK is
// de-duplicated, and how the RTX copy is stamped. The engine keeps only
// what differs between them: where the copy goes and what it counts.
//
// Flavours (DESIGN.md §12). A per-path NACK names (path, mp_seq) holes of
// one leg's per-path sequence space (the Appendix B multipath extension);
// a legacy NACK names (ssrc, seq). Either way the history is one SeqWindow
// per (leg, flow) over the 16-bit seq, the flow being the path or the
// SSRC, that keeps a packet for kSentHistoryHorizon after newer sends on
// its window (and never past the next wrap). An engine keeps the history
// of the flavour its call negotiated and ignores NACKs of the other.
//
// A window keeps what an answer carries in two parts (DESIGN.md §12): a
// 16-byte slot per packet and a frame record, shared by a run of packets
// of one frame, for the fields a frame's packets have in common. The
// window key is one of the packet's seqs, the egress re-stamps
// mp_transport_seq, Stamp sets the RTX fields and the priority, and a
// media-like packet carries no FEC block.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
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
  // A NACK repeated within this window is not answered again (receivers
  // duplicate NACKs on every live path).
  static constexpr Duration kDedupWindow = Duration::Millis(40);

  explicit RtxHistory(bool per_path_nack) : per_path_nack_(per_path_nack) {}
  // Movable, not copyable: the window cache points into the map's nodes,
  // which a move hands over.
  RtxHistory(RtxHistory&&) = default;
  RtxHistory& operator=(RtxHistory&&) = default;

  // Records `packet`, already stamped with its path_id and mp_seq, as sent
  // by `leg`'s origin.
  void OnSent(int leg, const RtpPacket& packet);

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

  // `leg`'s origin left: its windows go (a rejoin restarts its sequence
  // spaces), its dedup records stay.
  void ForgetLeg(int leg);

  // NACKed seqs of either flavour declined because the age bound had
  // trimmed them from their window (SeqWindow::Trimmed), over the module's
  // life.
  int64_t horizon_misses() const { return horizon_misses_; }
  // Pages the windows hold (SeqWindow::pages_allocated).
  size_t pages_allocated() const;

  // The frame records the windows hold, and how many distinct ones their
  // live slots name (a walk over every slot, for tests).
  struct FrameRecords {
    size_t held = 0;
    size_t referenced = 0;
  };
  FrameRecords frame_records() const;

 private:
  // (leg, path) for per-path NACK, (leg, ssrc) for legacy NACK.
  using Flow = std::pair<int, int64_t>;
  struct Answer {
    Flow flow;
    uint16_t seq = 0;
    Timestamp at;
  };

  // A sent media-like packet's own fields as its window keeps it: every
  // field an answer carries but the window key (mp_seq for per-path
  // windows, seq for legacy ones), mp_transport_seq, the RTX fields, the
  // priority, the FEC block and the fields of its frame record. send_time
  // is an offset from the frame's capture_time and payload_bytes 16 bits,
  // both checked when packed.
  struct Slot {
    uint32_t frame = 0;          // its frame record's id in the window
    int32_t send_offset_us = 0;  // send_time - capture_time
    uint16_t payload_bytes = 0;
    uint16_t other_seq = 0;  // the seq that is not the key
    int8_t path_id = 0;
    PayloadKind kind : 3 = PayloadKind::kMedia;
    bool marker : 1 = false;
    bool first_in_frame : 1 = false;
    bool last_in_frame : 1 = false;
    bool via_fec : 1 = false;
    bool is_probe_duplicate : 1 = false;
  };
  static_assert(sizeof(Slot) <= 16,
                "an RTX slot is paid per packet held; keep it within 16 B");

  // The fields a frame's packets share, kept once per run of packets that
  // agree on all of them, and how many of the window's slots name it.
  struct Frame {
    Timestamp capture_time;
    uint32_t ssrc = 0;
    uint32_t rtp_timestamp = 0;
    int32_t frame_id = -1;
    int32_t gop_id = -1;
    uint8_t stream_id = 0;
    uint8_t qp = 0;
    uint8_t payload_type = 0;
    uint8_t spatial_id : 4 = 0;
    uint8_t num_spatial : 4 = 1;
    uint8_t temporal_id : 4 = 0;
    uint8_t num_temporal : 4 = 1;
    FrameKind frame_kind : 1 = FrameKind::kDelta;
    uint16_t refs = 0;

    explicit Frame(const RtpPacket& packet);
    // Whether `packet`'s per-frame fields equal this record's.
    bool Holds(const RtpPacket& packet) const;
  };
  static_assert(sizeof(Frame) <= 32,
                "a frame record is paid per frame run held; keep it within "
                "32 B");

  // One (leg, flow)'s history: its packets' slots by seq and their frame
  // records in a ring, in insert order. A record leaves the front of the
  // ring once no slot names it; ids count records from the window's first.
  struct Window {
    SeqWindow<Slot, uint16_t> slots{size_t{1} << 16};
    std::deque<Frame> frames;
    uint32_t front = 0;  // id of frames.front()

    const Frame& frame(uint32_t id) const { return frames[id - front]; }
    Timestamp SendTime(const Slot& slot) const {
      return frame(slot.frame).capture_time +
             Duration::Micros(slot.send_offset_us);
    }
    // A slot naming record `id` left the window.
    void Release(uint32_t id);
  };

  // `packet`'s slot in `window`, naming the newest frame record when
  // `packet` belongs to it and a new one otherwise.
  Slot Pack(Window& window, const RtpPacket& packet) const;
  // The RTX copy answering a NACK for `seq`, `held` under it in `window`:
  // the packet as sent, stamped as a retransmission.
  static RtpPacket Stamp(const Window& window, const Slot& held,
                         bool per_path, PathId report_path, uint16_t seq);

  // `flow`'s window, made on first use. The map is walked only when the
  // flow misses window_cache_, a direct-mapped cache of window pointers
  // (map nodes stay put until ForgetLeg erases them, which empties it).
  Window& WindowFor(const Flow& flow);

  struct CachedWindow {
    Flow flow;
    Window* window = nullptr;
  };

  bool per_path_nack_;
  std::map<Flow, Window> windows_;
  std::array<CachedWindow, 8> window_cache_{};
  std::deque<Answer> answered_;  // the last kDedupWindow's, oldest first
  int64_t horizon_misses_ = 0;
};

template <typename SendFn>
void RtxHistory::AnswerNack(int leg, PathId report_path, const Nack& nack,
                            Timestamp now, SendFn&& send) {
  const bool per_path = nack.ssrc == 0;
  if (per_path != per_path_nack_) return;
  const Flow flow{leg, per_path ? int64_t{report_path} : int64_t{nack.ssrc}};
  auto it = windows_.find(flow);
  if (it == windows_.end()) return;
  const Window& window = it->second;
  while (!answered_.empty() && now - answered_.front().at >= kDedupWindow) {
    answered_.pop_front();
  }
  for (uint16_t seq : nack.seqs) {
    // Null: not media, never sent, or aged. Cross-path reordering makes
    // receivers NACK packets that are merely late (§2.3); those answers are
    // simply wasted.
    const Slot* original = window.slots.Find(seq);
    if (original == nullptr) {
      if (window.slots.Trimmed(seq)) ++horizon_misses_;
      continue;
    }
    auto repeat = [&](const Answer& a) {
      return a.seq == seq && a.flow == flow;
    };
    if (std::any_of(answered_.begin(), answered_.end(), repeat)) continue;
    const PathId origin = per_path ? report_path : original->path_id;
    if (send(Stamp(window, *original, per_path, report_path, seq), origin,
             seq)) {
      answered_.push_back({flow, seq, now});
    }
  }
}

}  // namespace converge
