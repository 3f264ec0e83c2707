#include "session/rtx_history.h"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

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
  Window& window = WindowFor(flow);
  // An entry this seq still holds from one wrap ago is stale: it goes, and
  // its frame record loses it.
  if (const Slot* stale = window.slots.Find(seq)) window.Release(stale->frame);
  if (media_like) {
    window.slots.Insert(seq, Pack(window, packet));
  } else {
    window.slots.Erase(seq);
  }
  window.slots.Trim([&](const Slot& held) {
    if (packet.send_time - window.SendTime(held) <= kSentHistoryHorizon) {
      return false;
    }
    window.Release(held.frame);
    return true;
  });
}

RtxHistory::Window& RtxHistory::WindowFor(const Flow& flow) {
  // Legs and paths are small; SSRCs are spread by the allocator.
  CachedWindow& cached = window_cache_[static_cast<size_t>(
      flow.first * 2 + flow.second) % window_cache_.size()];
  if (cached.window == nullptr || cached.flow != flow) {
    cached = CachedWindow{flow, &windows_[flow]};
  }
  return *cached.window;
}

void RtxHistory::Window::Release(uint32_t id) {
  --frames[id - front].refs;
  while (!frames.empty() && frames.front().refs == 0) {
    frames.pop_front();
    ++front;
  }
}

RtxHistory::Frame::Frame(const RtpPacket& packet)
    : capture_time(packet.capture_time),
      ssrc(packet.ssrc),
      rtp_timestamp(packet.rtp_timestamp),
      frame_id(packet.frame_id),
      gop_id(packet.gop_id),
      stream_id(packet.stream_id),
      qp(packet.qp),
      payload_type(packet.payload_type),
      spatial_id(packet.spatial_id),
      num_spatial(packet.num_spatial),
      temporal_id(packet.temporal_id),
      num_temporal(packet.num_temporal),
      frame_kind(packet.frame_kind) {}

bool RtxHistory::Frame::Holds(const RtpPacket& packet) const {
  return capture_time == packet.capture_time && ssrc == packet.ssrc &&
         rtp_timestamp == packet.rtp_timestamp &&
         frame_id == packet.frame_id && gop_id == packet.gop_id &&
         stream_id == packet.stream_id && qp == packet.qp &&
         payload_type == packet.payload_type &&
         spatial_id == packet.spatial_id &&
         num_spatial == packet.num_spatial &&
         temporal_id == packet.temporal_id &&
         num_temporal == packet.num_temporal &&
         frame_kind == packet.frame_kind;
}

RtxHistory::Slot RtxHistory::Pack(Window& window,
                                  const RtpPacket& packet) const {
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
  // A record's count saturating starts a new record for the same frame.
  if (window.frames.empty() || !window.frames.back().Holds(packet) ||
      window.frames.back().refs == std::numeric_limits<uint16_t>::max()) {
    window.frames.emplace_back(packet);
  }
  ++window.frames.back().refs;
  Slot slot;
  slot.frame = window.front + static_cast<uint32_t>(window.frames.size() - 1);
  slot.send_offset_us = static_cast<int32_t>(send_offset_us);
  slot.payload_bytes = static_cast<uint16_t>(packet.payload_bytes);
  slot.other_seq = per_path_nack_ ? packet.seq : packet.mp_seq;
  slot.path_id = packet.path_id;
  slot.kind = packet.kind;
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
  window_cache_.fill(CachedWindow{});
}

size_t RtxHistory::pages_allocated() const {
  size_t pages = 0;
  for (const auto& [flow, window] : windows_) {
    pages += window.slots.pages_allocated();
  }
  return pages;
}

RtxHistory::FrameRecords RtxHistory::frame_records() const {
  FrameRecords records;
  for (const auto& [flow, window] : windows_) {
    records.held += window.frames.size();
    std::vector<uint32_t> ids;
    window.slots.ForEach([&](const Slot& slot) { ids.push_back(slot.frame); });
    std::sort(ids.begin(), ids.end());
    records.referenced += static_cast<size_t>(
        std::unique(ids.begin(), ids.end()) - ids.begin());
  }
  return records;
}

RtpPacket RtxHistory::Stamp(const Window& window, const Slot& held,
                            bool per_path, PathId report_path, uint16_t seq) {
  const Frame& frame = window.frame(held.frame);
  RtpPacket rtx;
  rtx.capture_time = frame.capture_time;
  rtx.send_time = window.SendTime(held);
  rtx.ssrc = frame.ssrc;
  rtx.rtp_timestamp = frame.rtp_timestamp;
  rtx.frame_id = frame.frame_id;
  rtx.gop_id = frame.gop_id;
  rtx.payload_bytes = held.payload_bytes;
  rtx.seq = per_path ? held.other_seq : seq;
  rtx.mp_seq = per_path ? seq : held.other_seq;
  rtx.path_id = held.path_id;
  rtx.stream_id = frame.stream_id;
  rtx.qp = frame.qp;
  rtx.payload_type = frame.payload_type;
  rtx.kind = held.kind;
  rtx.frame_kind = frame.frame_kind;
  rtx.spatial_id = frame.spatial_id;
  rtx.num_spatial = frame.num_spatial;
  rtx.temporal_id = frame.temporal_id;
  rtx.num_temporal = frame.num_temporal;
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
