#include "receiver/packet_buffer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/invariants.h"

namespace converge {

PacketBuffer::PacketBuffer(Config config, FrameCallback on_frame)
    : config_(config),
      on_frame_(std::move(on_frame)),
      entries_(config.arena != nullptr ? config.arena : &own_arena_),
      unwrappers_(config.arena != nullptr ? config.arena : &own_arena_),
      frames_(config.arena != nullptr ? config.arena : &own_arena_) {}

void PacketBuffer::Insert(RtpPacket packet, Timestamp arrival, PathId path) {
  const int64_t useq = unwrappers_[packet.ssrc].Unwrap(packet.seq);
  const auto key = std::make_pair(packet.ssrc, useq);
  if (entries_.count(key)) {
    ++stats_.duplicates;
    return;
  }
  while (entries_.size() >= config_.capacity_packets) EvictOldest();

  ++stats_.inserted;
  const uint32_t ssrc = packet.ssrc;
  const int stream_id = packet.stream_id;
  const int64_t frame_id = packet.frame_id;
  const bool first_in_frame = packet.first_in_frame;
  const bool closes_frame = packet.marker || packet.last_in_frame;
  entries_.emplace(
      key, Entry{std::move(packet), arrival, path, next_insert_order_++});

  FrameProgress& progress = frames_[std::make_pair(stream_id, frame_id)];
  if (first_in_frame) progress.first_seq = useq;
  if (closes_frame) progress.last_seq = useq;
  TryAssemble(ssrc, stream_id, frame_id);

  CONVERGE_INVARIANT(
      "PacketBuffer", arrival, entries_.size() <= config_.capacity_packets,
      "size=" + std::to_string(entries_.size()) +
          " capacity=" + std::to_string(config_.capacity_packets));
  CONVERGE_INVARIANT(
      "PacketBuffer", arrival,
      stats_.inserted >= stats_.evicted + stats_.purged,
      "inserted=" + std::to_string(stats_.inserted) +
          " evicted=" + std::to_string(stats_.evicted) +
          " purged=" + std::to_string(stats_.purged));
}

void PacketBuffer::TryAssemble(uint32_t ssrc, int stream_id,
                               int64_t frame_id) {
  const auto fkey = std::make_pair(stream_id, frame_id);
  auto fit = frames_.find(fkey);
  if (fit == frames_.end()) return;
  FrameProgress& progress = fit->second;
  if (!progress.first_seq || !progress.last_seq || progress.destroyed) return;

  // All sequence numbers in [first, last] must be present.
  std::vector<const Entry*> members;
  for (int64_t s = *progress.first_seq; s <= *progress.last_seq; ++s) {
    auto it = entries_.find(std::make_pair(ssrc, s));
    if (it == entries_.end()) return;  // still gathering
    members.push_back(&it->second);
  }

  GatheredFrame gathered;
  AssembledFrame& frame = gathered.frame;
  const RtpPacket& sample = members.front()->packet;
  frame.stream_id = stream_id;
  frame.frame_id = frame_id;
  frame.gop_id = sample.gop_id;
  frame.kind = sample.frame_kind;
  frame.qp = sample.qp;
  frame.capture_time = sample.capture_time;
  frame.spatial_id = sample.spatial_id;
  frame.temporal_id = sample.temporal_id;
  frame.packets = static_cast<int>(members.size());

  Timestamp first_arrival = Timestamp::PlusInfinity();
  Timestamp last_arrival = Timestamp::MinusInfinity();
  for (const Entry* entry : members) {
    first_arrival = std::min(first_arrival, entry->arrival);
    last_arrival = std::max(last_arrival, entry->arrival);
    frame.size_bytes += entry->packet.payload_bytes;
    if (entry->packet.via_fec) ++frame.recovered_by_fec;
    if (entry->packet.via_rtx) ++frame.recovered_by_rtx;
    gathered.arrivals.push_back(PacketArrivalInfo{
        entry->path, entry->arrival,
        entry->insert_order /*unused placeholder, replaced below*/});
  }
  // Record real unwrapped seqs in arrival info.
  size_t idx = 0;
  for (int64_t s = *progress.first_seq; s <= *progress.last_seq; ++s, ++idx) {
    gathered.arrivals[idx].seq = s;
  }
  frame.first_packet_time = first_arrival;
  frame.complete_time = last_arrival;
  frame.fcd = last_arrival - first_arrival;

  // Frame leaves the packet buffer for the frame buffer.
  for (int64_t s = *progress.first_seq; s <= *progress.last_seq; ++s) {
    entries_.erase(std::make_pair(ssrc, s));
  }
  frames_.erase(fit);
  ++stats_.frames_assembled;
  on_frame_(std::move(gathered));
}

void PacketBuffer::EvictOldest() {
  if (entries_.empty()) return;
  auto oldest = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->second.insert_order < oldest->second.insert_order) oldest = it;
  }
  const RtpPacket& victim = oldest->second.packet;
  auto fit =
      frames_.find(std::make_pair(victim.stream_id, victim.frame_id));
  if (fit != frames_.end() && !fit->second.destroyed) {
    fit->second.destroyed = true;
    ++stats_.frames_destroyed;
  }
  entries_.erase(oldest);
  ++stats_.evicted;
}

void PacketBuffer::PurgeFramesUpTo(int stream_id, int64_t upto) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    const RtpPacket& p = it->second.packet;
    if (p.stream_id == stream_id && p.frame_id <= upto) {
      it = entries_.erase(it);
      ++stats_.purged;
    } else {
      ++it;
    }
  }
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->first.first == stream_id && it->first.second <= upto) {
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace converge
