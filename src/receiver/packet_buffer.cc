#include "receiver/packet_buffer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/invariants.h"

namespace converge {

PacketBuffer::PacketBuffer(Config config, FrameCallback on_frame)
    : config_(config), on_frame_(std::move(on_frame)) {}

void PacketBuffer::Insert(RtpPacket packet, Timestamp arrival, PathId path) {
  const int64_t useq = unwrapper_.Unwrap(packet.seq);
  auto pos = LowerBound(useq);
  if (pos != entries_.end() && pos->seq == useq) {
    ++stats_.duplicates;
    return;
  }
  while (entries_.size() >= config_.capacity_packets) {
    EvictOldest();
    pos = LowerBound(useq);
  }

  ++stats_.inserted;
  const int64_t frame_id = packet.frame_id;
  const bool first_in_frame = packet.first_in_frame;
  const bool closes_frame = packet.marker || packet.last_in_frame;
  entries_.insert(
      pos, Entry{useq, std::move(packet), arrival, path, next_insert_order_++});

  const auto fit = frames_.try_emplace(frame_id).first;
  if (first_in_frame) fit->second.first_seq = useq;
  if (closes_frame) fit->second.last_seq = useq;
  TryAssemble(fit);

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

void PacketBuffer::TryAssemble(std::map<int64_t, FrameProgress>::iterator fit) {
  const FrameProgress& progress = fit->second;
  if (!progress.first_seq || !progress.last_seq || progress.destroyed) return;
  const int64_t first_seq = *progress.first_seq;
  const int64_t span = *progress.last_seq - first_seq;
  if (span < 0) return;

  // All seqs in [first, last] are present exactly when the entry `span`
  // places after first's holds last: seqs are unique and sorted.
  const auto first = LowerBound(first_seq);
  if (first == entries_.end() || first->seq != first_seq ||
      entries_.end() - first <= span || first[span].seq != first_seq + span) {
    return;  // still gathering
  }
  const auto last = first + span + 1;

  GatheredFrame gathered;
  AssembledFrame& frame = gathered.frame;
  const RtpPacket& sample = first->packet;
  frame.stream_id = sample.stream_id;
  frame.frame_id = fit->first;
  frame.gop_id = sample.gop_id;
  frame.kind = sample.frame_kind;
  frame.qp = sample.qp;
  frame.capture_time = sample.capture_time;
  frame.spatial_id = sample.spatial_id;
  frame.temporal_id = sample.temporal_id;
  frame.packets = static_cast<int>(span + 1);

  Timestamp first_arrival = Timestamp::PlusInfinity();
  Timestamp last_arrival = Timestamp::MinusInfinity();
  gathered.arrivals.reserve(static_cast<size_t>(span + 1));
  for (auto it = first; it != last; ++it) {
    first_arrival = std::min(first_arrival, it->arrival);
    last_arrival = std::max(last_arrival, it->arrival);
    frame.size_bytes += it->packet.payload_bytes;
    if (it->packet.via_fec) ++frame.recovered_by_fec;
    if (it->packet.via_rtx) ++frame.recovered_by_rtx;
    gathered.arrivals.push_back(
        PacketArrivalInfo{it->path, it->arrival, it->seq});
  }
  frame.first_packet_time = first_arrival;
  frame.complete_time = last_arrival;
  frame.fcd = last_arrival - first_arrival;

  // Frame leaves the packet buffer for the frame buffer.
  entries_.erase(first, last);
  frames_.erase(fit);
  ++stats_.frames_assembled;
  on_frame_(std::move(gathered));
}

std::vector<PacketBuffer::Entry>::iterator PacketBuffer::LowerBound(
    int64_t seq) {
  return std::lower_bound(
      entries_.begin(), entries_.end(), seq,
      [](const Entry& e, int64_t key) { return e.seq < key; });
}

void PacketBuffer::EvictOldest() {
  if (entries_.empty()) return;
  auto oldest = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->insert_order < oldest->insert_order) oldest = it;
  }
  auto fit = frames_.find(oldest->packet.frame_id);
  if (fit != frames_.end() && !fit->second.destroyed) {
    fit->second.destroyed = true;
    ++stats_.frames_destroyed;
  }
  entries_.erase(oldest);
  ++stats_.evicted;
}

void PacketBuffer::PurgeFramesUpTo(int64_t upto) {
  stats_.purged += static_cast<int64_t>(std::erase_if(
      entries_, [upto](const Entry& e) { return e.packet.frame_id <= upto; }));
  frames_.erase(frames_.begin(), frames_.upper_bound(upto));
}

}  // namespace converge
