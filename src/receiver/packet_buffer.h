// The receiver's packet buffer (§2.1): a size-limited store that gathers the
// RTP packets of each frame of one stream (one SSRC). Packets of a frame
// occupy a contiguous sequence range ([first_in_frame .. marker]); a frame is
// assembled the moment the range is fully present. When the buffer is full,
// the oldest packets are discarded to make room — exactly the behaviour that,
// under multipath asymmetry, destroys frames whose tail packets ride a slow
// path (§3.2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "net/path.h"
#include "rtp/rtp_packet.h"
#include "rtp/sequence_number.h"
#include "video/frame.h"

namespace converge {

// Arrival record the QoE monitor consumes (§4.2).
struct PacketArrivalInfo {
  PathId path_id = kInvalidPathId;
  Timestamp arrival;
  int64_t seq = 0;  // unwrapped
};

// A fully gathered frame plus its arrival history.
struct GatheredFrame {
  AssembledFrame frame;
  std::vector<PacketArrivalInfo> arrivals;
};

class PacketBuffer {
 public:
  struct Config {
    size_t capacity_packets = 512;
  };

  struct Stats {
    int64_t inserted = 0;
    int64_t duplicates = 0;
    int64_t evicted = 0;          // dropped to make room (buffer overflow)
    int64_t purged = 0;           // cleared on frame-buffer instruction
    int64_t frames_assembled = 0;
    int64_t frames_destroyed = 0;  // had packets evicted before completing
  };

  using FrameCallback = std::function<void(GatheredFrame&&)>;

  PacketBuffer(Config config, FrameCallback on_frame);

  // Inserts a media/PPS/SPS packet (FEC-recovered and RTX packets enter here
  // too, already converted to their original form). Takes the packet by
  // value: callers on the hot receive path move it in.
  void Insert(RtpPacket packet, Timestamp arrival, PathId path);

  // Frame-buffer instruction: drop all packets belonging to frames with
  // frame_id <= `upto` (missing/purged frames, §2.1).
  void PurgeFramesUpTo(int64_t upto);

  // Counts a copy the stream's arrival record already holds and so never
  // reaches Insert.
  void CountDuplicate() { ++stats_.duplicates; }

  const Stats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    int64_t seq;  // unwrapped
    RtpPacket packet;
    Timestamp arrival;
    PathId path;
    int64_t insert_order;
  };

  struct FrameProgress {
    std::optional<int64_t> first_seq;  // unwrapped seq with first_in_frame
    std::optional<int64_t> last_seq;   // unwrapped seq with marker
    bool destroyed = false;
  };

  void TryAssemble(std::map<int64_t, FrameProgress>::iterator fit);
  // First entry whose seq is not below `seq`.
  std::vector<Entry>::iterator LowerBound(int64_t seq);
  void EvictOldest();

  Config config_;
  FrameCallback on_frame_;
  Stats stats_;
  int64_t next_insert_order_ = 0;

  SeqUnwrapper unwrapper_;
  // Sorted by seq, each seq at most once. Packets mostly arrive in order,
  // so an insert is usually an append, and a frame's packets are one
  // contiguous range.
  std::vector<Entry> entries_;
  std::map<int64_t, FrameProgress> frames_;  // keyed by frame_id
};

}  // namespace converge
