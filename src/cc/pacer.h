// Per-path pacer: smooths packet emission onto a path at a fixed multiple
// of the path's allocated rate, like WebRTC's paced sender.
//
// The pacing policy is defined here once: the sender's per-path pacers and
// the hub's per-downlink queues (session/hub_forwarder) both run on these
// constants and on PacingBudget. Only the queues differ.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>

#include "rtp/rtp_packet.h"
#include "sim/event_loop.h"
#include "util/ring_buffer.h"

namespace converge {

// Pacing tick.
inline constexpr Duration kPacingInterval = Duration::Millis(5);
// Headroom of the pacing rate over the media (or CC target) rate.
inline constexpr double kPacingFactor = 1.25;
// Budget cap: at most one burst of this many bytes leaves in a tick.
inline constexpr int64_t kMaxBurstBytes = 20'000;
// Budget cap once the queue runs dry: an idle path does not save up a
// full burst for the next frame.
inline constexpr double kIdleBudgetBytes = 3000.0;

// Byte budget of one paced queue: accrues at the pacing rate, is capped at
// one burst, and is spent per emitted byte.
class PacingBudget {
 public:
  void Accrue(DataRate rate, Duration elapsed) {
    bytes_ += static_cast<double>(rate.BytesIn(elapsed));
    bytes_ = std::min(bytes_, static_cast<double>(kMaxBurstBytes));
  }
  bool Covers(int64_t size) const {
    return bytes_ >= static_cast<double>(size);
  }
  void Spend(int64_t size) { bytes_ -= static_cast<double>(size); }
  // The queue drained: do not accumulate idle budget beyond one burst.
  void CapIdle() { bytes_ = std::min(bytes_, kIdleBudgetBytes); }
  double bytes() const { return bytes_; }

 private:
  double bytes_ = 0.0;
};

class Pacer {
 public:
  struct Config {
    // PathId stamped on trace events (-1 when not path-scoped).
    int trace_path = -1;
  };

  struct Stats {
    int64_t packets_sent = 0;
    int64_t packets_dropped = 0;  // overload drops at the sender
  };

  using SendFn = std::function<void(RtpPacket&&)>;

  Pacer(EventLoop* loop, Config config, SendFn send);
  ~Pacer();

  void SetRate(DataRate media_rate);
  // Retransmissions (Table 2 priority 1) bypass the media backlog.
  void Enqueue(RtpPacket packet);

  size_t queue_packets() const { return queue_.size() + high_queue_.size(); }
  int64_t queue_bytes() const { return queued_bytes_; }
  // Expected time to drain the current queue at the pacing rate.
  Duration QueueDelay() const;
  const Stats& stats() const { return stats_; }

 private:
  void Process();

  EventLoop* loop_;
  Config config_;
  SendFn send_;
  struct Queued {
    RtpPacket packet;
    Timestamp enqueued;
  };

  DataRate pacing_rate_ = DataRate::KilobitsPerSec(300);
  // Recycled rings: the pacer queue slides through memory at packet rate,
  // so a deque would allocate and free chunks on the hot path; the ring
  // reuses its slots once it reaches steady-state depth.
  RingQueue<Queued> high_queue_;  // retransmissions
  RingQueue<Queued> queue_;
  int64_t queued_bytes_ = 0;
  PacingBudget budget_;
  Timestamp last_process_;
  Stats stats_;
  std::unique_ptr<RepeatingTask> task_;
};

}  // namespace converge
