// Hub-side congestion loop for one (receiver, path) downlink of a star
// conference. The SFU hub owns the downlink sequence spaces: it re-stamps
// mp_transport_seq per (origin leg, path) at egress and registers every
// stamped packet here, then translates the receiver's per-leg transport
// feedback into PacketResults for a wrapped CcController (GCC by default;
// any algorithm behind MakeCcController).
//
// The hub sends no SenderReports of its own (SR/SDES pass through from the
// origin), so the receiver-report RTT echo measures the origin's round
// trip, not the hub's. The loss branch is therefore driven from transport
// feedback directly: each batch yields a loss fraction and an RTT sample
// (feedback arrival minus send time of the newest received packet).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cc/cc_controller.h"
#include "rtp/rtcp.h"
#include "util/ring_buffer.h"
#include "util/seq_window.h"
#include "util/time.h"

namespace converge {

class DownlinkCc {
 public:
  struct Config {
    CcConfig controller;
    // Packets kept awaiting feedback; the oldest entries are pruned first.
    // Records older than kSentHistoryHorizon go as well.
    size_t max_history = 8192;
  };

  explicit DownlinkCc(Config config);

  // Registers a packet stamped onto this downlink. `leg` is the origin
  // participant index (>= 0); `transport_seq` is the hub's unwrapped
  // per-(leg, path) egress counter — the same value the receiver's
  // unwrapper reconstructs and echoes in transport feedback.
  void OnPacketSent(int leg, int64_t transport_seq, Timestamp send_time,
                    int64_t bytes);

  // One leg's transport feedback for this downlink path. Entries missing
  // from the sent history (pruned, aged out, or stamped before a restart)
  // are skipped rather than misread as losses.
  void OnTransportFeedback(int leg, const TransportFeedback& fb,
                           Timestamp now);

  DataRate target_rate() const { return cc_->target_rate(); }
  Duration smoothed_rtt() const { return cc_->smoothed_rtt(); }
  double loss_estimate() const { return cc_->loss_estimate(); }
  const CcController& controller() const { return *cc_; }

  int64_t feedback_batches() const { return feedback_batches_; }
  int64_t packets_registered() const { return packets_registered_; }
  int64_t packets_acked() const { return packets_acked_; }
  int64_t packets_lost() const { return packets_lost_; }
  // Feedback arrivals skipped because the age bound had already trimmed
  // their record from the leg's windows (SeqWindow::Trimmed).
  int64_t horizon_misses() const { return horizon_misses_; }
  // Pages the awaiting-feedback windows hold (SeqWindow::pages_allocated).
  size_t pages_allocated() const;

 private:
  struct SentRecord {
    Timestamp send_time;
    int64_t bytes = 0;
  };

  // One leg's sent history over its unwrapped transport seqs. Normally a
  // single window; a seq that collides with a still-live entry of the
  // leg's previous life (the hub restarts a leg's counter at 0 after
  // ResetOrigin) opens another, so every (leg, seq) key stays distinct.
  using LegHistory = std::vector<SeqWindow<SentRecord>>;

  SentRecord* FindSent(int leg, int64_t seq);
  bool Trimmed(int leg, int64_t seq) const;
  void EraseSent(int leg, int64_t seq);

  Config config_;
  std::unique_ptr<CcController> cc_;
  std::vector<LegHistory> sent_;  // indexed by leg
  // Every registration's (leg, seq) key in registration order; the oldest
  // is erased once more than max_history are held, across all legs.
  RingQueue<std::pair<int, int64_t>> sent_order_;
  int64_t feedback_batches_ = 0;
  int64_t packets_registered_ = 0;
  int64_t packets_acked_ = 0;
  int64_t packets_lost_ = 0;
  int64_t horizon_misses_ = 0;
};

}  // namespace converge
