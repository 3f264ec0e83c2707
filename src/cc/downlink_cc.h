// Hub-side congestion loop for one (receiver, path) downlink of a star
// conference. The SFU hub owns the downlink sequence spaces: it stamps
// mp_transport_seq per (origin leg, path) at egress and matches the
// receiver's per-leg transport feedback against that leg's send records
// (session/egress_seq.h); this class feeds the resulting PacketResults to
// a wrapped CcController (GCC by default; any algorithm behind
// MakeCcController).
//
// The hub sends no SenderReports of its own (SR/SDES pass through from the
// origin), so the receiver-report RTT echo measures the origin's round
// trip, not the hub's. The loss branch is therefore driven from transport
// feedback directly: each batch yields a loss fraction and an RTT sample
// (feedback arrival minus send time of the newest received packet).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cc/cc_controller.h"
#include "util/time.h"

namespace converge {

class DownlinkCc {
 public:
  explicit DownlinkCc(const CcConfig& config);

  // Counts a packet stamped onto this downlink.
  void OnPacketSent() { ++packets_registered_; }

  // One leg's transport feedback for this downlink path, already matched
  // against the leg's send records. `horizon_misses` counts the arrivals
  // skipped because the age bound had trimmed their record. An empty batch
  // leaves the controller untouched.
  void OnTransportFeedback(const std::vector<PacketResult>& results,
                           int64_t horizon_misses, Timestamp now);

  DataRate target_rate() const { return cc_->target_rate(); }
  Duration smoothed_rtt() const { return cc_->smoothed_rtt(); }
  double loss_estimate() const { return cc_->loss_estimate(); }
  const CcController& controller() const { return *cc_; }

  int64_t feedback_batches() const { return feedback_batches_; }
  int64_t packets_registered() const { return packets_registered_; }
  int64_t packets_acked() const { return packets_acked_; }
  int64_t packets_lost() const { return packets_lost_; }
  // Feedback arrivals skipped because the age bound had already trimmed
  // their record (SeqWindow::Trimmed).
  int64_t horizon_misses() const { return horizon_misses_; }

 private:
  std::unique_ptr<CcController> cc_;
  int64_t feedback_batches_ = 0;
  int64_t packets_registered_ = 0;
  int64_t packets_acked_ = 0;
  int64_t packets_lost_ = 0;
  int64_t horizon_misses_ = 0;
};

}  // namespace converge
