#include "cc/downlink_cc.h"

namespace converge {

DownlinkCc::DownlinkCc(const CcConfig& config)
    : cc_(MakeCcController(config)) {}

void DownlinkCc::OnTransportFeedback(const std::vector<PacketResult>& results,
                                     int64_t horizon_misses, Timestamp now) {
  horizon_misses_ += horizon_misses;
  if (results.empty()) return;
  int received = 0;
  int lost = 0;
  Timestamp newest_send = Timestamp::MinusInfinity();
  for (const PacketResult& r : results) {
    if (!r.received) {
      ++lost;
      continue;
    }
    ++received;
    if (r.send_time > newest_send) newest_send = r.send_time;
  }
  ++feedback_batches_;
  packets_acked_ += received;
  packets_lost_ += lost;
  cc_->OnTransportFeedback(results, now);
  // Drive the loss branch from the same batch: without hub SRs there is no
  // receiver-report RTT echo for this hop, so use feedback arrival minus
  // the newest received packet's send time as the round-trip sample.
  const double fraction_lost =
      static_cast<double>(lost) / static_cast<double>(received + lost);
  Duration rtt = Duration::Millis(1);
  if (newest_send.IsFinite() && now > newest_send) {
    rtt = now - newest_send;
  }
  cc_->OnReceiverReport(fraction_lost, rtt, now);
}

}  // namespace converge
