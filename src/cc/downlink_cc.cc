#include "cc/downlink_cc.h"

#include <algorithm>
#include <bit>
#include <vector>

namespace converge {

DownlinkCc::DownlinkCc(Config config)
    : config_(config), cc_(MakeCcController(config.controller)) {}

DownlinkCc::SentRecord* DownlinkCc::FindSent(int leg, int64_t seq) {
  if (static_cast<size_t>(leg) >= sent_.size()) return nullptr;
  for (SeqWindow<SentRecord>& window : sent_[static_cast<size_t>(leg)]) {
    if (SentRecord* record = window.Find(seq)) return record;
  }
  return nullptr;
}

bool DownlinkCc::Trimmed(int leg, int64_t seq) const {
  if (static_cast<size_t>(leg) >= sent_.size()) return false;
  const LegHistory& history = sent_[static_cast<size_t>(leg)];
  return std::any_of(history.begin(), history.end(),
                     [&](const SeqWindow<SentRecord>& window) {
                       return window.Trimmed(seq);
                     });
}

void DownlinkCc::EraseSent(int leg, int64_t seq) {
  LegHistory& history = sent_[static_cast<size_t>(leg)];
  for (auto it = history.begin(); it != history.end(); ++it) {
    if (!it->Erase(seq)) continue;
    if (it->empty() && history.size() > 1) history.erase(it);
    return;
  }
}

size_t DownlinkCc::pages_allocated() const {
  size_t pages = 0;
  for (const LegHistory& history : sent_) {
    for (const SeqWindow<SentRecord>& window : history) {
      pages += window.pages_allocated();
    }
  }
  return pages;
}

void DownlinkCc::OnPacketSent(int leg, int64_t transport_seq,
                              Timestamp send_time, int64_t bytes) {
  ++packets_registered_;
  if (config_.max_history == 0) return;  // nothing is kept
  const SentRecord record{send_time, bytes};
  if (SentRecord* existing = FindSent(leg, transport_seq)) {
    *existing = record;
  } else {
    if (static_cast<size_t>(leg) >= sent_.size()) {
      sent_.resize(static_cast<size_t>(leg) + 1);
    }
    LegHistory& history = sent_[static_cast<size_t>(leg)];
    // Within one life a leg's live seqs span fewer than max_history
    // values, so a window that large never collides with itself.
    if (history.empty() || history.back().Collides(transport_seq)) {
      history.emplace_back(std::bit_ceil(config_.max_history));
    }
    history.back().Insert(transport_seq, record);
  }
  // A key goes when any of its registrations is evicted, rewrites
  // included, so the eviction runs after the write.
  if (sent_order_.size() == config_.max_history) {
    const auto [old_leg, old_seq] = sent_order_.front();
    sent_order_.pop_front();
    EraseSent(old_leg, old_seq);
  }
  sent_order_.push_back(std::make_pair(leg, transport_seq));
  // The age bound trims the leg's own windows, which its seqs fill in
  // send order. The FIFO keeps every registration of the count cap, so a
  // restarted leg's key still goes when its previous life's registration
  // is evicted, as before the bound.
  LegHistory& history = sent_[static_cast<size_t>(leg)];
  for (SeqWindow<SentRecord>& window : history) {
    window.Trim([&](const SentRecord& held) {
      return send_time - held.send_time > kSentHistoryHorizon;
    });
  }
  if (history.size() > 1) {
    // A previous life's window goes once it is empty, as in EraseSent (the
    // record just written keeps one window alive).
    std::erase_if(history, [](const SeqWindow<SentRecord>& window) {
      return window.empty();
    });
  }
}

void DownlinkCc::OnTransportFeedback(int leg, const TransportFeedback& fb,
                                     Timestamp now) {
  std::vector<PacketResult> results;
  results.reserve(fb.arrivals.size());
  int received = 0;
  int lost = 0;
  Timestamp newest_send = Timestamp::MinusInfinity();
  for (const auto& a : fb.arrivals) {
    const SentRecord* sent = FindSent(leg, a.mp_transport_seq);
    if (sent == nullptr) {
      if (Trimmed(leg, a.mp_transport_seq)) ++horizon_misses_;
      continue;
    }
    PacketResult r;
    r.transport_seq = a.mp_transport_seq;
    r.bytes = sent->bytes;
    r.send_time = sent->send_time;
    r.received = a.recv_time.IsFinite();
    if (r.received) {
      r.recv_time = a.recv_time;
      ++received;
      if (sent->send_time > newest_send) newest_send = sent->send_time;
    } else {
      ++lost;
    }
    results.push_back(r);
  }
  if (results.empty()) return;
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
