// Per-layer counters for the traced run, read from outside the simulator
// through the Conference's public getters: the event loop, each leg's
// sender, receiver streams (FEC, packet and frame buffers), NACK generator
// and network links, plus the hub, trunk and hub-failure rows of
// ConferenceStats. Counts are summed over every call of a pass.
#pragma once

#include <cstdint>
#include <vector>

#include "session/conference.h"

namespace perfbench {

struct LayerCounts {
  // sim
  int64_t events = 0;
  int64_t clamped_past = 0;
  int64_t pending_peak = 0;
  // net: every link of every pair/uplink network, both directions.
  int64_t link_packets = 0;
  int64_t link_lost = 0;
  int64_t link_queue_dropped = 0;
  // Forward (media) packets on path 0 and on all paths.
  int64_t path0_packets = 0;
  int64_t forward_packets = 0;
  // session/sender
  int64_t media_packets = 0;
  int64_t fec_packets = 0;
  int64_t rtx_packets = 0;
  int64_t probe_packets = 0;
  int64_t frames_encoded = 0;
  int64_t keyframes_encoded = 0;
  // rtp: per-SSRC 16-bit media seq wraps, a lower bound (layers.cc).
  int64_t seq_wraps = 0;
  // fec/receiver and NACK, split at the first quantum boundary where the
  // sender has sent 65,536 media packets: at or after its first seq wrap.
  int64_t fec_received_pre = 0;
  int64_t fec_used_pre = 0;
  int64_t fec_received_post = 0;
  int64_t fec_used_post = 0;
  int64_t nacks_pre = 0;
  int64_t nack_recovered_pre = 0;
  int64_t nacks_post = 0;
  int64_t nack_recovered_post = 0;
  // receiver buffers
  int64_t packets_inserted = 0;
  int64_t duplicates = 0;
  int64_t frames_destroyed = 0;
  int64_t frames_dropped = 0;
  // session/hub_forwarder and cascade
  int64_t downlink_rows = 0;
  int64_t hub_forwarded = 0;
  int64_t frames_thinned = 0;
  int64_t layer_switches = 0;
  int64_t layer_filtered = 0;
  int64_t padding_packets = 0;
  double max_queue_ms = 0.0;
  int64_t trunk_rows = 0;
  int64_t trunk_feedback_batches = 0;
  int64_t rehomed = 0;

  void Add(const LayerCounts& o);
};

// Follows one live call: sampled at every quantum boundary, then read once
// after Collect.
class CallProbe {
 public:
  // Records the event-queue high-water mark and, for every leg whose sender
  // has sent fewer than 65,536 media packets, the receive-side FEC/NACK
  // counters so far.
  void OnQuantum(converge::Conference& conference);
  // Adds the finished call's counters to `out`.
  void OnFinish(converge::Conference& conference,
                const converge::ConferenceStats& stats,
                LayerCounts* out) const;

 private:
  struct LegSnapshot {
    bool wrapped = false;
    int64_t fec_received = 0;
    int64_t fec_used = 0;
    int64_t nacks = 0;
    int64_t nack_recovered = 0;
  };
  static LegSnapshot Read(const converge::Conference& conference,
                          size_t leg);

  std::vector<LegSnapshot> pre_wrap_;
  int64_t pending_peak_ = 0;
};

}  // namespace perfbench
