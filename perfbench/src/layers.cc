#include "layers.h"

#include <algorithm>
#include <set>

namespace perfbench {
namespace {

using converge::Conference;
using converge::ConferenceStats;

// A single SSRC's 16-bit media seq starts at 0 and wraps every 65,536
// sequence numbers. The sender's public stats count media packets sent,
// not sequence numbers issued: a packet its scheduler blacks out (no path)
// takes a number but is not sent. So the sent count reaches 65,536 at or
// after the first wrap, never before it, and sent / 65,536 is a lower bound
// on the wraps.
constexpr int64_t kSeqSpace = 65536;

}  // namespace

void LayerCounts::Add(const LayerCounts& o) {
  events += o.events;
  clamped_past += o.clamped_past;
  pending_peak = std::max(pending_peak, o.pending_peak);
  link_packets += o.link_packets;
  link_lost += o.link_lost;
  link_queue_dropped += o.link_queue_dropped;
  path0_packets += o.path0_packets;
  forward_packets += o.forward_packets;
  media_packets += o.media_packets;
  fec_packets += o.fec_packets;
  rtx_packets += o.rtx_packets;
  probe_packets += o.probe_packets;
  frames_encoded += o.frames_encoded;
  keyframes_encoded += o.keyframes_encoded;
  seq_wraps += o.seq_wraps;
  fec_received_pre += o.fec_received_pre;
  fec_used_pre += o.fec_used_pre;
  fec_received_post += o.fec_received_post;
  fec_used_post += o.fec_used_post;
  nacks_pre += o.nacks_pre;
  nack_recovered_pre += o.nack_recovered_pre;
  nacks_post += o.nacks_post;
  nack_recovered_post += o.nack_recovered_post;
  packets_inserted += o.packets_inserted;
  duplicates += o.duplicates;
  frames_destroyed += o.frames_destroyed;
  frames_dropped += o.frames_dropped;
  downlink_rows += o.downlink_rows;
  hub_forwarded += o.hub_forwarded;
  frames_thinned += o.frames_thinned;
  layer_switches += o.layer_switches;
  layer_filtered += o.layer_filtered;
  padding_packets += o.padding_packets;
  max_queue_ms = std::max(max_queue_ms, o.max_queue_ms);
  trunk_rows += o.trunk_rows;
  trunk_feedback_batches += o.trunk_feedback_batches;
  rehomed += o.rehomed;
}

CallProbe::LegSnapshot CallProbe::Read(const Conference& conference,
                                       size_t leg) {
  LegSnapshot s;
  const converge::ReceiverEndpoint& rx = conference.leg_receiver(leg);
  for (size_t i = 0; i < rx.num_streams(); ++i) {
    const auto& fec = rx.stream(static_cast<int>(i)).fec().stats();
    s.fec_received += fec.fec_received;
    s.fec_used += fec.fec_used;
  }
  s.nacks = rx.nack().stats().nacks_sent;
  s.nack_recovered = rx.nack().stats().recovered;
  return s;
}

void CallProbe::OnQuantum(Conference& conference) {
  pending_peak_ = std::max(
      pending_peak_, static_cast<int64_t>(conference.loop().pending_events()));
  if (pre_wrap_.size() < conference.num_legs()) {
    pre_wrap_.resize(conference.num_legs());
  }
  for (size_t leg = 0; leg < conference.num_legs(); ++leg) {
    LegSnapshot& snap = pre_wrap_[leg];
    if (snap.wrapped) continue;
    if (conference.leg_sender(leg).stats().media_packets_sent >= kSeqSpace) {
      snap.wrapped = true;  // keep the last pre-wrap reading
    } else {
      snap = Read(conference, leg);
    }
  }
}

void CallProbe::OnFinish(Conference& conference, const ConferenceStats& stats,
                         LayerCounts* out) const {
  LayerCounts c;
  c.events = conference.loop().executed_events();
  c.clamped_past = conference.loop().clamped_past_events();
  c.pending_peak = pending_peak_;

  std::set<const converge::Network*> networks;
  std::set<const converge::Sender*> senders;
  for (size_t leg = 0; leg < conference.num_legs(); ++leg) {
    networks.insert(&conference.leg_network(leg));
    senders.insert(&conference.leg_sender(leg));

    const converge::ReceiverEndpoint& rx = conference.leg_receiver(leg);
    for (size_t i = 0; i < rx.num_streams(); ++i) {
      const converge::VideoReceiveStream& stream =
          rx.stream(static_cast<int>(i));
      c.packets_inserted += stream.packet_buffer().stats().inserted;
      c.duplicates += stream.packet_buffer().stats().duplicates;
      c.frames_destroyed += stream.packet_buffer().stats().frames_destroyed;
      c.frames_dropped += stream.frame_buffer().stats().frames_dropped;
    }
    const LegSnapshot total = Read(conference, leg);
    const bool wrapped = leg < pre_wrap_.size() && pre_wrap_[leg].wrapped;
    const LegSnapshot pre = wrapped ? pre_wrap_[leg] : total;
    c.fec_received_pre += pre.fec_received;
    c.fec_used_pre += pre.fec_used;
    c.nacks_pre += pre.nacks;
    c.nack_recovered_pre += pre.nack_recovered;
    if (wrapped) {
      c.fec_received_post += total.fec_received - pre.fec_received;
      c.fec_used_post += total.fec_used - pre.fec_used;
      c.nacks_post += total.nacks - pre.nacks;
      c.nack_recovered_post += total.nack_recovered - pre.nack_recovered;
    }
  }
  for (const converge::Network* net : networks) {
    for (size_t p = 0; p < net->num_paths(); ++p) {
      const converge::Path& path = net->path(static_cast<converge::PathId>(p));
      for (const converge::Link* link : {&path.forward(), &path.backward()}) {
        c.link_packets += link->stats().packets_sent;
        c.link_lost += link->stats().packets_lost;
        c.link_queue_dropped += link->stats().packets_queue_dropped;
      }
      c.forward_packets += path.forward().stats().packets_sent;
      if (p == 0) c.path0_packets += path.forward().stats().packets_sent;
    }
  }
  for (const converge::Sender* sender : senders) {
    const converge::Sender::Stats& s = sender->stats();
    c.media_packets += s.media_packets_sent;
    c.fec_packets += s.fec_packets_sent;
    c.rtx_packets += s.rtx_packets_sent;
    c.probe_packets += s.probe_packets_sent;
    c.frames_encoded += s.frames_encoded;
    c.keyframes_encoded += s.keyframes_encoded;
    c.seq_wraps += s.media_packets_sent / kSeqSpace;
  }
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    ++c.downlink_rows;
    c.hub_forwarded += d.forwarder.packets_forwarded;
    c.frames_thinned += d.forwarder.frames_thinned;
    c.layer_switches += d.forwarder.layer_switches;
    c.layer_filtered += d.forwarder.layer_packets_filtered;
    c.padding_packets += d.forwarder.padding_packets;
    c.max_queue_ms = std::max(c.max_queue_ms, d.forwarder.max_queue_delay_ms);
  }
  for (const ConferenceStats::Trunk& t : stats.trunks) {
    ++c.trunk_rows;
    c.trunk_feedback_batches += t.feedback_batches;
  }
  for (const ConferenceStats::Hub& h : stats.hubs) c.rehomed += h.rehomed_onto;
  out->Add(c);
}

}  // namespace perfbench
