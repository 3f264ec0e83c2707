#include "session/stats_json.h"

#include <cmath>
#include <sstream>

namespace converge {
namespace {

class JsonWriter {
 public:
  explicit JsonWriter(int indent) : indent_(indent) {}

  void OpenObject() { Open('{'); }
  // Keyed nested object ("stats": { ... }).
  void OpenObject(const std::string& key) {
    Key(key);
    out_ << "{";
    ++depth_;
    first_ = true;
  }
  void CloseObject() { Close('}'); }
  void OpenArray(const std::string& key) {
    Key(key);
    out_ << "[";
    ++depth_;
    first_ = true;
  }
  void CloseArray() { Close(']'); }
  void OpenObjectInArray() {
    Separator();
    Newline();
    out_ << "{";
    ++depth_;
    first_ = true;
  }

  void Field(const std::string& key, double value) {
    Key(key);
    if (std::isfinite(value)) {
      out_ << value;
    } else {
      out_ << "null";
    }
  }
  void Field(const std::string& key, int64_t value) {
    Key(key);
    out_ << value;
  }
  void Field(const std::string& key, const std::string& value) {
    Key(key);
    out_ << '"' << value << '"';
  }

  std::string str() const { return out_.str(); }

 private:
  void Open(char c) {
    Separator();
    if (depth_ > 0) Newline();
    out_ << c;
    ++depth_;
    first_ = true;
  }
  void Close(char c) {
    --depth_;
    Newline();
    out_ << c;
    first_ = false;
  }
  void Key(const std::string& key) {
    Separator();
    Newline();
    out_ << '"' << key << "\": ";
    first_ = false;
  }
  void Separator() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  void Newline() {
    out_ << '\n';
    for (int i = 0; i < depth_ * indent_; ++i) out_ << ' ';
  }

  std::ostringstream out_;
  int indent_;
  int depth_ = 0;
  bool first_ = true;
};

// Lookups that fell behind a sent history's age bound. Emitted only when
// nonzero, so a call whose lookups stay inside the horizon serializes as
// it did before the bound existed.
void HorizonMissFields(JsonWriter& w, int64_t nack_misses,
                       int64_t feedback_misses) {
  if (nack_misses != 0) w.Field("nack_horizon_misses", nack_misses);
  if (feedback_misses != 0) {
    w.Field("feedback_horizon_misses", feedback_misses);
  }
}

// Body of one CallStats object (fields + streams + time_series arrays),
// shared between the top-level CallStatsToJson export and the nested per-leg
// objects in ConferenceStatsToJson. The field order is pinned by the
// seed-era fixtures in tests/data — do not reorder.
void WriteCallStatsBody(JsonWriter& w, const CallStats& stats) {
  w.Field("avg_fps", stats.AvgFps());
  w.Field("avg_freeze_ms", stats.AvgFreezeMs());
  w.Field("avg_e2e_ms", stats.AvgE2eMs());
  w.Field("total_tput_mbps", stats.TotalTputMbps());
  w.Field("avg_qp", stats.AvgQp());
  w.Field("avg_psnr_db", stats.AvgPsnrDb());
  w.Field("media_packets_sent", stats.media_packets_sent);
  w.Field("fec_packets_sent", stats.fec_packets_sent);
  w.Field("rtx_packets_sent", stats.rtx_packets_sent);
  w.Field("frames_encoded", stats.frames_encoded);
  w.Field("fec_overhead", stats.fec_overhead);
  w.Field("fec_utilization", stats.fec_utilization);
  w.Field("fec_recovered_packets", stats.fec_recovered_packets);
  w.Field("total_frame_drops", stats.total_frame_drops);
  w.Field("total_keyframe_requests", stats.total_keyframe_requests);
  HorizonMissFields(w, stats.nack_horizon_misses,
                    stats.feedback_horizon_misses);

  w.OpenArray("streams");
  for (const StreamQoe& s : stats.streams) {
    w.OpenObjectInArray();
    w.Field("avg_fps", s.avg_fps);
    w.Field("freeze_total_ms", s.freeze_total_ms);
    w.Field("freeze_count", s.freeze_count);
    w.Field("e2e_mean_ms", s.e2e_mean_ms);
    w.Field("e2e_p95_ms", s.e2e_p95_ms);
    w.Field("tput_mbps", s.tput_mbps);
    w.Field("qp_mean", s.qp_mean);
    w.Field("psnr_mean_db", s.psnr_mean_db);
    w.Field("frames_decoded", s.frames_decoded);
    w.Field("frame_drops", s.frame_drops);
    w.Field("keyframe_requests", s.keyframe_requests);
    w.CloseObject();
  }
  w.CloseArray();

  w.OpenArray("time_series");
  for (const SecondSample& s : stats.time_series) {
    w.OpenObjectInArray();
    w.Field("t_s", s.t_s);
    w.Field("tput_mbps", s.tput_mbps);
    w.Field("fps", s.fps);
    w.Field("e2e_ms", s.e2e_ms);
    w.Field("ifd_ms", s.ifd_ms);
    w.Field("fcd_ms", s.fcd_ms);
    w.CloseObject();
  }
  w.CloseArray();
}

}  // namespace

std::string CallStatsToJson(const CallStats& stats, int indent) {
  JsonWriter w(indent);
  w.OpenObject();
  WriteCallStatsBody(w, stats);
  w.CloseObject();
  return w.str();
}

std::string ConferenceStatsToJson(const ConferenceStats& stats, int indent) {
  JsonWriter w(indent);
  w.OpenObject();

  w.OpenArray("participants");
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    w.OpenObjectInArray();
    w.Field("participant", static_cast<int64_t>(p.participant));
    w.Field("inbound_streams", static_cast<int64_t>(p.inbound_streams));
    w.Field("active_s", p.active_s);
    w.Field("avg_fps", p.avg_fps);
    w.Field("avg_freeze_ms", p.avg_freeze_ms);
    w.Field("avg_freeze_ratio", p.avg_freeze_ratio);
    w.Field("avg_e2e_ms", p.avg_e2e_ms);
    w.Field("total_tput_mbps", p.total_tput_mbps);
    w.Field("avg_qp", p.avg_qp);
    w.Field("avg_psnr_db", p.avg_psnr_db);
    w.Field("frame_drops", p.frame_drops);
    w.Field("keyframe_requests", p.keyframe_requests);
    w.CloseObject();
  }
  w.CloseArray();

  w.OpenArray("legs");
  for (const ConferenceStats::Leg& leg : stats.legs) {
    w.OpenObjectInArray();
    w.Field("from", static_cast<int64_t>(leg.from));
    w.Field("to", static_cast<int64_t>(leg.to));
    w.Field("incarnation", static_cast<int64_t>(leg.incarnation));
    w.Field("joined_s", leg.joined_s);
    w.Field("left_s", leg.left_s);
    w.OpenObject("stats");
    WriteCallStatsBody(w, leg.stats);
    w.CloseObject();
    w.CloseObject();
  }
  w.CloseArray();

  // Star only: hub-side downlink state (empty array for mesh). Rows are
  // keyed (hub, receiver, path); the hub key is emitted only for multi-hub
  // conferences so single-hub JSON stays byte-identical to the seed-era
  // fixtures.
  w.OpenArray("downlinks");
  for (const ConferenceStats::Downlink& d : stats.downlinks) {
    w.OpenObjectInArray();
    if (stats.num_hubs > 1) w.Field("hub", static_cast<int64_t>(d.hub));
    w.Field("receiver", static_cast<int64_t>(d.receiver));
    w.Field("path", static_cast<int64_t>(d.path));
    w.Field("target_kbps", d.target_kbps);
    w.Field("srtt_ms", d.srtt_ms);
    w.Field("loss", d.loss);
    w.Field("packets_forwarded", d.forwarder.packets_forwarded);
    w.Field("bytes_forwarded", d.forwarder.bytes_forwarded);
    w.Field("frames_thinned", d.forwarder.frames_thinned);
    w.Field("frames_evicted", d.forwarder.frames_evicted);
    w.Field("packets_dropped", d.forwarder.packets_dropped);
    w.Field("rtx_answered", d.forwarder.rtx_answered);
    w.Field("plis_relayed", d.forwarder.plis_relayed);
    w.Field("max_queue_bytes", d.forwarder.max_queue_bytes);
    w.Field("max_queue_delay_ms", d.forwarder.max_queue_delay_ms);
    // Layered forwarding only: the rung fields are absent for single-layer
    // calls, keeping seed-era fixtures byte-identical.
    if (stats.simulcast_rungs > 1) {
      w.Field("selected_rung", static_cast<int64_t>(d.selected_rung));
      w.Field("layer_switches", d.forwarder.layer_switches);
      w.Field("layer_packets_filtered", d.forwarder.layer_packets_filtered);
      w.Field("padding_packets", d.forwarder.padding_packets);
    }
    HorizonMissFields(w, d.forwarder.nack_horizon_misses,
                      d.feedback_horizon_misses);
    w.CloseObject();
  }
  w.CloseArray();

  // Competing cross-traffic flows (empty array when no PathSpec carries
  // any), in construction order.
  w.OpenArray("cross_traffic");
  for (const ConferenceStats::CrossFlow& f : stats.cross_traffic) {
    w.OpenObjectInArray();
    w.Field("from", static_cast<int64_t>(f.from));
    w.Field("to", static_cast<int64_t>(f.to));
    w.Field("path", static_cast<int64_t>(f.path));
    w.Field("name", f.name);
    w.Field("kind", f.kind);
    w.Field("packets_sent", f.packets_sent);
    w.Field("packets_delivered", f.packets_delivered);
    w.Field("packets_dropped", f.packets_dropped);
    w.Field("loss_events", f.loss_events);
    w.Field("throughput_mbps", f.throughput_mbps);
    w.Field("final_cwnd", f.final_cwnd);
    w.CloseObject();
  }
  w.CloseArray();

  // Layer shape, layered calls only (absent otherwise, like num_hubs).
  if (stats.simulcast_rungs > 1 || stats.temporal_layers > 1) {
    w.Field("simulcast_rungs", static_cast<int64_t>(stats.simulcast_rungs));
    w.Field("temporal_layers", static_cast<int64_t>(stats.temporal_layers));
  }

  // Cascaded-fabric state, multi-hub only: the keys are absent entirely for
  // single-hub conferences (fixture byte-identity), not emitted empty.
  if (stats.num_hubs > 1) {
    w.Field("num_hubs", static_cast<int64_t>(stats.num_hubs));

    w.OpenArray("hubs");
    for (const ConferenceStats::Hub& h : stats.hubs) {
      w.OpenObjectInArray();
      w.Field("hub", static_cast<int64_t>(h.hub));
      w.Field("alive", static_cast<int64_t>(h.alive ? 1 : 0));
      w.Field("failures", h.failures);
      w.Field("rehomed_away", h.rehomed_away);
      w.Field("rehomed_onto", h.rehomed_onto);
      w.Field("home_participants", static_cast<int64_t>(h.home_participants));
      w.CloseObject();
    }
    w.CloseArray();

    w.OpenArray("trunks");
    for (const ConferenceStats::Trunk& t : stats.trunks) {
      w.OpenObjectInArray();
      w.Field("from_hub", static_cast<int64_t>(t.from_hub));
      w.Field("to_hub", static_cast<int64_t>(t.to_hub));
      w.Field("path", static_cast<int64_t>(t.path));
      w.Field("live", static_cast<int64_t>(t.live ? 1 : 0));
      w.Field("target_kbps", t.target_kbps);
      w.Field("srtt_ms", t.srtt_ms);
      w.Field("loss", t.loss);
      w.Field("feedback_batches", t.feedback_batches);
      w.Field("packets_registered", t.packets_registered);
      w.Field("packets_forwarded", t.forwarder.packets_forwarded);
      w.Field("bytes_forwarded", t.forwarder.bytes_forwarded);
      w.Field("frames_thinned", t.forwarder.frames_thinned);
      w.Field("frames_evicted", t.forwarder.frames_evicted);
      w.Field("packets_dropped", t.forwarder.packets_dropped);
      w.Field("rtx_answered", t.forwarder.rtx_answered);
      w.Field("plis_relayed", t.forwarder.plis_relayed);
      w.Field("max_queue_bytes", t.forwarder.max_queue_bytes);
      w.Field("max_queue_delay_ms", t.forwarder.max_queue_delay_ms);
      HorizonMissFields(w, t.forwarder.nack_horizon_misses,
                        t.feedback_horizon_misses);
      w.CloseObject();
    }
    w.CloseArray();
  }

  // Absent while 0, as every modelled call keeps it (fixture byte-identity).
  if (stats.clamped_past_events != 0) {
    w.Field("clamped_past_events", stats.clamped_past_events);
  }

  w.CloseObject();
  return w.str();
}

}  // namespace converge
