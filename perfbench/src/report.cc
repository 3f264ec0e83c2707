#include "report.h"

#include <algorithm>
#include <cstdio>
#include <string>

namespace perfbench {
namespace {

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

std::string Format(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::vector<LayerMetric> LayerMetrics(const TracedRun& run) {
  const PassResult& p = *run.first_traced;
  const LayerCounts& c = p.layers;
  const PhaseTimes& t = run.median_times;
  const double sim = p.sim_s;
  const int64_t sender_packets =
      c.media_packets + c.fec_packets + c.rtx_packets + c.probe_packets;
  const bool hub = c.downlink_rows > 0;
  const bool cascade = c.trunk_rows > 0;
  const auto count = [](int64_t n) { return static_cast<double>(n); };
  int64_t json_bytes = 0;
  for (const CallOutcome& oc : p.calls) {
    json_bytes += static_cast<int64_t>(oc.json_bytes);
  }

  // Hub and cascade rows share their module, what they move and where they
  // work.
  constexpr const char* kHubModule = "session/hub_forwarder, cc/downlink_cc";
  constexpr const char* kHubMoves = "qoe_fps, qoe_e2e_p99_ms";
  constexpr const char* kHubOnly = "hub-fleet / paper-driving (idle)";
  constexpr const char* kAlloc = "util (arena, InlineFunction)";
  constexpr const char* kSender = "session/sender, cc";
  constexpr const char* kFec = "fec, receiver";
  constexpr const char* kNack = "receiver, sender RTX history";
  constexpr const char* kHubHeavy = "hub-fleet / paper-driving";
  constexpr const char* kDriveHeavy = "paper-driving / hub-fleet";
  constexpr const char* kFaults = "paper-driving (faults) / hub-fleet";
  constexpr const char* kGoodputP99 = "qoe_goodput_mbps, qoe_e2e_p99_ms";
  constexpr const char* kGoodputFreeze = "qoe_goodput_mbps, qoe_unfrozen_ratio";
  constexpr const char* kFpsFreeze = "qoe_fps, qoe_unfrozen_ratio";

  // In BENCHMARK.json order: name, unit, module, moves, heavy / light,
  // value, idle.
  std::vector<LayerMetric> rows = {
      {"trace.generate_s", "s", "trace", "setup_s", kDriveHeavy, t.generate},
      {"signaling.negotiate_s", "s", "signaling", "setup_s", kHubHeavy,
       t.negotiate},
      {"conference.construct_s", "s", "session", "setup_s", kHubHeavy,
       t.construct},
      {"conference.start_s", "s", "session", "setup_s", kHubHeavy, t.start},
      {"conference.advance_s", "s", "session", "sim_per_wall",
       "every workload", t.advance},
      {"conference.collect_s", "s", "session", "sim_per_wall", kHubHeavy,
       t.collect},
      {"conference.destroy_s", "s", "session, util arena", "sim_per_wall",
       kHubHeavy, t.destroy},
      {"stats_json.serialize_s", "s", "session/stats_json", "sim_per_wall",
       kHubHeavy, t.serialize},
      {"stats_json.bytes", "bytes", "session/stats_json", "sim_per_wall",
       kHubHeavy, count(json_bytes)},
      {"event_loop.events_per_sim_s", "1/s", "sim", "sim_per_wall", kHubHeavy,
       count(c.events) / sim},
      {"event_loop.ns_per_event", "ns", "sim", "sim_per_wall",
       "hub-fleet (memory-bound) / paper-driving (one call live)",
       c.events > 0 ? t.advance * 1e9 / count(c.events) : 0.0,
       c.events == 0},
      {"event_loop.pending_peak", "count", "sim", "rss_kib_per_call_s",
       kHubHeavy, count(c.pending_peak)},
      {"event_loop.clamped_past", "count", "sim", "rss_kib_per_call_s",
       "must stay 0 everywhere", count(c.clamped_past)},
      {"alloc.per_event", "count", kAlloc, "sim_per_wall", kHubHeavy,
       Ratio(p.alloc.allocations, c.events), c.events == 0},
      {"alloc.bytes_per_sim_s", "B/s", kAlloc,
       "sim_per_wall, rss_kib_per_call_s", kHubHeavy,
       count(p.alloc.bytes_allocated) / sim},
      {"alloc.live_bytes_peak_per_call_s", "B/call-s", kAlloc,
       "rss_kib_per_call_s", kHubHeavy,
       p.live_heap_bytes / p.peak_live_call_s},
      {"net.packets_per_sim_s", "1/s", "net", "sim_per_wall", kFaults,
       count(c.link_packets) / sim},
      {"net.loss_ratio", "fraction", "net", kGoodputP99, kFaults,
       Ratio(c.link_lost, c.link_packets), c.link_packets == 0},
      {"net.queue_drop_ratio", "fraction", "net", kGoodputP99, kFaults,
       Ratio(c.link_queue_dropped, c.link_packets), c.link_packets == 0},
      {"sender.media_packets_per_sim_s", "1/s", kSender, "qoe_goodput_mbps",
       kDriveHeavy, count(c.media_packets) / sim},
      {"sender.rtx_ratio", "fraction", kSender, kGoodputP99, kDriveHeavy,
       Ratio(c.rtx_packets, sender_packets), sender_packets == 0},
      {"sender.fec_ratio", "fraction", kSender, kGoodputP99, kDriveHeavy,
       Ratio(c.fec_packets, sender_packets), sender_packets == 0},
      {"sender.probe_ratio", "fraction", kSender, kGoodputP99, kDriveHeavy,
       Ratio(c.probe_packets, sender_packets), sender_packets == 0},
      {"video.keyframe_ratio", "fraction", "video", kGoodputFreeze,
       "hub-fleet (PLIs on re-home) / paper-driving",
       Ratio(c.keyframes_encoded, c.frames_encoded), c.frames_encoded == 0},
      {"scheduler.path0_share", "fraction", "core, schedulers",
       "qoe_e2e_p99_ms", kDriveHeavy,
       Ratio(c.path0_packets, c.forward_packets), c.forward_packets == 0},
      {"fec.overhead", "fraction", kFec, kGoodputFreeze, kDriveHeavy,
       Ratio(c.fec_packets, c.media_packets), c.media_packets == 0},
      {"fec.utilization_pre_wrap", "fraction", kFec, kGoodputFreeze,
       kDriveHeavy, Ratio(c.fec_used_pre, c.fec_received_pre),
       c.fec_received_pre == 0},
      {"fec.utilization_post_wrap", "fraction", kFec, kGoodputFreeze,
       "paper-driving / hub-fleet (no wraps: n/a)",
       Ratio(c.fec_used_post, c.fec_received_post), c.fec_received_post == 0},
      {"nack.recovered_ratio_pre_wrap", "fraction", kNack,
       "qoe_unfrozen_ratio, qoe_e2e_p99_ms", kDriveHeavy,
       Ratio(c.nack_recovered_pre, c.nacks_pre), c.nacks_pre == 0},
      {"nack.recovered_ratio_post_wrap", "fraction", kNack,
       "qoe_unfrozen_ratio, qoe_e2e_p99_ms",
       "paper-driving / hub-fleet (no wraps: n/a)",
       Ratio(c.nack_recovered_post, c.nacks_post), c.nacks_post == 0},
      {"rtp.seq_wraps", "count", "rtp",
       "validity: >= 1 per paper-driving call, 0 on hub-fleet", "-",
       count(c.seq_wraps)},
      {"receiver.duplicate_ratio", "fraction", "receiver", kFpsFreeze,
       kDriveHeavy, Ratio(c.duplicates, c.packets_inserted),
       c.packets_inserted == 0},
      {"receiver.frames_destroyed", "count", "receiver", kFpsFreeze,
       kDriveHeavy, count(c.frames_destroyed)},
      {"receiver.frames_dropped", "count", "receiver", kFpsFreeze,
       kDriveHeavy, count(c.frames_dropped)},
      {"hub.frames_thinned", "count", kHubModule, kHubMoves, kHubOnly,
       count(c.frames_thinned), !hub},
      {"hub.layer_switches", "count", kHubModule, kHubMoves, kHubOnly,
       count(c.layer_switches), !hub},
      {"hub.layer_filtered_ratio", "fraction", kHubModule, kHubMoves,
       kHubOnly, Ratio(c.layer_filtered, c.hub_forwarded + c.layer_filtered),
       !hub},
      {"hub.padding_ratio", "fraction", kHubModule, kHubMoves, kHubOnly,
       Ratio(c.padding_packets, c.hub_forwarded + c.padding_packets), !hub},
      {"hub.max_queue_ms", "ms", kHubModule, kHubMoves, kHubOnly,
       c.max_queue_ms, !hub},
      {"hub.rehomed", "count", "session cascade", kFpsFreeze, kHubOnly,
       count(c.rehomed), !cascade},
      {"hub.trunk_feedback_batches", "count", "session cascade", kFpsFreeze,
       kHubOnly, count(c.trunk_feedback_batches), !cascade},
      {"qoe.e2e_samples", "count", "session/metrics",
       "sample count behind qoe_e2e_p50_ms, qoe_e2e_p99_ms", "-",
       count(run.e2e_samples)},
      {"tracing.overhead", "fraction", "perfbench",
       "median over pass pairs of traced / untraced run time - 1", "-",
       run.tracing_overhead},
      {"tracing.spans", "count", "perfbench", "spans kept by one traced pass",
       "-", count(static_cast<int64_t>(p.spans.size()))},
  };
  for (LayerMetric& m : rows) {
    if (m.idle) m.value = 0.0;
  }
  return rows;
}

std::string LayerTable(const std::string& workload, uint64_t seed,
                       const std::vector<LayerMetric>& metrics) {
  std::string s = "# Per-layer metrics: " + workload + ", seed " +
                  std::to_string(seed) +
                  "\n\nCounts are per pass (one batch); times are medians "
                  "over the traced passes.\n\n"
                  "| metric | value | unit | module | moves | heavy / light "
                  "|\n|---|---|---|---|---|---|\n";
  for (const LayerMetric& m : metrics) {
    s += std::string("| `") + m.name + "` | " +
         (m.idle ? "n/a" : Format(m.value)) + " | " + m.unit + " | " +
         m.module + " | " + m.moves + " | " + m.heavy_light + " |\n";
  }
  return s;
}

std::string ChromeTrace(const std::string& workload, uint64_t seed,
                        const std::vector<Span>& spans) {
  std::string s = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"" +
                  JsonEscape(workload) + "\",\"seed\":" +
                  std::to_string(seed) + "},\"traceEvents\":[\n";
  char buf[256];
  // Track names: tid 0 is the pass, tid k + 1 is call k.
  s += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"pass\"}}";
  int max_call = -1;
  for (const Span& sp : spans) max_call = std::max(max_call, sp.call);
  for (int c = 0; c <= max_call; ++c) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"call %d\"}}",
                  c + 1, c);
    s += buf;
  }
  for (const Span& sp : spans) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"call\":%d,\"span\":%d,\"parent\":%d}}",
                  sp.name, sp.call + 1, sp.start_us, sp.end_us - sp.start_us,
                  sp.call, sp.id, sp.parent);
    s += buf;
  }
  s += "\n]}\n";
  return s;
}

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
