// Fleet capacity bench: how many concurrent conferences the simulator
// sustains per core, and at what memory cost.
//
// Drives sim/fleet.h with N identical (but independently seeded) 3-party
// calls, interleaved in fleet-time quanta across shards, and reports the
// throughput envelope — simulated seconds per wall second, calls per core,
// peak RSS — as machine-readable JSON (BENCH_fleet.json).
//
//   --smoke           CI envelope: 1000 concurrent 3-party calls, 1 s each
//   --calls=N         number of conferences            (default 1000)
//   --parties=N       participants per conference      (default 3)
//   --duration=SEC    simulated seconds per call       (default 1.0)
//   --shards=N        worker shards; 0 = DefaultJobs() (default 0)
//   --quantum=MS      fleet-time slice                 (default 250)
//   --churn=MS        staggers joins: call i joins at (i%16)*churn ms, so
//                     calls enter and leave mid-run    (default 0)
//   --hubs=N          cascade template: each call is a star over N regional
//                     hubs (participants round-robin) whose LAST hub fails
//                     mid-call, so every call re-homes participants under
//                     load; 1 = the historical mesh template (default 1)
//   --out=PATH        envelope JSON                    (default BENCH_fleet.json)
//   --stats=PATH      per-call digest JSON, byte-identical for any --shards
//                     value (CI diffs shards=1 against shards=8); empty =
//                     not written
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/fault_plan.h"
#include "sim/fleet.h"
#include "util/parallel.h"

namespace converge {
namespace {

using bench::FlagInt;
using bench::FlagStr;

ConferenceConfig FleetCallConfig(int parties, int hubs, Duration duration,
                                 uint64_t seed) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = hubs > 1 ? Topology::kStar : Topology::kMesh;
  config.participants.assign(static_cast<size_t>(parties),
                             ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
  config.duration = duration;
  config.seed = seed;

  PathSpec wifi;
  wifi.name = "wifi";
  wifi.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(7));
  wifi.prop_delay = Duration::Millis(20);
  PathSpec cell;
  cell.name = "cell";
  cell.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(5));
  cell.prop_delay = Duration::Millis(40);
  config.paths = {wifi, cell};
  if (hubs > 1) {
    // Cascaded fabric under churn pressure: round-robin homing, wide trunks,
    // and the last hub failing mid-call so every call exercises the
    // re-homing machinery while the fleet driver interleaves it.
    config.num_hubs = hubs;
    PathSpec trunk = wifi;
    trunk.name = "trunk";
    trunk.capacity = BandwidthTrace::Constant(
        DataRate::MegabitsPerSec(2.0 * parties + 4.0));
    trunk.prop_delay = Duration::Millis(10);
    PathSpec trunk2 = trunk;
    trunk2.name = "trunk2";
    trunk2.prop_delay = Duration::Millis(20);
    config.trunk_paths = {trunk, trunk2};
    FaultPlan outage;
    outage.Add(FaultEvent::Outage(Timestamp::Zero() + duration * 0.4,
                                  duration * 0.3));
    config.hub_fault_plans.resize(static_cast<size_t>(hubs));
    config.hub_fault_plans[static_cast<size_t>(hubs - 1)] = outage;
  }
  return config;
}

void WriteEnvelope(const std::string& path, const FleetResult& result,
                   int parties, int hubs, double duration_s,
                   int64_t quantum_ms, int64_t churn_ms, bool smoke) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // Mean per-call digest so the envelope alone flags QoE-level regressions.
  double fps = 0.0;
  double tput = 0.0;
  int64_t drops = 0;
  int64_t rehomed = 0;
  for (const FleetCallSummary& c : result.calls) {
    fps += c.avg_fps;
    tput += c.total_tput_mbps;
    drops += c.frame_drops;
    rehomed += c.rehomed;
  }
  const double n = result.calls.empty()
                       ? 1.0
                       : static_cast<double>(result.calls.size());
  std::fprintf(f,
               "{\n"
               "  \"name\": \"bench_fleet\",\n"
               "  \"smoke\": %s,\n"
               "  \"calls\": %zu,\n"
               "  \"parties\": %d,\n"
               "  \"hubs\": %d,\n"
               "  \"duration_s\": %.3f,\n"
               "  \"shards\": %d,\n"
               "  \"quantum_ms\": %" PRId64 ",\n"
               "  \"churn_ms\": %" PRId64 ",\n"
               "  \"max_concurrent\": %d,\n"
               "  \"sim_seconds\": %.3f,\n"
               "  \"wall_seconds\": %.3f,\n"
               "  \"sim_per_wall\": %.3f,\n"
               "  \"calls_per_core\": %.1f,\n"
               "  \"peak_rss_kb\": %" PRId64 ",\n"
               "  \"mean_avg_fps\": %.3f,\n"
               "  \"mean_tput_mbps\": %.3f,\n"
               "  \"total_frame_drops\": %" PRId64 ",\n"
               "  \"total_rehomed\": %" PRId64 "\n"
               "}\n",
               smoke ? "true" : "false", result.calls.size(), parties, hubs,
               duration_s, result.shards, quantum_ms, churn_ms,
               result.max_concurrent, result.sim_seconds,
               result.wall_seconds, result.sim_per_wall,
               result.calls_per_core, result.peak_rss_kb, fps / n, tput / n,
               drops, rehomed);
  std::fclose(f);
}

void WritePerCallStats(const std::string& path, const FleetResult& result) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // %.17g round-trips doubles exactly, so two runs agree byte-for-byte iff
  // the per-call results agree bit-for-bit — the shard-independence check.
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < result.calls.size(); ++i) {
    const FleetCallSummary& c = result.calls[i];
    std::fprintf(f,
                 "  {\"i\": %d, \"fps\": %.17g, \"freeze_ms\": %.17g, "
                 "\"e2e_ms\": %.17g, \"tput_mbps\": %.17g, "
                 "\"drops\": %" PRId64 ", \"kf\": %" PRId64
                 ", \"pkts\": %" PRId64 ", \"frames\": %" PRId64
                 ", \"rehomed\": %" PRId64 "}%s\n",
                 c.index, c.avg_fps, c.avg_freeze_ms, c.avg_e2e_ms,
                 c.total_tput_mbps, c.frame_drops, c.keyframe_requests,
                 c.media_packets_sent, c.frames_encoded, c.rehomed,
                 i + 1 < result.calls.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  int64_t calls = 1000;
  int64_t parties = 3;
  double duration_s = 1.0;
  int64_t shards = 0;
  int64_t quantum_ms = 250;
  int64_t churn_ms = 0;
  int64_t hubs = 1;
  std::string out = "BENCH_fleet.json";
  std::string stats_path;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
      continue;
    }
    calls = FlagInt(arg, "--calls", calls);
    parties = FlagInt(arg, "--parties", parties);
    shards = FlagInt(arg, "--shards", shards);
    quantum_ms = FlagInt(arg, "--quantum", quantum_ms);
    churn_ms = FlagInt(arg, "--churn", churn_ms);
    hubs = FlagInt(arg, "--hubs", hubs);
    std::string v;
    if (FlagStr(arg, "--duration", &v)) duration_s = std::atof(v.c_str());
    FlagStr(arg, "--out", &out);
    FlagStr(arg, "--stats", &stats_path);
  }
  if (smoke) {
    // CI envelope: 1k concurrent 3-party calls, short enough for every run.
    // The template (and so the pinned envelope) stays single-hub unless the
    // caller asks for the cascade variant explicitly.
    calls = 1000;
    parties = 3;
    duration_s = 1.0;
  }
  if (hubs < 1) {
    std::fprintf(stderr, "bad --hubs value: %" PRId64 "\n", hubs);
    return 2;
  }

  FleetConfig config;
  config.shards = static_cast<int>(shards);
  config.quantum = Duration::Millis(quantum_ms);
  config.calls.reserve(static_cast<size_t>(calls));
  for (int64_t i = 0; i < calls; ++i) {
    config.calls.push_back(FleetCallConfig(
        static_cast<int>(parties), static_cast<int>(hubs),
        Duration::Seconds(duration_s), static_cast<uint64_t>(i + 1)));
    if (churn_ms > 0) {
      config.start_offsets.push_back(Duration::Millis((i % 16) * churn_ms));
    }
  }

  const FleetResult result = RunFleet(config);
  WriteEnvelope(out, result, static_cast<int>(parties),
                static_cast<int>(hubs), duration_s, quantum_ms, churn_ms,
                smoke);
  if (!stats_path.empty()) WritePerCallStats(stats_path, result);

  std::printf(
      "fleet: %zu x %" PRId64
      "-party calls, %d shards, peak %d concurrent\n"
      "  sim %.1f s in wall %.1f s => %.1fx realtime, %.1f calls/core, "
      "peak RSS %.1f MiB\n",
      result.calls.size(), parties, result.shards, result.max_concurrent,
      result.sim_seconds, result.wall_seconds, result.sim_per_wall,
      result.calls_per_core,
      static_cast<double>(result.peak_rss_kb) / 1024.0);
  return 0;
}

}  // namespace
}  // namespace converge

int main(int argc, char** argv) { return converge::Main(argc, argv); }
