// Shared helpers for the figure/table reproduction benches: multi-seed call
// runners, mean +/- stddev aggregation, and the paper's QoE normalizations
// (§6: throughput / 10 Mbps per stream, FPS / 24, QP / 60).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "session/call.h"
#include "trace/generators.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace converge::bench {

// Honors CONVERGE_BENCH_FAST=1 for quick smoke runs of every bench.
inline bool FastMode() {
  const char* env = std::getenv("CONVERGE_BENCH_FAST");
  return env != nullptr && env[0] == '1';
}

// `--name=value` flag parsing: FlagInt returns the value of `arg` when it
// is `name=<int>`, else `fallback`; FlagStr stores the value in `out` and
// returns true when `arg` is `name=<value>`.
inline int64_t FlagInt(const char* arg, const char* name, int64_t fallback) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    return std::atoll(arg + len + 1);
  }
  return fallback;
}

inline bool FlagStr(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

inline Duration CallLength() {
  return FastMode() ? Duration::Seconds(30) : Duration::Seconds(180);
}

inline int NumSeeds() {
  if (const char* env = std::getenv("CONVERGE_BENCH_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return FastMode() ? 2 : 5;
}

// Aggregate of repeated calls.
struct Aggregate {
  RunningStat fps;
  RunningStat freeze_ms;
  RunningStat e2e_ms;
  RunningStat tput_mbps;
  RunningStat qp;
  RunningStat psnr_db;
  RunningStat frame_drops;
  RunningStat keyframe_requests;
  RunningStat fec_overhead;     // fraction
  RunningStat fec_utilization;  // fraction
};

// Runs `seeds` calls fanned out across cores (CONVERGE_BENCH_JOBS workers;
// JOBS=1 falls back to a fully serial loop); the path set is regenerated per
// seed (like repeating a drive test on different days). Each worker receives
// a private CallConfig copy, and the Aggregate is reduced serially in seed
// order afterwards, so the result is bit-identical to the serial run no
// matter how many workers executed.
inline Aggregate RunMany(
    const CallConfig& base,
    const std::function<std::vector<PathSpec>(uint64_t seed)>& paths_for_seed,
    int seeds, int jobs = 0) {
  // Path generation stays on the caller's thread: the callback is invoked
  // exactly as often and in the same order as the old serial loop, so
  // stateful callbacks keep working.
  std::vector<CallConfig> configs;
  configs.reserve(static_cast<size_t>(seeds));
  for (int i = 0; i < seeds; ++i) {
    const uint64_t seed = 1000 + static_cast<uint64_t>(i) * 77;
    CallConfig config = base;  // by value: workers never alias shared state
    config.seed = seed;
    config.paths = paths_for_seed(seed);
    configs.push_back(std::move(config));
  }
  const std::vector<CallStats> results = RunCalls(configs, jobs);

  Aggregate agg;
  for (const CallStats& stats : results) {
    agg.fps.Add(stats.AvgFps());
    agg.freeze_ms.Add(stats.AvgFreezeMs());
    agg.e2e_ms.Add(stats.AvgE2eMs());
    agg.tput_mbps.Add(stats.TotalTputMbps());
    agg.qp.Add(stats.AvgQp());
    agg.psnr_db.Add(stats.AvgPsnrDb());
    agg.frame_drops.Add(static_cast<double>(stats.total_frame_drops));
    agg.keyframe_requests.Add(
        static_cast<double>(stats.total_keyframe_requests));
    agg.fec_overhead.Add(stats.fec_overhead);
    agg.fec_utilization.Add(stats.fec_utilization);
  }
  return agg;
}

// Fan a bench's table cells (variant x scenario jobs) out across the shared
// worker budget. Each job must write only its own result cell; jobs nest
// fine with the seed-level parallelism inside RunMany (the global thread
// budget keeps the machine from oversubscribing). Completion messages print
// from worker threads, so they may interleave between cells — pipe stderr
// through `sort` if exact ordering matters.
inline void RunCells(std::vector<std::function<void()>> jobs) {
  ParallelFor(static_cast<int64_t>(jobs.size()),
              [&](int64_t i) { jobs[static_cast<size_t>(i)](); });
}

inline std::vector<PathSpec> ScenarioPaths(Scenario scenario, uint64_t seed) {
  TraceParams params;
  params.length = CallLength();
  return MakeScenarioPaths(scenario, seed, params);
}

// --trace=<prefix> / CONVERGE_TRACE=<prefix>: instead of the bench's normal
// sweep, run ONE traced Converge call on the driving scenario (handovers and
// outages exercise every component) and write <prefix>.json (Chrome trace
// format — load it in https://ui.perfetto.dev or chrome://tracing) and
// <prefix>.csv (flat per-metric time series). Bench mains call this first
// and return early when it handled the run.
inline bool MaybeCaptureTrace(int argc, char** argv) {
  std::string prefix;
  for (int i = 1; i < argc; ++i) FlagStr(argv[i], "--trace", &prefix);
  if (prefix.empty()) {
    if (const char* env = std::getenv("CONVERGE_TRACE")) prefix = env;
  }
  if (prefix.empty()) return false;

  const uint64_t seed = 1;
  CallConfig config;
  config.variant = Variant::kConverge;
  config.duration = FastMode() ? Duration::Seconds(30) : Duration::Seconds(60);
  TraceParams params;
  params.length = config.duration;
  config.paths = MakeScenarioPathsWithFaults(Scenario::kDriving, seed, params);
  config.seed = seed;
  config.trace_capacity = TraceRecorder::kDefaultCapacity;

  Call call(config);
  const CallStats stats = call.Run();
  const TraceRecorder* trace = call.trace();

  const std::string json_path = prefix + ".json";
  const std::string csv_path = prefix + ".csv";
  const bool ok =
      trace->WriteChromeTrace(json_path) && trace->WriteCsv(csv_path);
  std::printf("traced driving call: %.2f Mbps avg, %lld events (%lld dropped)\n",
              stats.TotalTputMbps(),
              static_cast<long long>(trace->total_emitted()),
              static_cast<long long>(trace->dropped()));
  std::printf("wrote %s and %s\n", json_path.c_str(), csv_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "error: failed writing trace files\n");
    std::exit(1);
  }
  return true;
}

// Paper §6 normalizations.
inline double NormTput(double tput_mbps, int streams) {
  return tput_mbps / (10.0 * streams);
}
inline double NormFps(double fps) { return fps / 24.0; }
inline double NormQp(double qp) { return qp / 60.0; }

inline std::string MeanStd(const RunningStat& s, const char* fmt = "%.1f") {
  char a[32], b[32], out[80];
  std::snprintf(a, sizeof(a), fmt, s.mean());
  std::snprintf(b, sizeof(b), fmt, s.stddev());
  std::snprintf(out, sizeof(out), "%s +- %s", a, b);
  return out;
}

inline void Header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

}  // namespace converge::bench
