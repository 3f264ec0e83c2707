// Single-thread Conference-API driver. One pass runs a workload's whole
// batch the way sim/fleet.h interleaves a shard: every live call advances
// to the same fleet-time quantum boundary before any call crosses it; a
// call is set up in the first quantum that covers its offset and is
// collected, serialized and destroyed at the boundary where it ends.
//
// Every public call into the simulator is timed; a traced pass also keeps
// one span per call (in memory, written out at the end of the run), counts
// heap traffic and samples the per-layer counters of layers.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "layers.h"
#include "sim/fleet.h"
#include "workloads.h"

namespace perfbench {

// Fleet-time slice, as sim/fleet.h's default.
inline constexpr Duration kQuantum = Duration::Millis(250);

// One timed public call. `call` is the call's index in its batch (-1 for
// the pass itself); all spans of one call share it.
struct Span {
  const char* name = "";
  int call = -1;
  int id = 0;
  int parent = -1;
  double start_us = 0.0;  // host time since the pass began
  double end_us = 0.0;
};

// Host seconds per phase, summed over the pass's calls.
struct PhaseTimes {
  double generate = 0.0;
  double negotiate = 0.0;
  double construct = 0.0;
  double start = 0.0;
  double advance = 0.0;
  double collect = 0.0;
  double serialize = 0.0;
  double destroy = 0.0;

  // Set-up: traces, SDP, construction and Start, mid-run joins included.
  double setup() const { return generate + negotiate + construct + start; }
  // The run after set-up: advance, collect, serialize, teardown.
  double run() const { return advance + collect + serialize + destroy; }
};

struct CallOutcome {
  // FNV-1a digest of the call's stats JSON.
  uint64_t digest = 0;
  size_t json_bytes = 0;
  converge::FleetCallSummary summary;
  bool failed = false;
  int64_t clamped_past = 0;
  // Plan disagreement or workload-validity miss; empty when fine.
  std::string error;
};

// QoE pooled over the pass's calls.
struct PooledQoe {
  double fps_sum = 0.0;
  double freeze_ratio_sum = 0.0;
  int64_t streams = 0;
  double goodput_sum = 0.0;
  int64_t receivers = 0;
  std::vector<double> e2e_ms;
};

struct PassOptions {
  bool traced = false;
  // Read RSS before the pass and at the points of most live call-seconds.
  bool sample_rss = false;
  bool collect_qoe = false;
  bool check_validity = true;
};

struct PassResult {
  PhaseTimes times;
  double sim_s = 0.0;
  std::vector<CallOutcome> calls;  // batch order
  PooledQoe qoe;
  // Most simulated call-seconds live at one quantum boundary, and the mean
  // RSS growth over the pass's baseline / live heap bytes at the
  // boundaries that reach it.
  double peak_live_call_s = 0.0;
  double rss_growth_kib = 0.0;   // sample_rss only
  double live_heap_bytes = 0.0;  // traced only
  AllocCounters alloc;            // traced only, whole pass
  LayerCounts layers;             // traced only
  std::vector<Span> spans;        // traced only
};

PassResult RunPass(const Workload& workload, const PassOptions& options);

// Replays a shortened instance of `workload_name` through this driver and
// through RunFleet(shards = 1) and compares the per-call FleetCallSummary
// bit for bit. Returns an empty string on agreement.
std::string FleetSelfTest(const std::string& workload_name, uint64_t seed);

}  // namespace perfbench
