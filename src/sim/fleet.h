// Fleet-scale simulation driver: thousands of concurrent conferences
// interleaved across cores.
//
// A single Conference is a deterministic island — its own EventLoop, its own
// seeded Random. A fleet run shards N such islands over worker threads and,
// within each shard, interleaves them in fixed time quanta: every call is
// advanced to the same fleet-time boundary before any call crosses it, so
// all calls in a shard are genuinely concurrent (live state, live buffers)
// rather than run back to back. This is the workload that sizes the
// simulator for capacity studies: how many simultaneous 3-party calls fit a
// core, and what the steady-state memory per call is.
//
// Determinism contract: a call's results depend only on its own config
// (EventLoop::RunUntil(t1) followed by RunUntil(t2) executes exactly the
// events RunUntil(t2) would), so the per-call summaries are byte-identical
// for ANY shard count or quantum — `bench_fleet --smoke` in CI diffs
// jobs=1 against jobs=8 to pin this.
//
// Churn: optional per-call join offsets stagger calls across fleet time;
// a call occupies [offset, offset + duration) and its state exists only in
// that window (constructed at join, destroyed at leave), so mid-run joins
// and leaves exercise allocation/teardown under load exactly like a real
// conferencing fleet.
#pragma once

#include <vector>

#include "session/conference.h"

namespace converge {

struct FleetConfig {
  // One entry per call; each carries its own topology/variant/seed/duration.
  std::vector<ConferenceConfig> calls;
  // Worker shards; <=0 => DefaultJobs(). Calls are dealt round-robin.
  int shards = 0;
  // Fleet-time slice: every live call advances to each quantum boundary
  // before any call passes it. Smaller quanta mean tighter interleaving
  // (more realistic concurrency) at slightly more switching overhead.
  Duration quantum = Duration::Millis(250);
  // Fleet-time join offset per call (empty => everyone joins at 0).
  std::vector<Duration> start_offsets;
};

// Compact deterministic per-call digest (full ConferenceStats for thousands
// of calls would dwarf the simulation state itself).
struct FleetCallSummary {
  int index = 0;
  double avg_fps = 0.0;
  double avg_freeze_ms = 0.0;
  double avg_e2e_ms = 0.0;
  double total_tput_mbps = 0.0;
  int64_t frame_drops = 0;
  int64_t keyframe_requests = 0;
  int64_t media_packets_sent = 0;
  int64_t frames_encoded = 0;
  // Cascaded-fabric calls only: participants re-homed across hubs by
  // mid-call hub failures (sum of the per-hub rehomed_onto counters;
  // 0 for every single-hub call).
  int64_t rehomed = 0;
};

struct FleetResult {
  std::vector<FleetCallSummary> calls;  // input order, independent of shards
  int shards = 0;
  double sim_seconds = 0.0;   // total simulated seconds summed over calls
  double wall_seconds = 0.0;
  double sim_per_wall = 0.0;  // simulated seconds per wall second
  double calls_per_core = 0.0;
  int max_concurrent = 0;     // peak simultaneously-live calls (fleet time)
  int64_t peak_rss_kb = 0;    // process peak RSS after the run
};

FleetResult RunFleet(const FleetConfig& config);

}  // namespace converge
