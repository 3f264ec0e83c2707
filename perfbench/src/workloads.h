// The benchmark's workloads. Each is a fixed batch of calls derived
// from the workload seed: the seed picks every per-call seed, and the
// per-call seed picks the call's traces, fault times and churn roles. The
// simulator receives only the generated inputs.
//
// A workload describes its calls and the set-up phases of one call
// (trace generation, then SDP negotiation and config assembly); the driver
// (driver.h) times those phases, constructs and starts the Conference, and
// interleaves the live calls on one thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "session/conference.h"
#include "signaling/negotiation.h"

namespace perfbench {

using converge::ConferenceConfig;
using converge::ConferenceStats;
using converge::Duration;

// One call of a batch: when it joins fleet time and for how long it runs.
struct CallSpec {
  int id = 0;
  uint64_t seed = 0;
  Duration offset = Duration::Zero();
  Duration duration = Duration::Zero();
};

// What a call's set-up produces. The generate phase makes the path
// templates: `edge` for every participant edge, and for hub-fleet the slow
// receiver's downlink pair and the inter-hub trunks. The negotiate phase
// turns them, with the negotiated plan, into `config`. `plan_error` is empty
// when the plan agrees with the config (paths, home hubs, layers,
// membership).
struct CallSetup {
  std::vector<converge::PathSpec> edge;
  std::vector<converge::PathSpec> slow_edge;
  std::vector<converge::PathSpec> trunk;
  ConferenceConfig config;
  std::string plan_error;
};

class Workload {
 public:
  virtual ~Workload() = default;

  const std::vector<CallSpec>& calls() const { return calls_; }
  // Keeps only the first `n` calls of the batch. Calls are independent, so
  // each kept call produces exactly the stats it produces in the full batch.
  void KeepFirst(size_t n) {
    if (calls_.size() > n) calls_.resize(n);
  }

  // Set-up phase 1: path and trace generation.
  virtual void Generate(const CallSpec& call, CallSetup* setup) const = 0;
  // Set-up phase 2: SDP negotiation, config assembly and the plan check.
  virtual void Negotiate(const CallSpec& call, CallSetup* setup) const = 0;
  // Workload validity after the call's Collect: empty when the call did
  // what the workload exists to exercise, else what it missed.
  virtual std::string CheckValidity(const CallSpec& call,
                                    const converge::Conference& conference,
                                    const ConferenceStats& stats) const = 0;

 protected:
  std::vector<CallSpec> calls_;
};

// The full-size batch for `name`, or nullptr for an unknown name.
// `short_calls` shrinks every call to a few seconds (same shapes, fewer
// calls) for the fleet-equivalence self-test.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed,
                                       bool short_calls = false);

// A call fails when some receiver present in the call rendered no frame
// during one of its presence windows.
bool CallFailed(const ConferenceConfig& config, const ConferenceStats& stats);

}  // namespace perfbench
