// Output of the benchmark: the metric values it prints, the per-layer table
// and the Chrome-trace export of a traced pass's spans.
#pragma once

#include <string>
#include <vector>

#include "driver.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// One per-layer metric beside its module, the end-to-end metric it should
// move and the workloads where it works most and least.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* module;
  const char* moves;
  const char* heavy_light;
  double value = 0.0;
  // The layer did no work on this workload (a ratio with a zero base, or a
  // hub metric on a hubless workload). The JSON line reports 0 for it; the
  // per-layer table says n/a.
  bool idle = false;
};

// What the traced run measured, beyond the first traced pass itself.
struct TracedRun {
  const PassResult* first_traced = nullptr;
  PhaseTimes median_times;  // over the traced passes
  // Median over (untraced, traced) pass pairs of the run-time ratio - 1.
  double tracing_overhead = 0.0;
  int64_t e2e_samples = 0;
};

// Every per-layer metric, in BENCHMARK.json order.
std::vector<LayerMetric> LayerMetrics(const TracedRun& run);

// Markdown: one row per per-layer metric, n/a where its layer is idle.
std::string LayerTable(const std::string& workload, uint64_t seed,
                       const std::vector<LayerMetric>& metrics);

// Chrome trace-format JSON (loads in Perfetto / chrome://tracing): one
// complete ("X") event per span, one track per call.
std::string ChromeTrace(const std::string& workload, uint64_t seed,
                        const std::vector<Span>& spans);

bool WriteFile(const std::string& path, const std::string& text);

}  // namespace perfbench
