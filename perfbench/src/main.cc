// perfbench: the repository benchmark's driver binary (run it through
// perfbench/run.py, which builds it first).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// A run repeats the workload's fixed batch ("pass") until --seconds of host
// time have passed, then runs one invariant-armed pass and the
// fleet-equivalence self-test, and prints one JSON line:
//   --trace 0: the end-to-end metrics (medians over passes for host times);
//   --trace 1: the per-layer metrics, from traced passes alternated with
//              untraced ones; with --out-dir it also writes the spans as
//              Chrome-trace JSON and the per-layer table as Markdown.
// Human-readable progress and check failures go to stderr.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "driver.h"
#include "report.h"
#include "util/invariants.h"
#include "util/stats.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return false;
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") == 0   ? 0
                    : std::strcmp(value, "1") == 0 ? 1
                                                   : -1;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 &&
         args->trace >= 0 && !args->workload.empty();
}

// Calls of the batch that the invariant-armed pass replays.
constexpr size_t kArmedCalls = 2;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

PhaseTimes MedianTimes(const std::vector<const PassResult*>& passes) {
  auto med = [&](double PhaseTimes::*field) {
    std::vector<double> v;
    for (const PassResult* p : passes) v.push_back(p->times.*field);
    return Median(v);
  };
  PhaseTimes t;
  t.generate = med(&PhaseTimes::generate);
  t.negotiate = med(&PhaseTimes::negotiate);
  t.construct = med(&PhaseTimes::construct);
  t.start = med(&PhaseTimes::start);
  t.advance = med(&PhaseTimes::advance);
  t.collect = med(&PhaseTimes::collect);
  t.serialize = med(&PhaseTimes::serialize);
  t.destroy = med(&PhaseTimes::destroy);
  return t;
}

// Correctness checks shared by both modes. Returns false (after printing
// why to stderr) when any check fails.
class Checker {
 public:
  void Fail(const std::string& why) {
    std::fprintf(stderr, "check failed: %s\n", why.c_str());
    ok_ = false;
  }
  // Every pass must reproduce the first pass's per-call stats JSON.
  void SameDigests(const PassResult& ref, const PassResult& pass,
                   const char* what) {
    for (size_t i = 0; i < pass.calls.size(); ++i) {
      if (pass.calls[i].digest != ref.calls[i].digest) {
        Fail(std::string(what) + ": call " + std::to_string(i) +
             " stats JSON differs from the first pass");
        return;
      }
    }
  }
  void CallChecks(const PassResult& pass) {
    for (size_t i = 0; i < pass.calls.size(); ++i) {
      const CallOutcome& oc = pass.calls[i];
      if (!oc.error.empty()) {
        Fail("call " + std::to_string(i) + ": " + oc.error);
      }
      if (oc.clamped_past != 0) {
        Fail("call " + std::to_string(i) + ": " +
             std::to_string(oc.clamped_past) +
             " events scheduled in the past");
      }
    }
  }
  bool ok() const { return ok_; }

 private:
  bool ok_ = true;
};

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  const std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool traced_mode = args.trace == 1;
  Checker check;

  // Timed passes for --seconds of host time: the loop stops once less than
  // half of the last pass's length remains, so a run measures --seconds
  // give or take half a pass. In the traced mode untraced (even) and traced
  // (odd) passes alternate, so the tracing overhead is measured under the
  // same host conditions.
  std::deque<PassResult> passes;  // stable addresses for the views below
  std::vector<const PassResult*> untraced;
  std::vector<const PassResult*> traced;
  const auto begin = std::chrono::steady_clock::now();
  double last_end = 0.0;
  for (int i = 0;; ++i) {
    PassOptions options;
    options.traced = traced_mode && i % 2 == 1;
    options.sample_rss = i == 0;
    options.collect_qoe = i == 0;
    passes.push_back(RunPass(*workload, options));
    (options.traced ? traced : untraced).push_back(&passes.back());
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - begin)
                               .count();
    const double pass_s = elapsed - last_end;
    last_end = elapsed;
    const bool pair_done = !traced_mode || !traced.empty();
    if (elapsed + 0.5 * pass_s >= args.seconds && pair_done) break;
  }
  const PassResult& first = passes.front();
  check.CallChecks(first);
  for (const PassResult& p : passes) check.SameDigests(first, p, "pass");

  // Invariant-armed pass over the batch's first calls: same results, zero
  // violations.
  const std::unique_ptr<Workload> armed_batch =
      MakeWorkload(args.workload, args.seed);
  armed_batch->KeepFirst(kArmedCalls);
  converge::InvariantRegistry::Clear();
  converge::InvariantRegistry::SetEnabled(true);
  const PassResult armed = RunPass(*armed_batch, PassOptions{});
  converge::InvariantRegistry::SetEnabled(false);
  const int64_t violations = converge::InvariantRegistry::violation_count();
  if (violations != 0) {
    check.Fail(std::to_string(violations) + " invariant violations:\n" +
               converge::InvariantRegistry::Describe(4));
  }
  check.SameDigests(first, armed, "invariant-armed pass");

  // The driver must measure what the fleet layer runs.
  const std::string self_test = FleetSelfTest(args.workload, args.seed);
  if (!self_test.empty()) check.Fail("fleet self-test: " + self_test);

  int64_t failed_per_pass = 0;
  for (const CallOutcome& oc : first.calls) failed_per_pass += oc.failed;
  const int64_t attempted =
      static_cast<int64_t>(first.calls.size() * passes.size());
  const int64_t failed =
      failed_per_pass * static_cast<int64_t>(passes.size());

  std::fprintf(stderr,
               "%s seed=%" PRIu64 ": %zu calls x %zu passes (%zu traced), "
               "%zu e2e samples, invariant violations %" PRId64
               "\n  per-pass sim s / host s:",
               args.workload.c_str(), args.seed, first.calls.size(),
               passes.size(), traced.size(), first.qoe.e2e_ms.size(),
               violations);
  for (const PassResult& p : passes) {
    std::fprintf(stderr, " %.1f", p.sim_s / p.times.run());
  }
  std::fprintf(stderr, "\n");

  std::vector<Metric> metrics;
  if (!traced_mode) {
    std::vector<double> sim_per_wall;
    std::vector<double> setup;
    for (const PassResult* p : untraced) {
      sim_per_wall.push_back(p->sim_s / p->times.run());
      setup.push_back(p->times.setup());
    }
    const PooledQoe& q = first.qoe;
    converge::SampleSet e2e;
    for (double x : q.e2e_ms) e2e.Add(x);
    const double streams =
        static_cast<double>(std::max<int64_t>(q.streams, 1));
    const double receivers =
        static_cast<double>(std::max<int64_t>(q.receivers, 1));
    metrics = {
        {"sim_per_wall", "s/s", Median(sim_per_wall)},
        {"setup_s", "s", Median(setup)},
        {"rss_kib_per_call_s", "KiB/call-s",
         first.rss_growth_kib / first.peak_live_call_s},
        {"qoe_fps", "1/s", q.fps_sum / streams},
        {"qoe_unfrozen_ratio", "fraction", 1.0 - q.freeze_ratio_sum / streams},
        {"qoe_e2e_p50_ms", "ms", e2e.empty() ? 0.0 : e2e.Quantile(0.5)},
        {"qoe_e2e_p99_ms", "ms", e2e.empty() ? 0.0 : e2e.Quantile(0.99)},
        {"qoe_goodput_mbps", "Mbit/s", q.goodput_sum / receivers},
        {"calls_ok_share", "fraction",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted)},
    };
  } else {
    // Each traced pass against the untraced pass just before it, so slow
    // host drift cancels within a pair.
    std::vector<double> overhead;
    for (size_t i = 1; i < passes.size(); i += 2) {
      overhead.push_back(passes[i].times.run() / passes[i - 1].times.run() -
                         1.0);
    }
    TracedRun run;
    run.first_traced = traced.front();
    run.median_times = MedianTimes(traced);
    run.tracing_overhead = Median(overhead);
    run.e2e_samples = static_cast<int64_t>(first.qoe.e2e_ms.size());
    const std::vector<LayerMetric> layers = LayerMetrics(run);
    for (const LayerMetric& m : layers) {
      metrics.push_back({m.name, m.unit, m.value});
    }
    if (!args.out_dir.empty()) {
      const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed);
      if (!WriteFile(stem + ".trace.json",
                     ChromeTrace(args.workload, args.seed,
                                 traced.front()->spans)) ||
          !WriteFile(stem + ".layers.md",
                     LayerTable(args.workload, args.seed, layers))) {
        std::fprintf(stderr, "cannot write %s.*\n", stem.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s.trace.json and %s.layers.md\n",
                   stem.c_str(), stem.c_str());
    }
  }

  // %.17g: every digit as measured.
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64
              ", \"failed\": %" PRId64 ", \"metrics\": {",
              check.ok() ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
