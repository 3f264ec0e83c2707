// N-party scaling sweep over the conference runtime: per-participant QoE and
// driver wall-clock versus conference size, for both topologies. Mesh cost
// grows with the number of directed legs, N*(N-1); star grows with uplinks
// plus fan-out, so the crossover between the two is the quantity of interest.
//
// A second cell pins the PR 5 acceptance scenario: a star with one slow
// receiver (1 Mbps downlinks next to 10 Mbps peers), reporting per-downlink
// hub state (GCC target, thin/evict counts, queue highwater) so regressions
// in the forwarder's congestion loop show up as table diffs.
//
//   --smoke            tiny sweep (N in {2,3}, 1 seed, 4 s calls) plus
//                      short constrained-star, churn, and cross-traffic
//                      cells, used as a CI build-and-run sanity check
//   --churn            run ONLY the mid-call churn cell (join/leave/rejoin
//                      on a 4-party mesh, per-leg lifetime windows)
//   --layers           run ONLY the layered constrained-star cell: the same
//                      slow-receiver star with a 3-rung simulcast ladder,
//                      reporting per-downlink selected rung, switch counts,
//                      filtered packets, and ALR padding volume. Combined
//                      with --trace=<prefix> the traced subject is the
//                      layered star ("hub_layer" series in the export)
//   --cross-traffic    run ONLY the competing-TCP cell (call share vs a
//                      greedy AIMD flow on the primary path)
//   --hubs=<k>         run ONLY the cascaded-fabric cell: a fixed-size star
//                      swept across 1..k regional hubs (participants
//                      round-robin), reporting QoE, trunk state, and driver
//                      wall-clock vs hub count. With --smoke the sweep
//                      shrinks to a CI-sized sanity check. Combined with
//                      --trace=<prefix> it instead traces ONE k-hub call
//                      with a mid-call hub failure ("hub_trunk" categories
//                      + re-homing instants in the export)
//   --cc=<name>        congestion controller for every cell (gcc | nada |
//                      cross; default gcc)
//   --coupling=<name>  multipath coupling strategy (uncoupled | mp-weighted
//                      | mp-rr | mp-best; default uncoupled)
//   --trace=<prefix>   run ONE traced conference and write <prefix>.json
//                      (Perfetto / chrome://tracing) and <prefix>.csv.
//                      Default subject is the constrained star (hub queue +
//                      hub_gcc series); combined with --churn it traces the
//                      churn scenario instead (membership join/leave
//                      instants in the "conference" category)
//   CONVERGE_BENCH_FAST=1 / CONVERGE_BENCH_SEEDS / CONVERGE_BENCH_JOBS as in
//   the other benches
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "net/cross_traffic.h"
#include "net/fault_plan.h"
#include "session/conference.h"
#include "session/stats_json.h"

namespace converge {
namespace {

// --cc / --coupling selections, applied to every cell's config.
CcAlgorithm g_cc_algorithm = CcAlgorithm::kGcc;
CcCoupling g_cc_coupling = CcCoupling::kUncoupled;

void ApplyCcFlags(ConferenceConfig& config) {
  config.cc_algorithm = g_cc_algorithm;
  config.cc_coupling = g_cc_coupling;
}

ConferenceConfig NpartyConfig(Topology topology, int participants,
                              Duration duration, uint64_t seed) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = topology;
  config.participants.assign(static_cast<size_t>(participants),
                             ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(4);
  config.duration = duration;
  config.seed = seed;

  // Every participant: a WiFi-like and a cellular-like access path. Star
  // downlinks out of the forwarder are provisioned for the aggregate of the
  // N-1 forwarded senders (the SFU sits in well-connected infrastructure).
  const int fanout = participants - 1;
  config.paths_for_edge = [fanout](int from, int) {
    auto path = [](const char* name, double mbps, int delay_ms, double loss) {
      PathSpec spec;
      spec.name = name;
      spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
      spec.prop_delay = Duration::Millis(delay_ms);
      if (loss > 0.0) spec.loss = std::make_shared<BernoulliLoss>(loss);
      return spec;
    };
    if (from == kHubId) {
      return std::vector<PathSpec>{
          path("dl-wifi", 10.0 * fanout, 10, 0.0),
          path("dl-cell", 8.0 * fanout, 20, 0.0)};
    }
    return std::vector<PathSpec>{path("wifi", 7.0, 20, 0.01),
                                 path("cell", 5.0, 40, 0.005)};
  };
  ApplyCcFlags(config);
  return config;
}

// One sender (3 Mbps cap), three receivers; receiver 3's downlink pair is
// scaled by slow_mbps (1.0 = the constrained acceptance scenario, 10.0 = the
// unconstrained baseline). Mirrors the fixture in tests/conference_test.cc.
ConferenceConfig ConstrainedStarConfig(double slow_mbps, Duration duration,
                                       uint64_t seed) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kStar;
  config.participants.assign(4, ParticipantSpec{});
  config.participants[0].receives = false;
  for (int p = 1; p < 4; ++p) config.participants[p].sends = false;
  config.max_rate_per_stream = DataRate::MegabitsPerSec(3);
  config.duration = duration;
  config.seed = seed;
  config.paths_for_edge = [slow_mbps](int from, int to) {
    auto path = [](const char* name, double mbps, int delay_ms) {
      PathSpec spec;
      spec.name = name;
      spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
      spec.prop_delay = Duration::Millis(delay_ms);
      return spec;
    };
    if (from == kHubId) {
      const double scale = to == 3 ? slow_mbps : 10.0;
      return std::vector<PathSpec>{path("d0", 0.6 * scale, 15),
                                   path("d1", 0.4 * scale, 25)};
    }
    return std::vector<PathSpec>{path("u0", 6.0, 20), path("u1", 4.0, 35)};
  };
  ApplyCcFlags(config);
  return config;
}

// Constrained vs unconstrained star, with the hub's per-downlink rows. The
// interesting deltas: receiver 3's summed target_kbps converging toward its
// 1 Mbps downlink pair, thin/evict counters absorbing the excess, and
// receivers 1-2 matching the baseline row.
int ConstrainedStarCell(Duration duration) {
  bench::Header("constrained-downlink star: 1 sender @3 Mbps, receiver 3 slow");
  for (const double slow : {1.0, 10.0}) {
    Conference conference(ConstrainedStarConfig(slow, duration, 42));
    const ConferenceStats stats = conference.Run();
    std::printf("\nslow-downlink scale %.0fx (receiver 3 pair = %.1f Mbps)\n",
                slow, slow);
    std::printf("  %4s %8s %8s %8s %8s\n", "recv", "fps", "freeze", "e2e_ms",
                "mbps");
    for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
      if (p.inbound_streams == 0) continue;
      std::printf("  %4d %8.2f %8.1f %8.1f %8.2f\n", p.participant, p.avg_fps,
                  p.avg_freeze_ms, p.avg_e2e_ms, p.total_tput_mbps);
    }
    std::printf("  %4s %4s %8s %7s %6s %6s %6s %5s %9s %9s\n", "recv", "path",
                "tgt_kbps", "srtt_ms", "loss", "thin", "evict", "plis",
                "max_q_kB", "max_q_ms");
    for (const ConferenceStats::Downlink& d : stats.downlinks) {
      std::printf("  %4d %4d %8.0f %7.1f %6.3f %6lld %6lld %5lld %9.1f %9.1f\n",
                  d.receiver, static_cast<int>(d.path), d.target_kbps,
                  d.srtt_ms, d.loss,
                  static_cast<long long>(d.forwarder.frames_thinned),
                  static_cast<long long>(d.forwarder.frames_evicted),
                  static_cast<long long>(d.forwarder.plis_relayed),
                  d.forwarder.max_queue_bytes / 1000.0,
                  d.forwarder.max_queue_delay_ms);
    }
    // Structural sanity for CI: the hub must expose one row per
    // (receiver, path) and the constrained run must actually thin.
    if (stats.downlinks.size() != 6) {
      std::fprintf(stderr, "constrained cell: got %zu downlink rows, want 6\n",
                   stats.downlinks.size());
      return 1;
    }
    if (slow == 1.0) {
      int64_t thinned = 0;
      for (const ConferenceStats::Downlink& d : stats.downlinks) {
        if (d.receiver == 3) thinned += d.forwarder.frames_thinned;
      }
      if (thinned == 0) {
        std::fprintf(stderr,
                     "constrained cell: slow receiver was never thinned\n");
        return 1;
      }
    }
  }
  return 0;
}

// The layered variant of the constrained star: same shape, but the sender
// offers a 3-rung simulcast ladder and the hub runs per-(receiver, path)
// rung selection instead of whole-frame thinning.
ConferenceConfig LayeredStarConfig(double slow_mbps, Duration duration,
                                   uint64_t seed) {
  ConferenceConfig config = ConstrainedStarConfig(slow_mbps, duration, seed);
  config.simulcast_rungs = 3;
  return config;
}

// Layered constrained vs unconstrained star. The interesting deltas against
// ConstrainedStarCell: receiver 3 settles on a lower rung at full fps with
// zero thinning, receivers 1-2 hold rung 0, and the padding column shows the
// ALR probe volume the hub spent keeping each downlink's estimator honest.
int LayeredStarCell(Duration duration) {
  bench::Header(
      "layered star: 3-rung simulcast, per-downlink rung selection");
  for (const double slow : {1.0, 10.0}) {
    Conference conference(LayeredStarConfig(slow, duration, 42));
    const ConferenceStats stats = conference.Run();
    std::printf("\nslow-downlink scale %.0fx (receiver 3 pair = %.1f Mbps)\n",
                slow, slow);
    std::printf("  %4s %8s %8s %8s %8s\n", "recv", "fps", "freeze", "e2e_ms",
                "mbps");
    for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
      if (p.inbound_streams == 0) continue;
      std::printf("  %4d %8.2f %8.1f %8.1f %8.2f\n", p.participant, p.avg_fps,
                  p.avg_freeze_ms, p.avg_e2e_ms, p.total_tput_mbps);
    }
    std::printf("  %4s %4s %8s %5s %9s %9s %6s %6s %8s\n", "recv", "path",
                "tgt_kbps", "rung", "switches", "filtered", "thin", "evict",
                "padding");
    for (const ConferenceStats::Downlink& d : stats.downlinks) {
      std::printf("  %4d %4d %8.0f %5d %9lld %9lld %6lld %6lld %8lld\n",
                  d.receiver, static_cast<int>(d.path), d.target_kbps,
                  d.selected_rung,
                  static_cast<long long>(d.forwarder.layer_switches),
                  static_cast<long long>(d.forwarder.layer_packets_filtered),
                  static_cast<long long>(d.forwarder.frames_thinned),
                  static_cast<long long>(d.forwarder.frames_evicted),
                  static_cast<long long>(d.forwarder.padding_packets));
    }
    // Structural sanity for CI: the constrained run must adapt by rung
    // selection (not thinning), and unconstrained receivers stay on the
    // top rung at full rate.
    for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
      if (p.inbound_streams > 0 && p.avg_fps <= 20.0) {
        std::fprintf(stderr, "layered cell: receiver %d collapsed to %.2f fps\n",
                     p.participant, p.avg_fps);
        return 1;
      }
    }
    int max_slow_rung = 0;
    for (const ConferenceStats::Downlink& d : stats.downlinks) {
      if (d.receiver == 3) {
        max_slow_rung = std::max(max_slow_rung, d.selected_rung);
      } else if (d.selected_rung != 0) {
        std::fprintf(stderr,
                     "layered cell: fast receiver %d left rung 0 (rung %d)\n",
                     d.receiver, d.selected_rung);
        return 1;
      }
    }
    if (slow == 1.0 && max_slow_rung == 0) {
      std::fprintf(stderr,
                   "layered cell: slow receiver never left the top rung\n");
      return 1;
    }
    if (slow == 10.0 && max_slow_rung != 0) {
      std::fprintf(stderr,
                   "layered cell: unconstrained receiver 3 downswitched\n");
      return 1;
    }
  }
  return 0;
}

// Mid-call churn: a 4-party mesh where participant 3 joins late, 1 leaves
// and rejoins, and 2 leaves for good. Event times scale with the duration
// so the smoke run exercises the same shape in a few seconds.
ConferenceConfig ChurnConfig(Duration duration, uint64_t seed) {
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kMesh;
  config.participants.assign(4, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(3);
  config.duration = duration;
  config.seed = seed;
  config.paths_for_edge = [](int, int) {
    auto path = [](const char* name, double mbps, int delay_ms, double loss) {
      PathSpec spec;
      spec.name = name;
      spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
      spec.prop_delay = Duration::Millis(delay_ms);
      if (loss > 0.0) spec.loss = std::make_shared<BernoulliLoss>(loss);
      return spec;
    };
    return std::vector<PathSpec>{path("wifi", 6.0, 20, 0.01),
                                 path("cell", 4.0, 35, 0.005)};
  };
  auto at = [&](double frac) {
    return Timestamp::Zero() + duration * frac;
  };
  config.membership = {
      {MembershipEvent::Kind::kJoin, at(0.15), 3},
      {MembershipEvent::Kind::kLeave, at(0.40), 1},
      {MembershipEvent::Kind::kJoin, at(0.60), 1},
      {MembershipEvent::Kind::kLeave, at(0.80), 2},
  };
  ApplyCcFlags(config);
  return config;
}

// Per-leg lifetime windows and rates under churn. The interesting deltas:
// rejoin legs (incarnation 1) ramping back within their short window, and
// retired legs keeping sane whole-window aggregates.
int ChurnCell(Duration duration) {
  bench::Header("mid-call churn: 4-party mesh, late join + leave/rejoin");
  Conference conference(ChurnConfig(duration, 42));
  const ConferenceStats stats = conference.Run();
  std::printf("  %4s %8s %8s %8s\n", "part", "active_s", "fps", "mbps");
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    std::printf("  %4d %8.1f %8.2f %8.2f\n", p.participant, p.active_s,
                p.avg_fps, p.total_tput_mbps);
  }
  std::printf("  %4s %3s %3s %4s %7s %7s %8s %8s\n", "leg", "frm", "to",
              "inc", "join_s", "left_s", "fps", "mbps");
  for (size_t i = 0; i < stats.legs.size(); ++i) {
    const ConferenceStats::Leg& leg = stats.legs[i];
    std::printf("  %4zu %3d %3d %4d %7.1f %7.1f %8.2f %8.2f\n", i, leg.from,
                leg.to, leg.incarnation, leg.joined_s, leg.left_s,
                leg.stats.AvgFps(), leg.stats.TotalTputMbps());
  }
  // Structural sanity for CI: the initial 6 legs of {0,1,2}, 6 more from
  // p3's join, 6 rejoin legs for p1's second incarnation.
  if (stats.legs.size() != 18) {
    std::fprintf(stderr, "churn cell: got %zu legs, want 18\n",
                 stats.legs.size());
    return 1;
  }
  // p1's rejoin creates 6 fresh legs; the 3 it publishes carry its new
  // incarnation (inbound legs keep each sender's own incarnation 0).
  const double rejoin_s = (duration * 0.6).seconds();
  double rejoin_tput = 0.0;
  int rejoin_out = 0, rejoin_fresh = 0;
  for (const ConferenceStats::Leg& leg : stats.legs) {
    if (leg.joined_s == rejoin_s && (leg.from == 1 || leg.to == 1)) {
      ++rejoin_fresh;
    }
    if (leg.incarnation != 1) continue;
    ++rejoin_out;
    rejoin_tput += leg.stats.TotalTputMbps();
  }
  if (rejoin_out != 3 || rejoin_fresh != 6 || rejoin_tput <= 0.0) {
    std::fprintf(stderr,
                 "churn cell: %d inc-1 legs (want 3), %d fresh legs (want 6), "
                 "%.2f Mbps total\n",
                 rejoin_out, rejoin_fresh, rejoin_tput);
    return 1;
  }
  return 0;
}

// Competing cross-traffic: a duplex 2-party call whose 6 Mbps primary is
// shared with one greedy TCP-like flow, next to a clean 3 Mbps secondary.
// The delay-sensitive call concedes most of the shared path but must keep a
// nonzero stable share overall.
int CrossTrafficCell(Duration duration) {
  bench::Header("competing cross-traffic: 2-party call vs one TCP flow");
  ConferenceConfig config;
  config.variant = Variant::kConverge;
  config.topology = Topology::kMesh;
  config.participants.assign(2, ParticipantSpec{});
  config.max_rate_per_stream = DataRate::MegabitsPerSec(6);
  config.duration = duration;
  config.seed = 42;
  PathSpec p0;
  p0.name = "shared";
  p0.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(6));
  p0.prop_delay = Duration::Millis(20);
  CrossTrafficSpec bulk;
  bulk.name = "bulk";
  bulk.kind = CrossTrafficKind::kTcp;
  bulk.start = Timestamp::Zero() + duration * 0.1;
  p0.cross_traffic = {bulk};
  PathSpec p1;
  p1.name = "clean";
  p1.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(3));
  p1.prop_delay = Duration::Millis(35);
  config.paths = {p0, p1};
  ApplyCcFlags(config);

  Conference conference(config);
  const ConferenceStats stats = conference.Run();
  std::printf("  %4s %8s %8s\n", "part", "fps", "mbps");
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    std::printf("  %4d %8.2f %8.2f\n", p.participant, p.avg_fps,
                p.total_tput_mbps);
  }
  std::printf("  %-6s %4s %4s %8s %8s %7s %8s\n", "flow", "edge", "path",
              "mbps", "deliv", "loss", "cwnd");
  for (const ConferenceStats::CrossFlow& f : stats.cross_traffic) {
    std::printf("  %-6s %d->%d %4d %8.2f %8lld %7lld %8.1f\n", f.name.c_str(),
                f.from, f.to, static_cast<int>(f.path), f.throughput_mbps,
                static_cast<long long>(f.packets_delivered),
                static_cast<long long>(f.loss_events), f.final_cwnd);
  }
  // Structural sanity for CI: one flow per direction, both actually moved
  // bytes, and the call held a nonzero share.
  if (stats.cross_traffic.size() != 2) {
    std::fprintf(stderr, "cross-traffic cell: got %zu flows, want 2\n",
                 stats.cross_traffic.size());
    return 1;
  }
  for (const ConferenceStats::CrossFlow& f : stats.cross_traffic) {
    if (f.packets_delivered <= 0) {
      std::fprintf(stderr, "cross-traffic cell: flow %s moved nothing\n",
                   f.name.c_str());
      return 1;
    }
  }
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    if (p.total_tput_mbps <= 0.5) {
      std::fprintf(stderr,
                   "cross-traffic cell: participant %d starved (%.2f Mbps)\n",
                   p.participant, p.total_tput_mbps);
      return 1;
    }
  }
  return 0;
}

// Cascaded-fabric subject: the N-party star wired over `num_hubs` regional
// hubs. home_hub stays empty so participants land round-robin (p % hubs),
// and the trunks get a dedicated path pair provisioned for every sender's
// 4 Mbps cap with headroom — the inter-hub legs sit in well-connected
// infrastructure, like the hub downlinks above.
ConferenceConfig CascadeConfig(int participants, int num_hubs,
                               Duration duration, uint64_t seed) {
  ConferenceConfig config =
      NpartyConfig(Topology::kStar, participants, duration, seed);
  config.num_hubs = num_hubs;
  auto trunk = [](const char* name, double mbps, int delay_ms) {
    PathSpec spec;
    spec.name = name;
    spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
    spec.prop_delay = Duration::Millis(delay_ms);
    return spec;
  };
  config.trunk_paths = {trunk("trunk-a", 6.0 * participants, 15),
                        trunk("trunk-b", 4.0 * participants, 25)};
  return config;
}

// The traced chaos subject: a k-hub call whose last hub dies 40% into the
// call and recovers at 80%, so the export carries "hub_trunk" queue/CC
// series (the flight recorder keeps the newest events, so early instants
// may rotate out; the structural failure/re-home checks run on stats).
ConferenceConfig CascadeFailoverConfig(int participants, int num_hubs,
                                       Duration duration, uint64_t seed) {
  ConferenceConfig config =
      CascadeConfig(participants, num_hubs, duration, seed);
  FaultPlan plan;
  plan.Add(FaultEvent::Outage(Timestamp::Zero() + duration * 0.4,
                              duration * 0.4));
  config.hub_fault_plans.assign(static_cast<size_t>(num_hubs), FaultPlan{});
  config.hub_fault_plans[static_cast<size_t>(num_hubs - 1)] = plan;
  return config;
}

// QoE and driver wall-clock versus hub count: the same star swept from the
// degenerate 1-hub case (zero trunks) up to max_hubs. Each extra hub adds
// h*(h-1) directed trunks and one store-and-forward trunk crossing for
// remote-hub media, so the expected deltas are a modest e2e_ms rise and
// trunk rows appearing in the stats.
int HubSweepCell(int max_hubs, int participants, Duration duration,
                 int seeds) {
  bench::Header("cascaded fabric: fixed-size star vs hub count");
  std::printf("%4s %6s %8s %8s %8s %9s %10s\n", "hubs", "trunks", "fps",
              "freeze", "e2e_ms", "mbps/recv", "wall_ms");
  for (int h = 1; h <= max_hubs; ++h) {
    std::vector<ConferenceConfig> configs;
    for (int i = 0; i < seeds; ++i) {
      configs.push_back(CascadeConfig(participants, h, duration,
                                      1000 + static_cast<uint64_t>(i) * 77));
    }
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ConferenceStats> results = RunConferences(configs);
    const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    RunningStat fps, freeze, e2e, tput;
    size_t trunk_rows = 0;
    for (const ConferenceStats& stats : results) {
      trunk_rows = stats.trunks.size();
      for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
        fps.Add(p.avg_fps);
        freeze.Add(p.avg_freeze_ms);
        e2e.Add(p.avg_e2e_ms);
        tput.Add(p.total_tput_mbps);
      }
    }
    std::printf("%4d %6zu %8.2f %8.1f %8.1f %9.2f %10lld\n", h, trunk_rows,
                fps.mean(), freeze.mean(), e2e.mean(), tput.mean(),
                static_cast<long long>(wall.count()));
    // Structural sanity for CI: the degenerate case must stay trunk-free, a
    // real fabric must expose one stats row per directed trunk per path, and
    // every receiver must keep rendering across the extra trunk hop.
    const size_t want_rows =
        h == 1 ? 0 : static_cast<size_t>(h) * (h - 1) * 2;
    if (trunk_rows != want_rows) {
      std::fprintf(stderr,
                   "hub cell: got %zu trunk rows at %d hubs, want %zu\n",
                   trunk_rows, h, want_rows);
      return 1;
    }
    if (fps.mean() <= 1.0) {
      std::fprintf(stderr,
                   "hub cell: receivers starved at %d hubs (%.2f fps)\n", h,
                   fps.mean());
      return 1;
    }
  }
  return 0;
}

// Command-line flags (see the file comment), parsed once in Main.
struct Options {
  bool smoke = false;
  bool churn = false;   // --churn: only the churn cell (or trace subject)
  bool cross = false;   // --cross-traffic
  bool layers = false;  // --layers: only the layered cell (or trace subject)
  int hubs = 0;         // --hubs=<k>; 0 = not given
  std::string trace;    // --trace=<prefix>
};

// --trace=<prefix> / CONVERGE_TRACE=<prefix>: one traced constrained-star
// conference; the export carries the hub's per-downlink queue counters
// ("hub" component) and the downlink controllers ("hub_gcc") alongside the
// usual sender-side probes.
bool MaybeCaptureHubTrace(const Options& options) {
  std::string prefix = options.trace;
  const bool churn = options.churn;
  const bool layers = options.layers;
  const int hubs = options.hubs;
  if (prefix.empty()) {
    if (const char* env = std::getenv("CONVERGE_TRACE")) prefix = env;
  }
  if (prefix.empty()) return false;

  const Duration duration =
      bench::FastMode() ? Duration::Seconds(8) : Duration::Seconds(30);
  ConferenceConfig config =
      hubs >= 2 ? CascadeFailoverConfig(9, hubs, duration, 42)
      : churn   ? ChurnConfig(duration, 42)
      : layers  ? LayeredStarConfig(1.0, duration, 42)
                : ConstrainedStarConfig(1.0, duration, 42);
  config.trace_capacity = TraceRecorder::kDefaultCapacity;
  Conference conference(config);
  const ConferenceStats stats = conference.Run();
  const TraceRecorder* trace = conference.trace();

  const std::string json_path = prefix + ".json";
  const std::string csv_path = prefix + ".csv";
  const bool ok =
      trace->WriteChromeTrace(json_path) && trace->WriteCsv(csv_path);
  if (hubs >= 2) {
    int64_t failures = 0, rehomed = 0;
    for (const ConferenceStats::Hub& hb : stats.hubs) {
      failures += hb.failures;
      rehomed += hb.rehomed_onto;
    }
    std::printf(
        "traced %d-hub failover: %lld hub failures, %lld participants "
        "re-homed, %zu trunk rows, %lld events (%lld dropped)\n",
        hubs, static_cast<long long>(failures),
        static_cast<long long>(rehomed), stats.trunks.size(),
        static_cast<long long>(trace->total_emitted()),
        static_cast<long long>(trace->dropped()));
    if (failures == 0 || rehomed == 0) {
      std::fprintf(stderr,
                   "error: traced failover never failed/re-homed a hub\n");
      std::exit(1);
    }
  } else if (churn) {
    double rejoin_tput = 0.0;
    for (const ConferenceStats::Leg& leg : stats.legs) {
      if (leg.incarnation == 1) rejoin_tput += leg.stats.TotalTputMbps();
    }
    std::printf(
        "traced churn mesh: rejoin legs %.2f Mbps total, %lld events "
        "(%lld dropped)\n",
        rejoin_tput, static_cast<long long>(trace->total_emitted()),
        static_cast<long long>(trace->dropped()));
  } else {
    double slow_tput = 0.0;
    for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
      if (p.participant == 3) slow_tput = p.total_tput_mbps;
    }
    std::printf(
        "traced %s star: slow receiver %.2f Mbps, %lld events "
        "(%lld dropped)\n",
        layers ? "layered" : "constrained", slow_tput,
        static_cast<long long>(trace->total_emitted()),
        static_cast<long long>(trace->dropped()));
  }
  std::printf("wrote %s and %s\n", json_path.c_str(), csv_path.c_str());
  if (!ok) {
    std::fprintf(stderr, "error: failed writing trace files\n");
    std::exit(1);
  }
  return true;
}

void SweepTopology(Topology topology, const std::vector<int>& sizes,
                   Duration duration, int seeds) {
  bench::Header(("n-party scaling: " + ToString(topology) + " topology").c_str());
  std::printf("%3s %5s %8s %8s %8s %9s %8s %10s\n", "N", "legs", "fps",
              "freeze", "e2e_ms", "mbps/recv", "drops", "wall_ms");
  for (int n : sizes) {
    std::vector<ConferenceConfig> configs;
    for (int i = 0; i < seeds; ++i) {
      configs.push_back(NpartyConfig(topology, n, duration,
                                     1000 + static_cast<uint64_t>(i) * 77));
    }
    const auto start = std::chrono::steady_clock::now();
    const std::vector<ConferenceStats> results = RunConferences(configs);
    const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);

    RunningStat fps, freeze, e2e, tput, drops;
    size_t legs = 0;
    for (const ConferenceStats& stats : results) {
      legs = stats.legs.size();
      for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
        fps.Add(p.avg_fps);
        freeze.Add(p.avg_freeze_ms);
        e2e.Add(p.avg_e2e_ms);
        tput.Add(p.total_tput_mbps);
        drops.Add(static_cast<double>(p.frame_drops));
      }
    }
    std::printf("%3d %5zu %8.2f %8.1f %8.1f %9.2f %8.1f %10lld\n", n, legs,
                fps.mean(), freeze.mean(), e2e.mean(), tput.mean(),
                drops.mean(), static_cast<long long>(wall.count()));
  }
}

int Main(int argc, char** argv) {
  Options options;
  // CC flags are parsed before the trace short-circuit so a traced run
  // (`--trace=... --cc=nada`) exercises the requested controller too.
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const std::string_view flag = arg;
    if (flag == "--smoke") options.smoke = true;
    if (flag == "--churn") options.churn = true;
    if (flag == "--cross-traffic") options.cross = true;
    if (flag == "--layers") options.layers = true;
    bench::FlagStr(arg, "--trace", &options.trace);
    std::string value;
    if (bench::FlagStr(arg, "--hubs", &value)) {
      options.hubs = std::atoi(value.c_str());
      if (options.hubs < 1) {
        std::fprintf(stderr, "bad --hubs value: %s\n", value.c_str());
        return 2;
      }
    }
    if (bench::FlagStr(arg, "--cc", &value) &&
        !ParseCcAlgorithm(value, &g_cc_algorithm)) {
      std::fprintf(stderr, "unknown --cc value: %s\n", value.c_str());
      return 2;
    }
    if (bench::FlagStr(arg, "--coupling", &value) &&
        !ParseCcCoupling(value, &g_cc_coupling)) {
      std::fprintf(stderr, "unknown --coupling value: %s\n", value.c_str());
      return 2;
    }
  }
  const bool smoke = options.smoke;
  const int hubs = options.hubs;

  if (MaybeCaptureHubTrace(options)) return 0;
  if (g_cc_algorithm != CcAlgorithm::kGcc ||
      g_cc_coupling != CcCoupling::kUncoupled) {
    std::printf("congestion control: %s, coupling: %s\n",
                ToString(g_cc_algorithm).c_str(),
                ToString(g_cc_coupling).c_str());
  }
  if (options.churn || options.cross || options.layers) {
    const Duration cell_duration =
        smoke || bench::FastMode() ? Duration::Seconds(10)
                                   : Duration::Seconds(30);
    int rc = 0;
    if (options.churn) rc = ChurnCell(cell_duration);
    if (rc == 0 && options.cross) rc = CrossTrafficCell(cell_duration);
    if (rc == 0 && options.layers) rc = LayeredStarCell(cell_duration);
    return rc;
  }
  if (hubs > 0) {
    const bool fast = smoke || bench::FastMode();
    return HubSweepCell(hubs, /*participants=*/fast ? 6 : 12,
                        fast ? Duration::Seconds(6) : Duration::Seconds(30),
                        fast ? 1 : bench::NumSeeds());
  }

  std::vector<int> sizes;
  Duration duration = Duration::Seconds(0);
  int seeds = 0;
  if (smoke) {
    sizes = {2, 3};
    duration = Duration::Seconds(4);
    seeds = 1;
  } else {
    sizes = {2, 3, 4, 5, 6};
    duration = bench::FastMode() ? Duration::Seconds(10) : Duration::Seconds(60);
    seeds = bench::NumSeeds();
  }

  SweepTopology(Topology::kMesh, sizes, duration, seeds);
  SweepTopology(Topology::kStar, sizes, duration, seeds);
  if (int rc = ConstrainedStarCell(smoke ? Duration::Seconds(6) : duration);
      rc != 0) {
    return rc;
  }
  if (int rc = LayeredStarCell(smoke ? Duration::Seconds(10) : duration);
      rc != 0) {
    return rc;
  }
  const Duration cell_duration = smoke ? Duration::Seconds(10) : duration;
  if (int rc = ChurnCell(cell_duration); rc != 0) return rc;
  if (int rc = CrossTrafficCell(cell_duration); rc != 0) return rc;

  if (smoke) {
    // Cheap structural sanity for CI: a 3-party mesh must produce 6 legs and
    // per-participant aggregates for everyone.
    Conference conference(
        NpartyConfig(Topology::kMesh, 3, Duration::Seconds(2), 7));
    const ConferenceStats stats = conference.Run();
    if (stats.legs.size() != 6 || stats.participants.size() != 3) {
      std::fprintf(stderr, "smoke failure: got %zu legs / %zu participants\n",
                   stats.legs.size(), stats.participants.size());
      return 1;
    }
    std::printf("\nsmoke ok: %s\n",
                ConferenceStatsToJson(stats, 0).substr(0, 60).c_str());
  }
  return 0;
}

}  // namespace
}  // namespace converge

int main(int argc, char** argv) { return converge::Main(argc, argv); }
