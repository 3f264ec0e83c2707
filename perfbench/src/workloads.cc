#include "workloads.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "net/fault_plan.h"
#include "net/loss_model.h"
#include "session/call.h"
#include "trace/generators.h"

namespace perfbench {
namespace {

using converge::BandwidthTrace;
using converge::BernoulliLoss;
using converge::Conference;
using converge::ConferencePlan;
using converge::DataRate;
using converge::EndpointCapabilities;
using converge::FaultEvent;
using converge::FaultPlan;
using converge::MembershipEvent;
using converge::NegotiatedSession;
using converge::NetworkInterface;
using converge::ParticipantSpec;
using converge::PathSpec;
using converge::Timestamp;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Per-call seeds: a SplitMix64 stream keyed by the workload seed and a
// per-workload salt, so the three workloads never share call seeds.
std::vector<CallSpec> MakeCalls(uint64_t seed, uint64_t salt, int n,
                                Duration duration, Duration stagger) {
  std::vector<CallSpec> calls;
  for (int i = 0; i < n; ++i) {
    CallSpec c;
    c.id = i;
    c.seed = SplitMix64(SplitMix64(seed ^ salt) + static_cast<uint64_t>(i)) |
             1;  // never 0
    c.offset = stagger * static_cast<double>(i);
    c.duration = duration;
    calls.push_back(c);
  }
  return calls;
}

// A phone with a WiFi and a cellular interface, as in the paper's testbed.
EndpointCapabilities Phone(int participant, int rungs) {
  EndpointCapabilities caps;
  caps.supports_multipath = true;
  caps.max_paths = 2;
  caps.num_streams = 1;
  caps.participant_id = participant;
  caps.simulcast_rungs = rungs;
  NetworkInterface wifi;
  wifi.name = "wlan0";
  wifi.address = "192.168.1." + std::to_string(20 + participant);
  wifi.network_id = 0;
  wifi.local_preference = 65535;
  NetworkInterface cell;
  cell.name = "rmnet0";
  cell.address = "10.140.2." + std::to_string(7 + participant);
  cell.network_id = 1;
  cell.local_preference = 60000;
  caps.interfaces = {wifi, cell};
  return caps;
}

EndpointCapabilities Forwarder(int rungs) {
  EndpointCapabilities caps = Phone(0, rungs);
  caps.interfaces[0].name = "eth0";
  caps.interfaces[0].address = "203.0.113.10";
  caps.interfaces[0].behind_nat = false;
  caps.interfaces[1].name = "eth1";
  caps.interfaces[1].address = "198.51.100.10";
  caps.interfaces[1].behind_nat = false;
  return caps;
}

PathSpec ConstantPath(const char* name, double mbps, int delay_ms,
                      double loss) {
  PathSpec spec;
  spec.name = name;
  spec.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
  spec.prop_delay = Duration::Millis(delay_ms);
  if (loss > 0.0) spec.loss = std::make_shared<BernoulliLoss>(loss);
  return spec;
}

// Checks every uplink session of a star/cascade plan against the config.
std::string CheckStarSessions(const ConferencePlan& plan,
                              const ConferenceConfig& config) {
  const size_t n = config.participants.size();
  if (!plan.star) return "plan is not a star";
  if (plan.num_participants != static_cast<int>(n) ||
      plan.sessions.size() != n) {
    return "plan has " + std::to_string(plan.sessions.size()) +
           " sessions for " + std::to_string(n) + " participants";
  }
  for (size_t p = 0; p < n; ++p) {
    const NegotiatedSession& s = plan.sessions[p];
    if (!s.use_multipath) return "participant fell back to single path";
    if (s.num_paths != static_cast<int>(config.paths.size()) ||
        s.pairs.size() != config.paths.size()) {
      return "negotiated paths disagree with config paths";
    }
    if (s.simulcast_rungs != config.simulcast_rungs ||
        s.temporal_layers != config.temporal_layers) {
      return "negotiated layers disagree with config layers";
    }
    if (s.num_streams != config.participants[p].num_streams) {
      return "negotiated streams disagree with config streams";
    }
  }
  return "";
}

int64_t FramesRendered(const ConferenceStats::Leg& leg) {
  int64_t frames = 0;
  for (const converge::StreamQoe& s : leg.stats.streams) {
    frames += s.frames_decoded;
  }
  return frames;
}

// --- paper-driving ---------------------------------------------------------
// Back-to-back 2-party 180-s Converge calls on the driving scenario with its
// canned faults: one call live at a time.
class PaperDriving final : public Workload {
 public:
  PaperDriving(uint64_t seed, bool short_calls) {
    const Duration d = Duration::Seconds(short_calls ? 6 : 180);
    calls_ = MakeCalls(seed, 0x70617065ULL, short_calls ? 2 : kCalls, d, d);
  }

  void Generate(const CallSpec& call, CallSetup* setup) const override {
    converge::TraceParams params;
    params.length = call.duration;
    setup->edge = converge::MakeScenarioPathsWithFaults(
        converge::Scenario::kDriving, call.seed, params);
  }

  void Negotiate(const CallSpec& call, CallSetup* setup) const override {
    const NegotiatedSession session = converge::Negotiate(Phone(0, 1),
                                                          Phone(1, 1));
    converge::CallConfig cc;
    cc.variant = session.use_multipath ? converge::Variant::kConverge
                                       : converge::Variant::kWebRtcPath0;
    const size_t paths = std::min(setup->edge.size(),
                                  static_cast<size_t>(session.num_paths));
    cc.paths.assign(setup->edge.begin(),
                    setup->edge.begin() + static_cast<long>(paths));
    cc.num_streams = session.num_streams;
    cc.duration = call.duration;
    cc.seed = call.seed;
    setup->config = converge::ToConferenceConfig(cc);

    const ConferenceConfig& config = setup->config;
    if (!session.use_multipath ||
        config.variant != converge::Variant::kConverge) {
      setup->plan_error = "call fell back to single-path WebRTC";
    } else if (session.num_paths != static_cast<int>(config.paths.size()) ||
               session.pairs.size() != config.paths.size()) {
      setup->plan_error = "negotiated paths disagree with config paths";
    } else if (session.num_streams != config.participants[0].num_streams) {
      setup->plan_error = "negotiated streams disagree with config streams";
    }
  }

  std::string CheckValidity(const CallSpec&, const Conference& conference,
                            const ConferenceStats&) const override {
    // One camera stream, so one SSRC: its 16-bit media seq has wrapped by
    // the time the sender has sent 65,536 media packets (blacked-out
    // packets take sequence numbers too, so it may wrap earlier).
    const int64_t media = conference.leg_sender(0).stats().media_packets_sent;
    if (media < 65536) {
      return "call sent " + std::to_string(media) +
             " media packets: no per-SSRC wrap";
    }
    return "";
  }

 private:
  static constexpr int kCalls = 16;
};

// --- hub-fleet -------------------------------------------------------------
// 6-party simulcast stars over 3 regional hubs, joining 2 s apart so all are
// live at once mid-run. In every call one receiver's downlink pair runs at
// 15% of the others, the last hub fails, and one participant leaves and
// rejoins.
class HubFleet final : public Workload {
 public:
  HubFleet(uint64_t seed, bool short_calls) : seed_(seed) {
    calls_ = MakeCalls(seed, 0x68756266ULL, short_calls ? 3 : kCalls,
                       Duration::Seconds(short_calls ? 5 : 20),
                       Duration::Seconds(short_calls ? 1 : 2));
  }

  // The rejoiner rotates through participants 1..5 across the batch
  // (starting point from the seed); the slow receiver sits three places
  // after it, so the two roles never coincide.
  int Rejoiner(const CallSpec& call) const {
    return 1 + static_cast<int>((seed_ + static_cast<uint64_t>(call.id)) %
                                (kParties - 1));
  }
  int SlowReceiver(const CallSpec& call) const {
    return (Rejoiner(call) + 3) % kParties;
  }
  static Timestamp At(const CallSpec& call, double frac) {
    return Timestamp::Zero() + call.duration * frac;
  }

  void Generate(const CallSpec&, CallSetup* setup) const override {
    setup->edge = {ConstantPath("wifi", 7.0, 20, 0.01),
                   ConstantPath("cell", 5.0, 40, 0.005)};
    setup->slow_edge = {
        ConstantPath("wifi-slow", 7.0 * kSlowShare, 20, 0.01),
        ConstantPath("cell-slow", 5.0 * kSlowShare, 40, 0.005)};
    // Trunks: wide enough for every publisher's rungs, two delays.
    setup->trunk = {ConstantPath("trunk", 2.0 * kParties + 4.0, 10, 0.0),
                    ConstantPath("trunk2", 2.0 * kParties + 4.0, 20, 0.0)};
  }

  void Negotiate(const CallSpec& call, CallSetup* setup) const override {
    std::vector<EndpointCapabilities> parts;
    for (int p = 0; p < kParties; ++p) {
      EndpointCapabilities caps = Phone(p, kRungs);
      caps.home_hub = p % kHubs;  // round-robin homing
      parts.push_back(caps);
    }
    const int rejoiner = Rejoiner(call);
    std::vector<MembershipEvent> membership = {
        {MembershipEvent::Kind::kLeave, At(call, 0.3), rejoiner},
        {MembershipEvent::Kind::kJoin, At(call, 0.6), rejoiner},
    };
    const ConferencePlan plan = converge::NegotiateCascade(
        Forwarder(kRungs), parts, kHubs, membership);

    ConferenceConfig& config = setup->config;
    config.variant = converge::Variant::kConverge;
    config.topology = converge::Topology::kStar;
    config.participants.assign(kParties, ParticipantSpec{});
    config.simulcast_rungs =
        plan.sessions.empty() ? 1 : plan.sessions[0].simulcast_rungs;
    config.max_rate_per_stream = DataRate::MegabitsPerSec(2);
    config.duration = call.duration;
    config.seed = call.seed;
    config.paths = setup->edge;
    const int slow = SlowReceiver(call);
    const std::vector<PathSpec> fast_pair = setup->edge;
    const std::vector<PathSpec> slow_pair = setup->slow_edge;
    config.paths_for_edge = [slow, fast_pair, slow_pair](int from, int to) {
      return from == converge::kHubId && to == slow ? slow_pair : fast_pair;
    };
    config.trunk_paths = setup->trunk;
    config.num_hubs = plan.num_hubs;
    config.home_hub = plan.home_hub;
    config.membership = plan.membership;
    FaultPlan outage;
    outage.Add(FaultEvent::Outage(At(call, 0.4), call.duration * 0.3));
    config.hub_fault_plans.resize(kHubs);
    config.hub_fault_plans[kHubs - 1] = outage;

    std::string& err = setup->plan_error;
    err = CheckStarSessions(plan, config);
    if (!err.empty()) return;
    if (config.simulcast_rungs != kRungs) {
      err = "negotiated " + std::to_string(config.simulcast_rungs) +
            " rungs, workload asks for " + std::to_string(kRungs);
      return;
    }
    if (plan.num_hubs != kHubs) {
      err = "plan has " + std::to_string(plan.num_hubs) + " hubs";
      return;
    }
    for (int p = 0; p < kParties; ++p) {
      if (plan.home_hub.size() != static_cast<size_t>(kParties) ||
          plan.home_hub[static_cast<size_t>(p)] != p % kHubs) {
        err = "home hub of participant " + std::to_string(p) +
              " is not round-robin";
        return;
      }
    }
    if (plan.membership.size() != membership.size()) {
      err = "plan dropped membership events";
      return;
    }
    for (size_t i = 0; i < membership.size(); ++i) {
      const MembershipEvent& a = plan.membership[i];
      const MembershipEvent& b = membership[i];
      if (a.kind != b.kind || a.at != b.at || a.participant != b.participant) {
        err = "plan membership differs from the workload's";
        return;
      }
    }
  }

  std::string CheckValidity(const CallSpec& call, const Conference&,
                            const ConferenceStats& stats) const override {
    const int slow = SlowReceiver(call);
    bool slow_left_top = false;
    for (const ConferenceStats::Downlink& d : stats.downlinks) {
      if (d.receiver == slow &&
          (d.selected_rung > 0 || d.forwarder.layer_switches > 0)) {
        slow_left_top = true;
      }
    }
    if (!slow_left_top) {
      return "slow receiver " + std::to_string(slow) + " never left rung 0";
    }
    int64_t rehomed = 0;
    for (const ConferenceStats::Hub& h : stats.hubs) rehomed += h.rehomed_onto;
    if (rehomed == 0) return "hub failure re-homed nobody";
    const int rejoiner = Rejoiner(call);
    const double rejoin_s = (At(call, 0.6) - Timestamp::Zero()).seconds();
    int64_t frames = 0;
    for (const ConferenceStats::Leg& leg : stats.legs) {
      if (leg.to == rejoiner && leg.joined_s >= rejoin_s - 1e-9) {
        frames += FramesRendered(leg);
      }
    }
    if (frames == 0) {
      return "rejoiner " + std::to_string(rejoiner) + " rendered no frame";
    }
    return "";
  }

 private:
  static constexpr int kCalls = 6;
  static constexpr int kParties = 6;
  static constexpr int kHubs = 3;
  static constexpr int kRungs = 3;
  static constexpr double kSlowShare = 0.15;
  uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed, bool short_calls) {
  if (name == "paper-driving") {
    return std::make_unique<PaperDriving>(seed, short_calls);
  }
  if (name == "hub-fleet") {
    return std::make_unique<HubFleet>(seed, short_calls);
  }
  return nullptr;
}

bool CallFailed(const ConferenceConfig& config, const ConferenceStats& stats) {
  const int n = static_cast<int>(config.participants.size());
  for (int p = 0; p < n; ++p) {
    if (!config.participants[static_cast<size_t>(p)].receives) continue;
    // Presence windows [start, end) in seconds, from the membership timeline.
    std::vector<std::pair<double, double>> windows;
    double open = converge::MembershipPresentAtStart(p, config.membership)
                      ? 0.0
                      : -1.0;
    for (const MembershipEvent& ev : config.membership) {
      if (ev.participant != p) continue;
      const double t = (ev.at - Timestamp::Zero()).seconds();
      if (ev.kind == MembershipEvent::Kind::kJoin) {
        open = t;
      } else if (open >= 0.0) {
        windows.emplace_back(open, t);
        open = -1.0;
      }
    }
    if (open >= 0.0) windows.emplace_back(open, config.duration.seconds());

    for (const auto& [start, end] : windows) {
      if (end <= start) continue;
      bool has_leg = false;
      int64_t frames = 0;
      for (const ConferenceStats::Leg& leg : stats.legs) {
        if (leg.to != p || leg.joined_s < start - 1e-9 ||
            leg.joined_s >= end) {
          continue;
        }
        has_leg = true;
        frames += FramesRendered(leg);
      }
      if (has_leg && frames == 0) return true;
    }
  }
  return false;
}

}  // namespace perfbench
