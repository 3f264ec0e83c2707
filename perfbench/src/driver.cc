#include "driver.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <utility>

#include "session/stats_json.h"

namespace perfbench {
namespace {

using converge::Conference;
using converge::FleetCallSummary;
using converge::Timestamp;
using Clock = std::chrono::steady_clock;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

int64_t RssKib() {
  long pages = 0;
  long resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  const int n = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE) / 1024;
}

// sim/fleet.cc's per-call digest, field for field and in the same order.
FleetCallSummary Summarize(int index, const ConferenceStats& stats) {
  FleetCallSummary s;
  s.index = index;
  for (const ConferenceStats::Leg& leg : stats.legs) {
    s.frame_drops += leg.stats.total_frame_drops;
    s.keyframe_requests += leg.stats.total_keyframe_requests;
    s.media_packets_sent += leg.stats.media_packets_sent;
    s.frames_encoded += leg.stats.frames_encoded;
  }
  for (const ConferenceStats::Hub& hub : stats.hubs) {
    s.rehomed += hub.rehomed_onto;
  }
  double fps = 0.0;
  double freeze = 0.0;
  double e2e = 0.0;
  int receiving = 0;
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    if (p.inbound_streams == 0) continue;
    fps += p.avg_fps;
    freeze += p.avg_freeze_ms;
    e2e += p.avg_e2e_ms;
    s.total_tput_mbps += p.total_tput_mbps;
    ++receiving;
  }
  if (receiving > 0) {
    s.avg_fps = fps / receiving;
    s.avg_freeze_ms = freeze / receiving;
    s.avg_e2e_ms = e2e / receiving;
  }
  return s;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameSummary(const FleetCallSummary& a, const FleetCallSummary& b) {
  return a.index == b.index && SameBits(a.avg_fps, b.avg_fps) &&
         SameBits(a.avg_freeze_ms, b.avg_freeze_ms) &&
         SameBits(a.avg_e2e_ms, b.avg_e2e_ms) &&
         SameBits(a.total_tput_mbps, b.total_tput_mbps) &&
         a.frame_drops == b.frame_drops &&
         a.keyframe_requests == b.keyframe_requests &&
         a.media_packets_sent == b.media_packets_sent &&
         a.frames_encoded == b.frames_encoded && a.rehomed == b.rehomed;
}

// Times public calls and, in a traced pass, records them as spans.
class Recorder {
 public:
  Recorder(bool traced, PassResult* out)
      : traced_(traced), out_(out), origin_(Clock::now()) {
    if (traced_) out_->spans.push_back({"pass", -1, 0, -1, 0.0, 0.0});
  }

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  // Opens a call's root span; returns its id (0 when untraced).
  int OpenCall(int call) {
    if (!traced_) return 0;
    const int id = static_cast<int>(out_->spans.size());
    const double now = NowUs();
    out_->spans.push_back({"call", call, id, 0, now, now});
    return id;
  }
  void CloseCall(int span) {
    if (traced_) out_->spans[static_cast<size_t>(span)].end_us = NowUs();
  }

  // Runs `fn`, adds its host time to `*phase_s` and records a span.
  template <typename Fn>
  void Time(const char* name, int call, int parent, double* phase_s,
            Fn&& fn) {
    const double start = NowUs();
    fn();
    const double end = NowUs();
    *phase_s += (end - start) * 1e-6;
    if (traced_) {
      out_->spans.push_back({name, call, static_cast<int>(out_->spans.size()),
                             parent, start, end});
    }
  }

  void Finish() {
    if (traced_) out_->spans[0].end_us = NowUs();
  }

 private:
  bool traced_;
  PassResult* out_;
  Clock::time_point origin_;
};

struct LiveCall {
  size_t index = 0;
  int span = 0;
  CallSetup setup;
  std::unique_ptr<Conference> conference;
  CallProbe probe;
};

// Simulated call-seconds live at boundary `fleet_us` (integer µs, exact).
int64_t LiveCallUs(const std::vector<CallSpec>& calls, int64_t fleet_us) {
  int64_t live = 0;
  for (const CallSpec& c : calls) {
    const int64_t local = fleet_us - c.offset.us();
    if (local <= 0) continue;
    // A call that ends exactly at this boundary is still alive here: it is
    // collected only after the boundary's samples are taken.
    if (local - kQuantum.us() >= c.duration.us()) continue;
    live += std::min(local, c.duration.us());
  }
  return live;
}

void PoolQoe(const Conference& conference, const ConferenceStats& stats,
             PooledQoe* qoe) {
  for (size_t leg = 0; leg < stats.legs.size(); ++leg) {
    const std::vector<converge::StreamQoe>& streams =
        stats.legs[leg].stats.streams;
    for (size_t s = 0; s < streams.size(); ++s) {
      qoe->fps_sum += streams[s].avg_fps;
      qoe->freeze_ratio_sum += streams[s].freeze_ratio;
      ++qoe->streams;
      const std::vector<double>& samples =
          conference.leg_metrics(leg).e2e_samples(static_cast<int>(s))
              .samples();
      qoe->e2e_ms.insert(qoe->e2e_ms.end(), samples.begin(), samples.end());
    }
  }
  for (const ConferenceStats::ParticipantQoe& p : stats.participants) {
    if (p.inbound_streams == 0) continue;
    qoe->goodput_sum += p.total_tput_mbps;
    ++qoe->receivers;
  }
}

}  // namespace

PassResult RunPass(const Workload& workload, const PassOptions& options) {
  const std::vector<CallSpec>& calls = workload.calls();
  PassResult out;
  out.calls.resize(calls.size());

  std::vector<size_t> order(calls.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return calls[a].offset < calls[b].offset;
  });
  int64_t end_us = 0;
  for (const CallSpec& c : calls) {
    out.sim_s += c.duration.seconds();
    end_us = std::max(end_us, (c.offset + c.duration).us());
  }
  // The boundaries with the most live call-seconds: RSS and live heap are
  // read at each and averaged (back-to-back calls reach the peak once per
  // call).
  int64_t peak_live_us = 0;
  for (int64_t b = kQuantum.us(); b < end_us + kQuantum.us();
       b += kQuantum.us()) {
    peak_live_us = std::max(peak_live_us, LiveCallUs(calls, b));
  }
  out.peak_live_call_s = static_cast<double>(peak_live_us) / 1e6;
  double rss_growth_sum = 0.0;
  double live_heap_sum = 0.0;
  int peak_samples = 0;

  const int64_t rss_base = options.sample_rss ? RssKib() : 0;
  if (options.traced) SetAllocCounting(true);
  Recorder rec(options.traced, &out);
  PhaseTimes& t = out.times;

  std::vector<std::unique_ptr<LiveCall>> live;
  size_t next_join = 0;
  Timestamp fleet_now = Timestamp::Zero();
  while (next_join < order.size() || !live.empty()) {
    const Timestamp fleet_next = fleet_now + kQuantum;
    while (next_join < order.size() &&
           Timestamp::Zero() + calls[order[next_join]].offset < fleet_next) {
      auto lc = std::make_unique<LiveCall>();
      lc->index = order[next_join++];
      const CallSpec& spec = calls[lc->index];
      const int id = spec.id;
      lc->span = rec.OpenCall(id);
      rec.Time("generate", id, lc->span, &t.generate,
               [&] { workload.Generate(spec, &lc->setup); });
      rec.Time("negotiate", id, lc->span, &t.negotiate,
               [&] { workload.Negotiate(spec, &lc->setup); });
      rec.Time("construct", id, lc->span, &t.construct, [&] {
        lc->conference = std::make_unique<Conference>(lc->setup.config);
      });
      rec.Time("start", id, lc->span, &t.start,
               [&] { lc->conference->Start(); });
      live.push_back(std::move(lc));
    }

    for (auto& lc : live) {
      const CallSpec& spec = calls[lc->index];
      const Duration local =
          std::min((fleet_next - Timestamp::Zero()) - spec.offset,
                   spec.duration);
      rec.Time("advance", spec.id, lc->span, &t.advance, [&] {
        lc->conference->AdvanceTo(Timestamp::Zero() + local);
      });
      if (options.traced) lc->probe.OnQuantum(*lc->conference);
    }
    if (LiveCallUs(calls, (fleet_next - Timestamp::Zero()).us()) ==
        peak_live_us) {
      ++peak_samples;
      if (options.sample_rss) {
        rss_growth_sum += static_cast<double>(RssKib() - rss_base);
      }
      if (options.traced) {
        live_heap_sum +=
            static_cast<double>(ReadAllocCounters().live_bytes);
      }
    }

    for (auto& lc : live) {
      const CallSpec& spec = calls[lc->index];
      if ((fleet_next - Timestamp::Zero()) - spec.offset < spec.duration) {
        continue;
      }
      const int id = spec.id;
      ConferenceStats stats;
      std::string json;
      rec.Time("collect", id, lc->span, &t.collect,
               [&] { stats = lc->conference->Collect(); });
      rec.Time("serialize", id, lc->span, &t.serialize,
               [&] { json = converge::ConferenceStatsToJson(stats); });

      CallOutcome& oc = out.calls[lc->index];
      oc.digest = Fnv1a(json);
      oc.json_bytes = json.size();
      oc.summary = Summarize(static_cast<int>(lc->index), stats);
      oc.failed = CallFailed(lc->setup.config, stats);
      oc.clamped_past = lc->conference->loop().clamped_past_events();
      oc.error = lc->setup.plan_error;
      if (oc.error.empty() && options.check_validity) {
        oc.error = workload.CheckValidity(spec, *lc->conference, stats);
      }
      if (options.collect_qoe) PoolQoe(*lc->conference, stats, &out.qoe);
      if (options.traced) {
        lc->probe.OnFinish(*lc->conference, stats, &out.layers);
      }

      rec.Time("destroy", id, lc->span, &t.destroy,
               [&] { lc->conference.reset(); });
      rec.CloseCall(lc->span);
    }
    live.erase(std::remove_if(live.begin(), live.end(),
                              [](const std::unique_ptr<LiveCall>& lc) {
                                return lc->conference == nullptr;
                              }),
               live.end());
    fleet_now = fleet_next;
  }
  rec.Finish();
  if (peak_samples > 0) {
    out.rss_growth_kib = rss_growth_sum / peak_samples;
    out.live_heap_bytes = live_heap_sum / peak_samples;
  }
  if (options.traced) {
    out.alloc = ReadAllocCounters();
    SetAllocCounting(false);
  }
  return out;
}

std::string FleetSelfTest(const std::string& workload_name, uint64_t seed) {
  const std::unique_ptr<Workload> workload =
      MakeWorkload(workload_name, seed, /*short_calls=*/true);
  if (workload == nullptr) return "unknown workload";
  PassOptions options;
  options.check_validity = false;
  const PassResult mine = RunPass(*workload, options);

  converge::FleetConfig fleet;
  fleet.shards = 1;
  fleet.quantum = kQuantum;
  for (const CallSpec& spec : workload->calls()) {
    CallSetup setup;
    workload->Generate(spec, &setup);
    workload->Negotiate(spec, &setup);
    fleet.calls.push_back(setup.config);
    fleet.start_offsets.push_back(spec.offset);
  }
  const converge::FleetResult theirs = converge::RunFleet(fleet);
  if (theirs.calls.size() != mine.calls.size()) {
    return "RunFleet returned " + std::to_string(theirs.calls.size()) +
           " calls, driver " + std::to_string(mine.calls.size());
  }
  for (size_t i = 0; i < mine.calls.size(); ++i) {
    if (!SameSummary(mine.calls[i].summary, theirs.calls[i])) {
      return "call " + std::to_string(i) +
             ": driver summary differs from RunFleet(shards=1)";
    }
  }
  return "";
}

}  // namespace perfbench
