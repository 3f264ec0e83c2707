// Micro-benchmarks (google-benchmark) for the hot components: the packet
// scheduler decision, XOR FEC encode/recover, the trendline estimator,
// packet-buffer insertion, trace sampling, raw event-loop throughput, and
// the sent histories' per-packet cost.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "cc/trendline.h"
#include "core/video_aware_scheduler.h"
#include "fec/xor_fec.h"
#include "net/link.h"
#include "net/trace.h"
#include "receiver/fec_recovery.h"
#include "receiver/packet_buffer.h"
#include "rtp/rtp_packet.h"
#include "session/call.h"
#include "session/egress_seq.h"
#include "session/rtx_history.h"
#include "sim/event_loop.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/trace_recorder.h"

namespace converge {
namespace {

std::vector<RtpPacket> MakeFrame(int media) {
  std::vector<RtpPacket> out;
  uint16_t seq = 0;
  RtpPacket pps;
  pps.seq = seq++;
  pps.kind = PayloadKind::kPps;
  pps.priority = Priority::kPps;
  pps.payload_bytes = 20;
  out.push_back(pps);
  for (int i = 0; i < media; ++i) {
    RtpPacket p;
    p.seq = seq++;
    p.kind = PayloadKind::kMedia;
    p.payload_bytes = 1100;
    out.push_back(p);
  }
  out.front().first_in_frame = true;
  out.back().last_in_frame = true;
  out.back().marker = true;
  return out;
}

std::vector<PathInfo> MakePaths(int n) {
  std::vector<PathInfo> paths;
  for (int i = 0; i < n; ++i) {
    PathInfo p;
    p.id = i;
    p.allocated_rate = DataRate::MegabitsPerSec(5 + i * 3);
    p.goodput = p.allocated_rate;
    p.srtt = Duration::Millis(30 + 20 * i);
    paths.push_back(p);
  }
  return paths;
}

void BM_VideoAwareAssignFrame(benchmark::State& state) {
  VideoAwareScheduler sched;
  const auto frame = MakeFrame(static_cast<int>(state.range(0)));
  const auto paths = MakePaths(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.AssignFrame(frame, paths));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frame.size()));
}
BENCHMARK(BM_VideoAwareAssignFrame)
    ->Args({10, 2})
    ->Args({40, 2})
    ->Args({40, 4})
    ->Args({200, 4});

void BM_XorFecGenerate(benchmark::State& state) {
  const auto frame = MakeFrame(static_cast<int>(state.range(0)));
  std::vector<const RtpPacket*> ptrs;
  for (const auto& p : frame) ptrs.push_back(&p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        XorFecEncoder::Generate(ptrs, static_cast<int>(state.range(1)), 1));
  }
}
BENCHMARK(BM_XorFecGenerate)->Args({10, 1})->Args({40, 4})->Args({200, 10});

void BM_FecRecovery(benchmark::State& state) {
  const auto frame = MakeFrame(20);
  std::vector<const RtpPacket*> ptrs;
  for (const auto& p : frame) ptrs.push_back(&p);
  const auto parity = XorFecEncoder::Generate(ptrs, 2, 1);
  for (auto _ : state) {
    int recovered = 0;
    FecRecoverer rec([&](const RtpPacket&) { ++recovered; });
    for (size_t i = 1; i < frame.size(); ++i) rec.OnMediaPacket(frame[i]);
    for (const auto& f : parity) rec.OnFecPacket(f);
    benchmark::DoNotOptimize(recovered);
  }
}
BENCHMARK(BM_FecRecovery);

void BM_TrendlineUpdate(benchmark::State& state) {
  TrendlineEstimator est;
  Timestamp send = Timestamp::Zero();
  for (auto _ : state) {
    send += Duration::Millis(10);
    est.OnPacketFeedback(send, send + Duration::Millis(30));
    benchmark::DoNotOptimize(est.State());
  }
}
BENCHMARK(BM_TrendlineUpdate);

void BM_PacketBufferInsertAssemble(benchmark::State& state) {
  const int media = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    int assembled = 0;
    PacketBuffer buffer({.capacity_packets = 2048},
                        [&](GatheredFrame&&) { ++assembled; });
    uint16_t seq = 0;
    state.ResumeTiming();
    for (int frame = 0; frame < 30; ++frame) {
      for (int i = 0; i <= media; ++i) {
        RtpPacket p;
        p.ssrc = 1;
        p.seq = seq++;
        p.frame_id = frame;
        p.first_in_frame = i == 0;
        p.last_in_frame = i == media;
        p.marker = i == media;
        p.payload_bytes = 1100;
        buffer.Insert(p, Timestamp::Millis(frame * 33), 0);
      }
    }
    benchmark::DoNotOptimize(assembled);
  }
  state.SetItemsProcessed(state.iterations() * 30 * (media + 1));
}
BENCHMARK(BM_PacketBufferInsertAssemble)->Arg(10)->Arg(40);

void BM_TraceLookup(benchmark::State& state) {
  Random rng(1);
  std::vector<TraceSample> samples;
  for (int t = 0; t < 1800; ++t) {
    samples.push_back({Timestamp::Millis(t * 100), rng.Uniform(1e6, 3e7)});
  }
  ValueTrace trace(std::move(samples));
  int64_t t = 0;
  for (auto _ : state) {
    t = (t + 7919) % 500'000'000;
    benchmark::DoNotOptimize(trace.ValueAt(Timestamp::Micros(t)));
  }
}
BENCHMARK(BM_TraceLookup);

// 10,000 entries pending at once: about 8x the largest pending set any
// perfbench workload's loop holds (1,218 on hub-fleet), so this is the
// heap's stress case, not the simulator's shape.
void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    EventLoop loop;
    int fired = 0;
    for (int i = 0; i < 10'000; ++i) {
      loop.ScheduleAt(Timestamp::Micros(i * 37 % 100'000), [&] { ++fired; });
    }
    loop.RunAll();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventLoopThroughput);

// Steady-state event churn: each event schedules its successor, so the heap
// stays small and every slot is recycled — the simulator's inner loop shape.
// This is the allocation-elimination regression guard: before the flat-heap
// + InlineFunction rework, every event cost a std::function heap allocation
// plus a priority_queue node copy.
void BM_EventLoopSelfScheduling(benchmark::State& state) {
  constexpr int kEvents = 10'000;
  for (auto _ : state) {
    EventLoop loop;
    int fired = 0;
    std::function<void()> next = [&] {
      if (++fired < kEvents) loop.ScheduleIn(Duration::Micros(10), next);
    };
    loop.ScheduleAt(Timestamp::Zero(), next);
    loop.RunAll();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopSelfScheduling);

// Events whose callback carries a full RtpPacket by value — the link
// delivery shape. Must stay inside the EventLoop's inline callback buffer
// (no heap fallback): sizeof(RtpPacket) + capture overhead <=
// EventLoop::kCallbackInlineBytes (144).
void BM_EventLoopPacketCapture(benchmark::State& state) {
  constexpr int kEvents = 5'000;
  RtpPacket proto;
  proto.kind = PayloadKind::kMedia;
  proto.payload_bytes = 1100;
  for (auto _ : state) {
    EventLoop loop;
    int64_t bytes = 0;
    for (int i = 0; i < kEvents; ++i) {
      RtpPacket p = proto;
      p.seq = static_cast<uint16_t>(i);
      loop.ScheduleAt(Timestamp::Micros(i * 13 % 50'000),
                      [pkt = std::move(p), &bytes] {
                        bytes += pkt.payload_bytes;
                      });
    }
    loop.RunAll();
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventLoopPacketCapture);

// Link enqueue/deliver with an RtpPacket riding in the delivery callback:
// the per-transmitted-packet hot path of every simulated call. The sender
// offers each packet from the loop as it runs, one every 900 us (~10 Mbps,
// well under capacity, so nothing queues long), next to kOtherTimers
// entries that stand for a call's other pending timers and stay pending
// past the run. The loop so holds a call's depth (perfbench's loops
// average 55 to 326 pending entries), not all 2,000 sends at once.
void BM_LinkEnqueueDeliver(benchmark::State& state) {
  constexpr int kPackets = 2'000;
  constexpr int kOtherTimers = 200;
  constexpr Duration kGap = Duration::Micros(900);
  RtpPacket proto;
  proto.kind = PayloadKind::kMedia;
  proto.payload_bytes = 1100;
  struct Source {
    EventLoop* loop;
    Link* link;
    const RtpPacket* proto;
    int64_t delivered_bytes = 0;
    int sent = 0;

    void SendNext() {
      RtpPacket p = *proto;
      p.seq = static_cast<uint16_t>(sent);
      link->Send(p.payload_bytes + 12,
                 [pkt = std::move(p), this](Timestamp) {
                   delivered_bytes += pkt.payload_bytes;
                 });
      if (++sent < kPackets) loop->ScheduleIn(kGap, [this] { SendNext(); });
    }
  };
  const Timestamp end = Timestamp::Zero() + kGap * (kPackets + 100);
  for (auto _ : state) {
    EventLoop loop;
    Link::Config config;
    config.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(100));
    config.prop_delay = Duration::Millis(10);
    Link link(&loop, config, Random(1));
    for (int i = 0; i < kOtherTimers; ++i) {
      loop.ScheduleAt(end + Duration::Micros(i), [] {});
    }
    Source source{&loop, &link, &proto};
    loop.ScheduleIn(kGap, [&source] { source.SendNext(); });
    loop.RunUntil(end);
    benchmark::DoNotOptimize(source.delivered_bytes);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_LinkEnqueueDeliver);

// A packet crossing a star call's three hops: uplink (20 Mbps, 10 ms),
// trunk (100 Mbps, 15 ms) and downlink (10 Mbps, 20 ms), each delivery
// sending its RtpPacket on into the next link. As above, the sender offers
// one packet every 900 us from the running loop beside kOtherTimers
// entries that stay pending, so the loop holds a call's depth. Items are
// link hops (three per packet).
void BM_LinkChainHop(benchmark::State& state) {
  constexpr int kPackets = 2'000;
  constexpr int kOtherTimers = 200;
  constexpr int kHops = 3;
  constexpr Duration kGap = Duration::Micros(900);
  RtpPacket proto;
  proto.kind = PayloadKind::kMedia;
  proto.payload_bytes = 1100;
  struct Chain {
    EventLoop* loop;
    std::array<Link*, kHops> hops;
    const RtpPacket* proto;
    int64_t delivered_bytes = 0;
    int sent = 0;

    void Forward(int hop, RtpPacket p) {
      const int64_t bytes = p.payload_bytes + 12;
      hops[hop]->Send(bytes, [pkt = std::move(p), hop,
                              this](Timestamp) mutable {
        if (hop + 1 < kHops) {
          Forward(hop + 1, std::move(pkt));
        } else {
          delivered_bytes += pkt.payload_bytes;
        }
      });
    }
    void SendNext() {
      RtpPacket p = *proto;
      p.seq = static_cast<uint16_t>(sent);
      Forward(0, std::move(p));
      if (++sent < kPackets) loop->ScheduleIn(kGap, [this] { SendNext(); });
    }
  };
  const Timestamp end = Timestamp::Zero() + kGap * (kPackets + 100);
  const std::array<std::pair<double, int>, kHops> shape = {
      {{20, 10}, {100, 15}, {10, 20}}};
  for (auto _ : state) {
    EventLoop loop;
    std::vector<std::unique_ptr<Link>> links;
    for (const auto& [mbps, prop_ms] : shape) {
      Link::Config config;
      config.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(mbps));
      config.prop_delay = Duration::Millis(prop_ms);
      links.push_back(std::make_unique<Link>(&loop, config, Random(1)));
    }
    for (int i = 0; i < kOtherTimers; ++i) {
      loop.ScheduleAt(end + Duration::Micros(i), [] {});
    }
    Chain chain{&loop, {links[0].get(), links[1].get(), links[2].get()},
                &proto};
    loop.ScheduleIn(kGap, [&chain] { chain.SendNext(); });
    loop.RunUntil(end);
    benchmark::DoNotOptimize(chain.delivered_bytes);
  }
  state.SetItemsProcessed(state.iterations() * kPackets * kHops);
}
BENCHMARK(BM_LinkChainHop);

// Copy of a 64-byte RtpPacket carrying shared FEC metadata: a flat copy
// plus one non-atomic increment of the FecMetaRef count. Guards the
// intrusive-handle representation.
void BM_RtpPacketCopy(benchmark::State& state) {
  FecBlockMeta meta;
  for (int i = 0; i < 40; ++i) {
    ProtectedPacketMeta m;
    m.seq = static_cast<uint16_t>(i);
    m.payload_bytes = 1100;
    meta.covered.push_back(m);
  }
  RtpPacket p;
  p.kind = PayloadKind::kFec;
  p.payload_bytes = 1100;
  p.fec = FecMetaRef::Make(std::move(meta));
  for (auto _ : state) {
    RtpPacket copy = p;
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_RtpPacketCopy);

// One sent media packet recorded for retransmission: the RTX history's
// per-packet cost in steady state, where each insert also trims the packet
// the 10-s horizon releases. Frames of 8 packets at 1,000 packets/s, so a
// window holds 10,000 slots over 1,250 frame records. Arg: 1 for a
// per-path window, 0 for a legacy one.
void BM_RtxHistoryOnSent(benchmark::State& state) {
  const bool per_path = state.range(0) == 1;
  RtxHistory history(per_path);
  RtpPacket p;
  p.kind = PayloadKind::kMedia;
  p.payload_bytes = 1100;
  p.ssrc = 0x1000;
  int64_t n = 0;
  auto next = [&] {
    p.send_time = Timestamp::Micros(n * 1000);
    if (n % 8 == 0) {
      p.capture_time = p.send_time;
      ++p.frame_id;
      p.rtp_timestamp += 3000;
    }
    p.seq = static_cast<uint16_t>(n);
    p.mp_seq = static_cast<uint16_t>(n);
    ++n;
  };
  // Past the horizon first, so every insert trims one.
  for (int i = 0; i < 12'000; ++i) {
    next();
    history.OnSent(0, p);
  }
  for (auto _ : state) {
    next();
    history.OnSent(0, p);
  }
  benchmark::DoNotOptimize(history.pages_allocated());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RtxHistoryOnSent)->Arg(1)->Arg(0);

// One packet through an egress life's send records: its Stamp, which
// records and trims, and its share of the transport feedback that names
// it, matched in batches of 20 as a receiver reports them. Steady state at
// 1,000 packets/s, so the records hold the 8,192-packet window.
void BM_EgressSeqStampMatch(benchmark::State& state) {
  constexpr int kBatch = 20;
  EgressSeq egress;
  RtpPacket p;
  p.kind = PayloadKind::kMedia;
  p.payload_bytes = 1100;
  int64_t n = 0;
  int64_t misses = 0;
  TransportFeedback feedback;
  auto send = [&] {
    p.send_time = Timestamp::Micros(n * 1000);
    egress.Stamp(p);
    feedback.arrivals.push_back(
        {n, p.send_time + Duration::Millis(30)});
    ++n;
    if (feedback.arrivals.size() == kBatch) {
      benchmark::DoNotOptimize(egress.Match(feedback, misses));
      feedback.arrivals.clear();
    }
  };
  for (int i = 0; i < 12'000; ++i) send();
  for (auto _ : state) send();
  benchmark::DoNotOptimize(misses);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EgressSeqStampMatch);

// Multi-quantile QoE report over one sample set — the shape of every bench
// table row (p5/p25/p50/p75/p95/p99 of e2e latency). Guards the sorted-order
// cache in SampleSet: before it, every Quantile() call re-sorted.
void BM_SampleSetQuantiles(benchmark::State& state) {
  Random rng(7);
  SampleSet samples;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    samples.Add(rng.Uniform(10.0, 400.0));
  }
  const double qs[] = {0.05, 0.25, 0.5, 0.75, 0.95, 0.99};
  for (auto _ : state) {
    double acc = 0.0;
    for (double q : qs) acc += samples.Quantile(q);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 6);
}
BENCHMARK(BM_SampleSetQuantiles)->Arg(1'000)->Arg(100'000);

// A probe site with no recorder installed: the disabled cost every hot path
// pays once tracing probes exist. Must stay at one thread-local load + one
// branch — effectively free next to any real work.
void BM_TraceProbeDisabled(benchmark::State& state) {
  int64_t hits = 0;
  for (auto _ : state) {
    if (TraceRecorder* trace = TraceRecorder::Current()) {
      trace->Counter("bench", "x", Timestamp::Zero(), 1.0);
      ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_TraceProbeDisabled);

// End-to-end cost of one short 2-party call: the fleet-scale figure of
// merit. Event-heap dispatch, link ring buffers and the receive stores
// (one stream's sorted packet vector per buffer) all land in this number.
void BM_SingleCallSimulate(benchmark::State& state) {
  int64_t frames = 0;
  for (auto _ : state) {
    CallConfig config;
    config.variant = Variant::kConverge;
    config.duration = Duration::Seconds(2);
    config.seed = 7;
    PathSpec wifi;
    wifi.name = "wifi";
    wifi.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(7));
    wifi.prop_delay = Duration::Millis(20);
    PathSpec cell;
    cell.name = "cell";
    cell.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(5));
    cell.prop_delay = Duration::Millis(40);
    config.paths = {wifi, cell};
    Call call(config);
    const CallStats stats = call.Run();
    frames += stats.frames_encoded;
    benchmark::DoNotOptimize(frames);
  }
  state.SetItemsProcessed(frames);
}
BENCHMARK(BM_SingleCallSimulate)->Unit(benchmark::kMillisecond);

// Emission cost with a recorder installed (ring write, no allocation).
void BM_TraceEmit(benchmark::State& state) {
  TraceRecorder recorder(1 << 16);
  TraceScope scope(&recorder);
  Timestamp at = Timestamp::Zero();
  for (auto _ : state) {
    at += Duration::Micros(10);
    TraceRecorder::Current()->Counter("bench", "value", at, 42.0, 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmit);

}  // namespace
}  // namespace converge

BENCHMARK_MAIN();
