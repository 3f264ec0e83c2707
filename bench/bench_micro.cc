// Micro-benchmarks (google-benchmark) for the hot components: the packet
// scheduler decision, XOR FEC encode/recover, the trendline estimator,
// packet-buffer insertion, trace sampling, and raw event-loop throughput.
#include <benchmark/benchmark.h>

#include <utility>

#include "cc/trendline.h"
#include "core/video_aware_scheduler.h"
#include "fec/xor_fec.h"
#include "net/link.h"
#include "net/trace.h"
#include "receiver/fec_recovery.h"
#include "receiver/packet_buffer.h"
#include "rtp/rtp_packet.h"
#include "session/call.h"
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

// Link enqueue/deliver with an RtpPacket riding in the delivery callback —
// the per-transmitted-packet hot path of every simulated call.
void BM_LinkEnqueueDeliver(benchmark::State& state) {
  constexpr int kPackets = 2'000;
  RtpPacket proto;
  proto.kind = PayloadKind::kMedia;
  proto.payload_bytes = 1100;
  for (auto _ : state) {
    EventLoop loop;
    Link::Config config;
    config.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(100));
    config.prop_delay = Duration::Millis(10);
    Link link(&loop, config, Random(1));
    int64_t delivered_bytes = 0;
    Timestamp at = Timestamp::Zero();
    for (int i = 0; i < kPackets; ++i) {
      // ~10 Mbps offered load: well under capacity, so nothing queues long.
      at += Duration::Micros(900);
      loop.ScheduleAt(at, [&link, &delivered_bytes, &proto, i] {
        RtpPacket p = proto;
        p.seq = static_cast<uint16_t>(i);
        link.Send(p.payload_bytes + 12,
                  [pkt = std::move(p), &delivered_bytes](Timestamp) {
                    delivered_bytes += pkt.payload_bytes;
                  });
      });
    }
    loop.RunAll();
    benchmark::DoNotOptimize(delivered_bytes);
  }
  state.SetItemsProcessed(state.iterations() * kPackets);
}
BENCHMARK(BM_LinkEnqueueDeliver);

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
