#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/fault_injector.h"
#include "net/link.h"
#include "net/network.h"
#include "net/path.h"
#include "util/ring_buffer.h"
#include "util/trace_recorder.h"

namespace converge {
namespace {

Link::Config BasicConfig(DataRate rate, Duration prop) {
  Link::Config c;
  c.capacity = BandwidthTrace::Constant(rate);
  c.prop_delay = prop;
  return c;
}

TEST(LinkTest, DeliversWithTransmissionPlusPropagation) {
  EventLoop loop;
  Link link(&loop, BasicConfig(DataRate::MegabitsPerSec(8), Duration::Millis(20)),
            Random(1));
  Timestamp arrival;
  // 1000 bytes at 8 Mbps = 1 ms serialization + 20 ms propagation.
  link.Send(1000, [&](Timestamp t) { arrival = t; });
  loop.RunAll();
  EXPECT_EQ(arrival, Timestamp::Millis(21));
  EXPECT_EQ(link.stats().packets_delivered, 1);
}

TEST(LinkTest, BackToBackPacketsQueueBehindEachOther) {
  EventLoop loop;
  Link link(&loop, BasicConfig(DataRate::MegabitsPerSec(8), Duration::Zero()),
            Random(1));
  std::vector<Timestamp> arrivals;
  for (int i = 0; i < 3; ++i) {
    link.Send(1000, [&](Timestamp t) { arrivals.push_back(t); });
  }
  loop.RunAll();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_EQ(arrivals[0], Timestamp::Millis(1));
  EXPECT_EQ(arrivals[1], Timestamp::Millis(2));
  EXPECT_EQ(arrivals[2], Timestamp::Millis(3));
}

TEST(LinkTest, QueueOverflowDrops) {
  EventLoop loop;
  Link::Config c = BasicConfig(DataRate::KilobitsPerSec(100), Duration::Zero());
  c.min_queue_bytes = 3000;
  c.max_queue_delay = Duration::Zero();  // force the fixed floor
  Link link(&loop, c, Random(1));
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 10; ++i) {
    link.Send(
        1000, [&](Timestamp) { ++delivered; },
        [&](bool queue_drop) {
          EXPECT_TRUE(queue_drop);
          ++dropped;
        });
  }
  loop.RunAll();
  EXPECT_EQ(delivered + dropped, 10);
  EXPECT_GT(dropped, 0);
  EXPECT_EQ(link.stats().packets_queue_dropped, dropped);
}

TEST(LinkTest, RandomLossInvokesDropCallback) {
  EventLoop loop;
  Link::Config c = BasicConfig(DataRate::MegabitsPerSec(100), Duration::Zero());
  c.loss = std::make_shared<BernoulliLoss>(0.5);
  Link link(&loop, c, Random(7));
  int delivered = 0;
  int lost = 0;
  for (int i = 0; i < 2000; ++i) {
    link.Send(
        100, [&](Timestamp) { ++delivered; },
        [&](bool queue_drop) {
          EXPECT_FALSE(queue_drop);
          ++lost;
        });
  }
  loop.RunAll();
  EXPECT_EQ(delivered + lost, 2000);
  EXPECT_NEAR(static_cast<double>(lost) / 2000.0, 0.5, 0.05);
}

TEST(LinkTest, OutageStallsDelivery) {
  EventLoop loop;
  // Capacity collapses to (effectively) zero at t=1s.
  ValueTrace trace({{Timestamp::Seconds(0), 10e6}, {Timestamp::Seconds(1), 0.0}},
                   false);
  Link::Config c;
  c.capacity = BandwidthTrace(ValueTrace(trace));
  c.prop_delay = Duration::Zero();
  Link link(&loop, c, Random(1));

  Timestamp first, second;
  link.Send(1000, [&](Timestamp t) { first = t; });
  loop.RunUntil(Timestamp::Seconds(0.5));
  EXPECT_TRUE(first.IsFinite());

  loop.RunUntil(Timestamp::Seconds(1.5));
  link.Send(1000, [&](Timestamp t) { second = t; });
  loop.RunUntil(Timestamp::Seconds(2.0));
  // 1000 bytes at the 10 kbps floor takes 0.8 s: still in flight at 2.0 s...
  EXPECT_EQ(second, Timestamp::Zero());
  loop.RunUntil(Timestamp::Seconds(3.0));
  EXPECT_GT(second, Timestamp::Seconds(2.2));
}

// A propagation delay that falls mid-flight lets a later packet overtake an
// earlier one; delivery follows (arrival time, send order), and each
// continuation sees its own arrival time.
TEST(LinkTest, CrossingArrivalsDeliverInArrivalThenSendOrder) {
  EventLoop loop;
  Link::Config c = BasicConfig(DataRate::MegabitsPerSec(8), Duration::Zero());
  // Packets leave the 1-ms transmitter at 1, 2 and 3 ms.
  c.prop_delay_trace = ValueTrace({{Timestamp::Zero(), 100'000.0},
                                   {Timestamp::Millis(2), 99'000.0},
                                   {Timestamp::Millis(3), 10'000.0}},
                                  /*repeat=*/false);
  Link link(&loop, c, Random(1));
  std::vector<std::pair<int, Timestamp>> delivered;
  for (int id = 0; id < 3; ++id) {
    link.Send(1000, [&, id](Timestamp t) { delivered.emplace_back(id, t); });
  }
  loop.RunAll();
  // Packet 2 (3 + 10 ms) passes packets 0 (1 + 100) and 1 (2 + 99), which
  // tie at 101 ms and keep their send order.
  const std::vector<std::pair<int, Timestamp>> want = {
      {2, Timestamp::Millis(13)},
      {0, Timestamp::Millis(101)},
      {1, Timestamp::Millis(101)}};
  EXPECT_EQ(delivered, want);
}

// A re-decided arrival that an outage postpones is delivered at the
// outage's end, after the packets that arrive before it. Two packets
// postponed to the same instant go in the order their arrivals were
// re-decided, not their send order.
TEST(LinkTest, PostponedArrivalDeliversAtOutageEndBehindLaterPackets) {
  FaultPlan plan;
  plan.Add(FaultEvent::Outage(Timestamp::Millis(50), Duration::Millis(100),
                              InFlightPolicy::kDelayToEnd));
  Link::Config c = BasicConfig(DataRate::MegabitsPerSec(8), Duration::Zero());
  c.prop_delay_trace = ValueTrace({{Timestamp::Zero(), 100'000.0},
                                   {Timestamp::Millis(2), 10'000.0}},
                                  /*repeat=*/false);
  c.faults = std::move(plan);
  EventLoop loop;
  auto link = MakeLink(&loop, std::move(c), Random(3));
  std::vector<std::pair<int, Timestamp>> delivered;
  auto send = [&](int id) {
    link->Send(1000, [&, id](Timestamp t) { delivered.emplace_back(id, t); });
  };
  send(0);  // arrives at 1 + 100 ms, inside the outage: postponed
  send(1);  // arrives at 2 + 10 ms
  loop.RunUntil(Timestamp::Millis(30));
  send(2);  // arrives at 41 ms
  loop.RunUntil(Timestamp::Millis(45));
  send(3);  // arrives at 56 ms, postponed; re-decided before packet 0
  loop.RunAll();
  const std::vector<std::pair<int, Timestamp>> want = {
      {1, Timestamp::Millis(12)},
      {2, Timestamp::Millis(41)},
      {3, Timestamp::Millis(150)},
      {0, Timestamp::Millis(150)}};
  EXPECT_EQ(delivered, want);
  EXPECT_EQ(link->stats().packets_delivered, 4);
}

// ---- Links as loop targets against links of one-shot callbacks ----
//
// CallbackLink is the link as it was when every hop cost two one-shot loop
// events, a finish per transmission and an arrival per delivered packet,
// each through ScheduleAt (plus one more for a re-decided packet that an
// outage or jitter postpones). It carries Link's and FaultyLink's model
// and draws their random numbers in the same order. Two worlds run one
// random script over a chain of three links (uplink, trunk, downlink), one
// built with MakeLink and one with CallbackLinks, and must log the same
// dispatches in the same order: every transmission finish (the loss model
// is asked once per finish), delivery, drop, one-shot and timer tick, with
// its time, and the same loop dispatch count at every RunUntil boundary.
// Same-time dispatches are ordered by seq, so a key taken at another point
// or a heap that loses its order shows as a difference in the log.
class CallbackLink {
 public:
  CallbackLink(EventLoop* loop, Link::Config config, Random rng)
      : loop_(loop), config_(std::move(config)), rng_(rng) {
    if (!config_.faults.empty()) {
      // As FaultyLink: the link's stream forks first, then the injector's.
      rng_ = rng.Fork();
      injector_.emplace(config_.faults, rng.Fork());
    }
  }

  int SendCopies() {
    return injector_ ? injector_->DrawCopies(loop_->now()) : 1;
  }

  void Send(int64_t bytes, Link::DeliverFn&& on_deliver,
            Link::DropFn on_drop) {
    Duration extra_delay = Duration::Zero();
    bool recheck = false;
    if (injector_) {
      const Timestamp now = loop_->now();
      const FaultInjector::SendDecision decision = injector_->OnSend(now);
      if (decision.drop) {
        ++stats_.packets_sent;
        ++stats_.packets_lost;
        if (on_drop) on_drop(/*queue_drop=*/false);
        return;
      }
      extra_delay = decision.extra_delay;
      recheck = injector_->OutagePending(now) || !extra_delay.IsZero();
    }
    ++stats_.packets_sent;
    const int64_t limit =
        std::max(config_.min_queue_bytes,
                 CapacityNow().BytesIn(config_.max_queue_delay));
    if (queued_bytes_ + bytes > limit) {
      ++stats_.packets_queue_dropped;
      if (on_drop) on_drop(/*queue_drop=*/true);
      return;
    }
    queue_.push_back(Packet{bytes, std::move(on_deliver), std::move(on_drop),
                            extra_delay, recheck});
    queued_bytes_ += bytes;
    if (!busy_) StartTransmission();
  }

  const Link::Stats& stats() const { return stats_; }

 private:
  struct Packet {
    int64_t bytes = 0;
    Link::DeliverFn deliver;
    Link::DropFn drop;
    Duration extra_delay;
    bool recheck = false;
  };

  DataRate CapacityNow() const {
    const DataRate base = config_.capacity.CapacityAt(loop_->now());
    if (!injector_) return base;
    const double scale = injector_->CapacityScale(loop_->now());
    return scale >= 1.0 ? base : base * scale;
  }
  Duration PropDelayNow() const {
    Duration delay = config_.prop_delay;
    if (!config_.prop_delay_trace.empty()) {
      delay = Duration::Micros(static_cast<int64_t>(
          config_.prop_delay_trace.ValueAt(loop_->now())));
    }
    if (injector_) delay = delay + injector_->DelayStep(loop_->now());
    return delay;
  }

  void StartTransmission() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const int64_t rate_bps = std::max<int64_t>(10'000, CapacityNow().bps());
    loop_->ScheduleIn(
        DataRate::BitsPerSec(rate_bps).TransmitTime(queue_.front().bytes),
        [this] { FinishTransmission(); });
  }

  void FinishTransmission() {
    Packet pkt = std::move(queue_.front());
    queue_.pop_front();
    queued_bytes_ -= pkt.bytes;
    if (config_.loss && config_.loss->ShouldDrop(loop_->now(), rng_)) {
      ++stats_.packets_lost;
      if (pkt.drop) pkt.drop(/*queue_drop=*/false);
    } else {
      ++stats_.packets_delivered;
      stats_.bytes_delivered += pkt.bytes;
      const Timestamp arrival = loop_->now() + PropDelayNow();
      const int64_t id = next_id_++;
      in_flight_.emplace(id, std::move(pkt));
      loop_->ScheduleAt(arrival, [this, id] { Arrive(id); });
    }
    StartTransmission();
  }

  void Arrive(int64_t id) {
    auto it = in_flight_.find(id);
    Packet pkt = std::move(it->second);
    in_flight_.erase(it);
    const Timestamp now = loop_->now();
    if (!pkt.recheck) {
      pkt.deliver(now);
      return;
    }
    const Timestamp target = now + pkt.extra_delay;
    const FaultInjector::DeliveryAction action = injector_->OnDelivery(target);
    if (action.drop) {
      --stats_.packets_delivered;
      stats_.bytes_delivered -= pkt.bytes;
      ++stats_.packets_lost;
      if (pkt.drop) pkt.drop(/*queue_drop=*/false);
      return;
    }
    const Timestamp deliver_at = action.delay ? action.deliver_at : target;
    if (deliver_at > now) {
      in_flight_.emplace(id, std::move(pkt));
      loop_->ScheduleAt(deliver_at, [this, id] {
        Link::DeliverFn deliver = std::move(in_flight_.at(id).deliver);
        in_flight_.erase(id);
        deliver(loop_->now());
      });
    } else {
      pkt.deliver(now);
    }
  }

  EventLoop* loop_;
  Link::Config config_;
  Random rng_;
  std::optional<FaultInjector> injector_;
  RingQueue<Packet> queue_;
  int64_t queued_bytes_ = 0;
  bool busy_ = false;
  std::map<int64_t, Packet> in_flight_;
  int64_t next_id_ = 0;
  Link::Stats stats_;
};

enum class Seen : uint8_t {
  kFinish,
  kDeliver,
  kDrop,
  kQueueDrop,
  kOneShot,
  kTick
};

// A dispatch as the script saw it, with the participant tag in force.
struct Logged {
  Timestamp at;
  Seen what;
  int64_t id;
  int hop;
  int32_t participant = TraceRecorder::CurrentParticipant();
  bool operator==(const Logged&) const = default;
};

// Bernoulli loss that logs each transmission finish it is asked about.
class LoggingLoss final : public LossModel {
 public:
  LoggingLoss(double rate, std::vector<Logged>* log, int hop)
      : rate_(rate), log_(log), hop_(hop) {}
  bool ShouldDrop(Timestamp now, Random& rng) override {
    log_->push_back(Logged{now, Seen::kFinish, -1, hop_});
    return rng.Bernoulli(rate_);
  }
  double AverageRate(Timestamp) const override { return rate_; }

 private:
  double rate_;
  std::vector<Logged>* log_;
  int hop_;
};

struct ChainShape {
  bool faults = true;           // the trunk is a FaultyLink
  bool negative_delays = false;  // the uplink's delay trace dips below 0
};

constexpr int kHops = 3;
constexpr int64_t kScriptUs = 2'000'000;

// Uplink: a capacity trace and a propagation delay that steps up and down
// every 40 ms (so arrivals cross), near the tx times of typical packets so
// arrivals tie with the next finish. Trunk: the fault plan's outages (both
// policies), rate cliff, handover step, reorder jitter with duplication and
// a jitter spike. Downlink: a small queue that drops. Every link loses at
// random. Sizes, rates and delays sit on 100-us grids, so same-time events
// are common.
std::vector<Link::Config> ChainConfigs(const ChainShape& shape,
                                       std::vector<Logged>* log) {
  std::vector<Link::Config> configs(kHops);
  Link::Config& up = configs[0];
  up.capacity = BandwidthTrace(ValueTrace(
      {{Timestamp::Zero(), 8e6},
       {Timestamp::Millis(400), 2e6},
       {Timestamp::Millis(550), 4e6},
       {Timestamp::Millis(900), 8e6}},
      /*repeat=*/true));
  std::vector<TraceSample> delays;
  const double steps[] = {1'000, 30'000, 500, 12'000, 2'000, 200};
  for (int i = 0; i * 40'000 < kScriptUs + 1'000'000; ++i) {
    double value = steps[i % 6];
    if (shape.negative_delays && i % 7 == 3) value = -300;
    delays.push_back({Timestamp::Micros(i * 40'000), value});
  }
  up.prop_delay_trace = ValueTrace(std::move(delays), /*repeat=*/false);
  up.min_queue_bytes = 20'000;
  up.loss = std::make_shared<LoggingLoss>(0.03, log, 0);

  Link::Config& trunk = configs[1];
  trunk.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(16));
  trunk.prop_delay = Duration::Millis(10);
  trunk.loss = std::make_shared<LoggingLoss>(0.02, log, 1);
  if (shape.faults) {
    FaultPlan& plan = trunk.faults;
    plan.Add(FaultEvent::Outage(Timestamp::Millis(300), Duration::Millis(40)));
    plan.Add(FaultEvent::RateCliff(Timestamp::Millis(500),
                                   Duration::Millis(100), 0.25));
    plan.Add(FaultEvent::Outage(Timestamp::Millis(700), Duration::Millis(60),
                                InFlightPolicy::kDelayToEnd));
    plan.Add(FaultEvent::Reorder(Timestamp::Millis(1000),
                                 Duration::Millis(300), Duration::Millis(3),
                                 /*duplicate_prob=*/0.2));
    plan.Add(FaultEvent::JitterSpike(Timestamp::Millis(1400),
                                     Duration::Millis(200),
                                     Duration::Millis(2)));
    plan.Add(FaultEvent::Handover(Timestamp::Millis(1650),
                                  Duration::Millis(100), Duration::Millis(25),
                                  /*burst_loss=*/0.1, Duration::Millis(20)));
    plan.Add(FaultEvent::Outage(Timestamp::Millis(1850), Duration::Millis(30),
                                InFlightPolicy::kDelayToEnd));
  }

  Link::Config& down = configs[2];
  down.capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(4));
  down.prop_delay = Duration::Millis(20);
  down.max_queue_delay = Duration::Millis(5);
  down.min_queue_bytes = 6'000;
  down.loss = std::make_shared<LoggingLoss>(0.05, log, 2);
  return configs;
}

std::unique_ptr<Link> MakeHop(Link*, EventLoop* loop, Link::Config config,
                              Random rng) {
  return MakeLink(loop, std::move(config), rng);
}
std::unique_ptr<CallbackLink> MakeHop(CallbackLink*, EventLoop* loop,
                                      Link::Config config, Random rng) {
  return std::make_unique<CallbackLink>(loop, std::move(config), rng);
}

// One world of the script. Three repeating timers (1, 3.3 and 5 ms) feed
// packets into the chain and schedule one-shots; deliveries forward to the
// next hop or schedule one-shots at this instant or on the 100-us grid;
// one-shots send bursts into any hop. Sends run under a drawn participant
// tag, which the loop restores for what they cause. Every dispatch draws
// its action from the world's own generator, so both worlds act alike for
// as long as their logs agree.
template <typename L>
class ChainWorld {
 public:
  ChainWorld(uint64_t seed, const ChainShape& shape) : script_(seed) {
    Random rng(seed ^ 0x1234'5678ULL);
    for (Link::Config& config : ChainConfigs(shape, &log_)) {
      hops_.push_back(MakeHop(static_cast<L*>(nullptr), &loop_,
                              std::move(config), rng.Fork()));
    }
    const Duration periods[] = {Duration::Micros(1'000),
                                Duration::Micros(3'300),
                                Duration::Micros(5'000)};
    for (int t = 0; t < 3; ++t) {
      timers_.push_back(std::make_unique<RepeatingTask>(
          &loop_, periods[t], [this, t] { OnTick(t); }));
    }
    Random setup(seed ^ 0xabcdULL);
    for (int i = 0; i < 40; ++i) {
      At(Timestamp::Micros(setup.UniformInt(0, kScriptUs / 100) * 100));
    }
  }

  void RunUntil(Timestamp end) { loop_.RunUntil(end); }
  void StopTimers() { timers_.clear(); }

  const EventLoop& loop() const { return loop_; }
  const std::vector<Logged>& log() const { return log_; }
  const Link::Stats& stats(int hop) const { return hops_[hop]->stats(); }

 private:
  int64_t Size() { return 100 * script_.UniformInt(1, 15); }

  void At(Timestamp at) {
    const int64_t id = next_oneshot_++;
    loop_.ScheduleAt(at, [this, id] { OnOneShot(id); });
  }

  void SendInto(int hop, int64_t id, int64_t bytes) {
    const int copies = hops_[hop]->SendCopies();
    for (int c = 0; c < copies; ++c) {
      hops_[hop]->Send(
          bytes,
          [this, hop, id, bytes](Timestamp t) {
            EXPECT_EQ(t, loop_.now());
            OnDeliver(hop, id, bytes);
          },
          [this, hop, id](bool queue_drop) {
            log_.push_back(Logged{loop_.now(),
                                  queue_drop ? Seen::kQueueDrop : Seen::kDrop,
                                  id, hop});
          });
    }
  }

  void OnTick(int timer) {
    log_.push_back(Logged{loop_.now(), Seen::kTick, timer, -1});
    const int64_t action = script_.UniformInt(0, 99);
    if (action < 45) {
      TraceParticipantScope tag(static_cast<int32_t>(script_.UniformInt(0, 5)));
      SendInto(timer == 2 ? 1 : 0, next_packet_++, Size());
    } else if (action < 55) {
      At(loop_.now());
    } else if (action < 65) {
      At(loop_.now() + Duration::Micros(100 * script_.UniformInt(1, 50)));
    }
  }

  void OnDeliver(int hop, int64_t id, int64_t bytes) {
    log_.push_back(Logged{loop_.now(), Seen::kDeliver, id, hop});
    const int64_t action = script_.UniformInt(0, 99);
    if (hop + 1 < kHops && action < 40) SendInto(hop + 1, id, bytes);
    if (hop + 1 < kHops && action >= 40 && action < 85) {
      TraceParticipantScope tag(static_cast<int32_t>(hop) + 10);
      SendInto(hop + 1, id, bytes);
    }
    if (action >= 80 && action < 90) At(loop_.now());
    if (action >= 90) {
      At(loop_.now() + Duration::Micros(100 * script_.UniformInt(0, 300)));
    }
  }

  void OnOneShot(int64_t id) {
    log_.push_back(Logged{loop_.now(), Seen::kOneShot, id, -1});
    const int64_t action = script_.UniformInt(0, 99);
    if (action < 60) {
      const int hop = static_cast<int>(script_.UniformInt(0, kHops - 1));
      const int64_t burst = script_.UniformInt(1, 6);
      for (int64_t i = 0; i < burst; ++i) {
        SendInto(hop, next_packet_++, Size());
      }
    } else if (action < 70) {
      At(loop_.now());
    }
  }

  EventLoop loop_;
  Random script_;
  std::vector<Logged> log_;
  std::vector<std::unique_ptr<L>> hops_;
  std::vector<std::unique_ptr<RepeatingTask>> timers_;
  int64_t next_packet_ = 0;
  int64_t next_oneshot_ = 1'000'000;
};

// Runs both worlds through RunUntil boundaries every `chunk_us` (drawn at
// random up to that bound when `random_chunks`), compares them at each
// boundary, then drains them with the timers stopped and compares the
// whole logs and every link's stats. A recorder is installed, so the loops
// restore participant tags.
void RunChainDifferential(uint64_t seed, const ChainShape& shape,
                          int64_t chunk_us, bool random_chunks) {
  TraceRecorder recorder(1);
  TraceScope tracing(&recorder);
  ChainWorld<Link> targets(seed, shape);
  ChainWorld<CallbackLink> callbacks(seed, shape);
  Random chunks(seed * 31 + 7);
  Timestamp t = Timestamp::Zero();
  while (t < Timestamp::Micros(kScriptUs)) {
    t = t + Duration::Micros(random_chunks ? chunks.UniformInt(1, chunk_us)
                                           : chunk_us);
    targets.RunUntil(t);
    callbacks.RunUntil(t);
    ASSERT_EQ(targets.loop().now(), callbacks.loop().now());
    ASSERT_EQ(targets.log().size(), callbacks.log().size())
        << "seed " << seed << ": diverged by " << t.us() << "us";
    ASSERT_EQ(targets.loop().executed_events(),
              callbacks.loop().executed_events())
        << "seed " << seed << " at " << t.us() << "us";
    // In-flight packets wait in their links, not in the loop.
    ASSERT_LE(targets.loop().pending_events(),
              callbacks.loop().pending_events());
  }
  targets.StopTimers();
  callbacks.StopTimers();
  targets.RunUntil(Timestamp::PlusInfinity());
  callbacks.RunUntil(Timestamp::PlusInfinity());
  EXPECT_EQ(targets.loop().pending_events(), 0u);
  ASSERT_EQ(targets.log().size(), callbacks.log().size()) << "seed " << seed;
  for (size_t i = 0; i < targets.log().size(); ++i) {
    const Logged& a = targets.log()[i];
    const Logged& b = callbacks.log()[i];
    ASSERT_TRUE(a == b) << "seed " << seed << ", dispatch " << i
                        << ": target link (" << a.at.us() << "us, "
                        << static_cast<int>(a.what) << ", id " << a.id
                        << ", hop " << a.hop << ", tag " << a.participant
                        << ") vs callback link (" << b.at.us() << "us, "
                        << static_cast<int>(b.what) << ", id " << b.id
                        << ", hop " << b.hop << ", tag " << b.participant
                        << ")";
  }
  EXPECT_EQ(targets.loop().executed_events(),
            callbacks.loop().executed_events());
  EXPECT_EQ(targets.loop().clamped_past_events(),
            callbacks.loop().clamped_past_events());
  for (int hop = 0; hop < kHops; ++hop) {
    const Link::Stats& a = targets.stats(hop);
    const Link::Stats& b = callbacks.stats(hop);
    EXPECT_EQ(a.packets_sent, b.packets_sent) << "hop " << hop;
    EXPECT_EQ(a.packets_delivered, b.packets_delivered) << "hop " << hop;
    EXPECT_EQ(a.packets_lost, b.packets_lost) << "hop " << hop;
    EXPECT_EQ(a.packets_queue_dropped, b.packets_queue_dropped)
        << "hop " << hop;
    EXPECT_EQ(a.bytes_delivered, b.bytes_delivered) << "hop " << hop;
  }
}

// How often the script hits each case, so a shape that stops exercising
// one shows up as a failure instead of a silent pass.
struct Coverage {
  int64_t deliveries = 0;
  int64_t drops = 0;
  int64_t queue_drops = 0;
  int64_t tied_dispatches = 0;  // same time as the previous dispatch
};

Coverage CoverageOf(uint64_t seed, const ChainShape& shape) {
  ChainWorld<Link> world(seed, shape);
  world.RunUntil(Timestamp::Micros(kScriptUs));
  Coverage c;
  for (size_t i = 0; i < world.log().size(); ++i) {
    const Logged& e = world.log()[i];
    c.deliveries += e.what == Seen::kDeliver;
    c.drops += e.what == Seen::kDrop;
    c.queue_drops += e.what == Seen::kQueueDrop;
    c.tied_dispatches += i > 0 && world.log()[i - 1].at == e.at;
  }
  return c;
}

TEST(LinkTargetDifferential, ChainWithFaultsMatchesCallbackLinks) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunChainDifferential(seed, ChainShape{}, /*chunk_us=*/30'000,
                         /*random_chunks=*/true);
    if (HasFatalFailure()) return;
  }
}

TEST(LinkTargetDifferential, PlainChainMatchesCallbackLinks) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    RunChainDifferential(seed, ChainShape{/*faults=*/false},
                         /*chunk_us=*/7'000, /*random_chunks=*/true);
    if (HasFatalFailure()) return;
  }
}

TEST(LinkTargetDifferential, BoundariesOnTheGridAndOneLongRun) {
  // RunUntil boundaries every 100 us land on the script's grid, where
  // finishes, arrivals and ticks tie; one RunUntil spans the whole script.
  RunChainDifferential(21, ChainShape{}, /*chunk_us=*/100,
                       /*random_chunks=*/false);
  if (HasFatalFailure()) return;
  RunChainDifferential(22, ChainShape{}, kScriptUs, /*random_chunks=*/false);
}

TEST(LinkTargetDifferential, ClampedArrivalsAreCountedAlike) {
  // A negative propagation delay keys an arrival in the past: both links
  // clamp it to now and count it.
  const ChainShape shape{/*faults=*/true, /*negative_delays=*/true};
  for (uint64_t seed = 31; seed <= 33; ++seed) {
    RunChainDifferential(seed, shape, /*chunk_us=*/20'000,
                         /*random_chunks=*/true);
    if (HasFatalFailure()) return;
  }
  ChainWorld<Link> world(31, shape);
  world.RunUntil(Timestamp::Micros(kScriptUs));
  EXPECT_GT(world.loop().clamped_past_events(), 0);
}

TEST(LinkTargetDifferential, ScriptCoversDropsAndTies) {
  const Coverage c = CoverageOf(1, ChainShape{});
  EXPECT_GT(c.deliveries, 4'000);
  EXPECT_GT(c.drops, 100);
  EXPECT_GT(c.queue_drops, 500);
  EXPECT_GT(c.tied_dispatches, 3'000);
}

TEST(GilbertElliottTest, AverageRateMatchesStationaryDistribution) {
  GilbertElliottLoss::Config c;
  c.p_good_to_bad = 0.01;
  c.p_bad_to_good = 0.09;
  c.loss_good = 0.0;
  c.loss_bad = 0.5;
  GilbertElliottLoss model(c);
  // pi_bad = 0.1 -> avg loss = 0.05.
  EXPECT_NEAR(model.AverageRate(Timestamp::Zero()), 0.05, 1e-9);

  Random rng(3);
  int drops = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (model.ShouldDrop(Timestamp::Zero(), rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.05, 0.01);
}

TEST(PathTest, ForwardAndBackwardAreIndependent) {
  EventLoop loop;
  Path::Config config;
  config.id = 3;
  config.name = "test";
  config.forward = BasicConfig(DataRate::MegabitsPerSec(8), Duration::Millis(10));
  config.backward = BasicConfig(DataRate::MegabitsPerSec(8), Duration::Millis(30));
  Path path(&loop, config, Random(1));
  EXPECT_EQ(path.id(), 3);
  EXPECT_EQ(path.name(), "test");

  Timestamp fwd, bwd;
  path.forward().Send(1000, [&](Timestamp t) { fwd = t; });
  path.backward().Send(1000, [&](Timestamp t) { bwd = t; });
  loop.RunAll();
  EXPECT_EQ(fwd, Timestamp::Millis(11));
  EXPECT_EQ(bwd, Timestamp::Millis(31));
}

TEST(NetworkTest, BuildsPathsFromSpecs) {
  EventLoop loop;
  std::vector<PathSpec> specs(2);
  specs[0].name = "a";
  specs[0].capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(10));
  specs[1].name = "b";
  specs[1].capacity = BandwidthTrace::Constant(DataRate::MegabitsPerSec(5));
  Network net(&loop, specs, Random(1));
  EXPECT_EQ(net.num_paths(), 2u);
  EXPECT_EQ(net.path(0).name(), "a");
  EXPECT_EQ(net.path(1).name(), "b");
  EXPECT_EQ(net.path_ids(), (std::vector<PathId>{0, 1}));
  EXPECT_EQ(net.path(1).forward().CapacityNow().mbps(), 5.0);
}

}  // namespace
}  // namespace converge
