#include "cc/pacer.h"

#include <string>
#include <utility>

#include "util/invariants.h"
#include "util/trace_recorder.h"

namespace converge {
namespace {

// Media whose projected queueing time exceeds this is dropped from the
// head of the queue (stale media is worthless in conferencing).
constexpr Duration kMaxQueueTime = Duration::Millis(400);
// Retransmissions older than this are dropped: the frame buffer has
// already skipped past the frame they would repair.
constexpr Duration kMaxRtxAge = Duration::Millis(300);

}  // namespace

Pacer::Pacer(EventLoop* loop, Config config, SendFn send)
    : loop_(loop),
      config_(config),
      send_(std::move(send)),
      last_process_(loop->now()) {
  task_ = std::make_unique<RepeatingTask>(loop_, kPacingInterval,
                                          [this] { Process(); });
}

Pacer::~Pacer() = default;

void Pacer::SetRate(DataRate media_rate) {
  pacing_rate_ = media_rate * kPacingFactor;
}

void Pacer::Enqueue(RtpPacket packet) {
  queued_bytes_ += packet.wire_size();
  Queued entry{std::move(packet), loop_->now()};
  if (entry.packet.priority == Priority::kRetransmit) {
    high_queue_.push_back(std::move(entry));
  } else {
    queue_.push_back(std::move(entry));
  }
}

Duration Pacer::QueueDelay() const {
  if (pacing_rate_.IsZero()) return Duration::Infinity();
  return pacing_rate_.TransmitTime(queued_bytes_);
}

void Pacer::Process() {
  const Timestamp now = loop_->now();
  const Duration elapsed = now - last_process_;
  last_process_ = now;

  budget_.Accrue(pacing_rate_, elapsed);

  // Overload protection: drop retransmissions that went stale in the queue
  // (their frame has been skipped), then shed old media from the head
  // rather than let the whole pipeline's latency grow without bound.
  while (!high_queue_.empty() &&
         now - high_queue_.front().enqueued > kMaxRtxAge) {
    queued_bytes_ -= high_queue_.front().packet.wire_size();
    high_queue_.pop_front();
    ++stats_.packets_dropped;
  }
  while (!queue_.empty() && QueueDelay() > kMaxQueueTime) {
    queued_bytes_ -= queue_.front().packet.wire_size();
    queue_.pop_front();
    ++stats_.packets_dropped;
  }

  while (true) {
    RingQueue<Queued>* source =
        !high_queue_.empty() ? &high_queue_ : &queue_;
    if (source->empty()) break;
    if (!budget_.Covers(source->front().packet.wire_size())) break;
    RtpPacket packet = std::move(source->front().packet);
    source->pop_front();
    const int64_t size = packet.wire_size();
    queued_bytes_ -= size;
    budget_.Spend(size);
    packet.send_time = now;
    ++stats_.packets_sent;
    send_(std::move(packet));
  }
  if (queue_.empty() && high_queue_.empty()) budget_.CapIdle();

  if (TraceRecorder* trace = TraceRecorder::Current()) {
    const int32_t path = config_.trace_path;
    trace->Counter("pacer", "queue_pkts", now,
                   static_cast<double>(queue_packets()), path);
    trace->Counter("pacer", "queue_bytes", now,
                   static_cast<double>(queued_bytes_), path);
    trace->Counter("pacer", "budget_bytes", now, budget_.bytes(), path);
    const Duration delay = QueueDelay();
    trace->Counter("pacer", "queue_delay_ms", now,
                   delay.IsInfinite() ? -1.0 : delay.seconds() * 1000.0,
                   path);
  }

  CONVERGE_INVARIANT("Pacer", now, queued_bytes_ >= 0,
                     "queued_bytes=" + std::to_string(queued_bytes_));
  CONVERGE_INVARIANT(
      "Pacer", now,
      !(queue_.empty() && high_queue_.empty()) || queued_bytes_ == 0,
      "empty queues but queued_bytes=" + std::to_string(queued_bytes_));
  CONVERGE_INVARIANT(
      "Pacer", now, budget_.bytes() <= static_cast<double>(kMaxBurstBytes),
      "budget=" + std::to_string(budget_.bytes()) +
          " max_burst=" + std::to_string(kMaxBurstBytes));
}

}  // namespace converge
