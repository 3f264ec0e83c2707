#include "receiver/nack_generator.h"

#include <algorithm>
#include <utility>

#include "util/trace_recorder.h"

namespace converge {

NackGenerator::NackGenerator(EventLoop* loop, Config config, SendNackFn send)
    : loop_(loop),
      config_(config),
      send_(std::move(send)) {
  task_ = std::make_unique<RepeatingTask>(loop_, Duration::Millis(5),
                                          [this] { Process(); });
  task_->SetIdle(true);  // nothing to chase yet
}

NackGenerator::~NackGenerator() = default;

void NackGenerator::Stop() { task_.reset(); }

void NackGenerator::OnPacket(int64_t flow, uint16_t seq) {
  FlowState& st = flows_[flow];
  const int64_t useq = st.unwrapper.Unwrap(seq);

  if (!st.initialized) {
    st.initialized = true;
    st.highest = useq;
    return;
  }

  if (useq > st.highest) {
    // FIFO per path: every sequence in (highest, useq) was lost (or is
    // momentarily reordered — the grace period covers that). Only the
    // newest `max_outstanding_per_path` entries would survive the burst
    // cap anyway, so older ones are abandoned up front — a spurious jump
    // (e.g. a >32k-stale arrival unwrapping forward) costs O(cap), not
    // O(gap) insertions.
    const int64_t cap =
        static_cast<int64_t>(config_.max_outstanding_per_path);
    const int64_t first = std::max(st.highest + 1, useq - cap);
    stats_.abandoned += first - (st.highest + 1);
    for (int64_t s = first; s < useq; ++s) {
      st.missing.emplace(s, Missing{loop_->now(),
                                    loop_->now() + config_.reorder_grace, 0});
    }
    st.highest = useq;
    // Burst-loss cap: keep only the newest entries.
    while (st.missing.size() > config_.max_outstanding_per_path) {
      st.missing.erase(st.missing.begin());
      ++stats_.abandoned;
    }
    if (!st.missing.empty() && task_) task_->SetIdle(false);
  } else {
    auto it = st.missing.find(useq);
    if (it != st.missing.end()) {
      if (it->second.retries > 0) ++stats_.recovered;
      st.missing.erase(it);
    }
  }
}

void NackGenerator::OnRecovered(int64_t flow, uint16_t seq) {
  auto fit = flows_.find(flow);
  if (fit == flows_.end()) return;
  FlowState& st = fit->second;
  if (!st.initialized) return;
  // Re-wrap the 16-bit wire seq into the flow's unwrapped space relative to
  // the highest sequence seen, exactly as the sender side does. A linear
  // first-match scan on truncated seqs would be ambiguous across the wrap
  // boundary (keys 65536 apart share a wire seq) and could erase the wrong
  // entry; the exact key lookup cannot. This must not go through
  // st.unwrapper: recovery notifications are not in-order arrivals and
  // advancing the unwrapper here would corrupt gap detection.
  auto it = st.missing.find(UnwrapNear(st.highest, seq));
  if (it != st.missing.end()) {
    ++stats_.recovered;
    st.missing.erase(it);
  }
}

void NackGenerator::Process() {
  const Timestamp now = loop_->now();
  bool chasing = false;
  for (auto& [flow, st] : flows_) {
    std::vector<uint16_t> batch;
    for (auto it = st.missing.begin(); it != st.missing.end();) {
      Missing& m = it->second;
      if (m.retries >= config_.max_retries ||
          now - m.first_detected > config_.max_age) {
        ++stats_.abandoned;
        it = st.missing.erase(it);
        continue;
      }
      if (now >= m.next_send) {
        batch.push_back(static_cast<uint16_t>(it->first & 0xFFFF));
        ++m.retries;
        m.next_send = now + config_.retry_interval;
      }
      ++it;
    }
    if (!batch.empty()) {
      stats_.nacks_sent += static_cast<int64_t>(batch.size());
      if (TraceRecorder* trace = TraceRecorder::Current()) {
        trace->Instant("nack", "batch", now,
                       static_cast<double>(batch.size()),
                       static_cast<int32_t>(flow), -1,
                       static_cast<double>(st.missing.size()));
      }
      send_(flow, batch);
    }
    chasing = chasing || !st.missing.empty();
  }
  if (TraceRecorder* trace = TraceRecorder::Current()) {
    trace->Counter("nack", "outstanding", now,
                   static_cast<double>(outstanding()));
  }
  // Nothing left to chase: this tick would do nothing until OnPacket
  // records a gap, which wakes the timer on its unchanged 5-ms grid.
  if (!chasing && task_) task_->SetIdle(true);
}

size_t NackGenerator::outstanding() const {
  size_t total = 0;
  for (const auto& [flow, st] : flows_) total += st.missing.size();
  return total;
}

}  // namespace converge
