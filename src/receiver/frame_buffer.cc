#include "receiver/frame_buffer.h"

#include <string>
#include <utility>

#include "util/invariants.h"

namespace converge {

FrameBuffer::FrameBuffer(EventLoop* loop, Config config,
                         ReleaseCallback on_release,
                         KeyframeRequestCallback on_keyframe_request,
                         PurgeCallback on_purge)
    : loop_(loop),
      config_(config),
      on_release_(std::move(on_release)),
      on_keyframe_request_(std::move(on_keyframe_request)),
      on_purge_(std::move(on_purge)) {}

void FrameBuffer::Insert(AssembledFrame frame) {
  const Timestamp now = loop_->now();
  if (last_insert_time_.IsFinite()) last_ifd_ = now - last_insert_time_;
  last_insert_time_ = now;
  ++stats_.frames_inserted;

  if (frame.frame_id < next_expected_) {
    // Arrived after we already skipped past it (counted at skip time).
    return;
  }
  buffer_.emplace(frame.frame_id, std::move(frame));

  // A keyframe makes everything older irrelevant: decoding restarts there.
  Release();

  CONVERGE_INVARIANT(
      "FrameBuffer", now, buffer_.size() <= config_.capacity_frames,
      "size=" + std::to_string(buffer_.size()) +
          " capacity=" + std::to_string(config_.capacity_frames));
  // Never hold a frame older than one already released/skipped: such a
  // frame could only be decoded out of order.
  CONVERGE_INVARIANT(
      "FrameBuffer", now,
      buffer_.empty() || buffer_.begin()->first >= next_expected_,
      "oldest_buffered=" + std::to_string(buffer_.begin()->first) +
          " next_expected=" + std::to_string(next_expected_));
}

void FrameBuffer::Release() {
  while (true) {
    auto it = buffer_.find(next_expected_);
    if (it != buffer_.end()) {
      if (broken_chain_ && it->second.kind != FrameKind::kKey) {
        // Undecodable delta (its reference was dropped): purge it instead
        // of feeding the decoder (§3.2), and keep asking for a keyframe —
        // the previous request may itself have been lost. The receiver
        // rate-limits actual PLI emission.
        buffer_.erase(it);
        ++next_expected_;
        ++stats_.frames_dropped;
        on_keyframe_request_();
        continue;
      }
      broken_chain_ = false;
      const AssembledFrame out = std::move(it->second);
      buffer_.erase(it);
      ++next_expected_;
      ++stats_.frames_released;
      on_release_(out);
      continue;
    }
    break;
  }
  if (buffer_.empty()) return;

  // Head-of-line gap. A buffered keyframe short-circuits the wait: frames
  // older than it are useless to the decoder anyway (§3.1), so decoding
  // restarts there immediately.
  for (const auto& [id, frame] : buffer_) {
    if (frame.kind == FrameKind::kKey) {
      JumpForward();
      return;
    }
  }
  if (buffer_.size() >= config_.capacity_frames) {
    JumpForward();
    return;
  }
  if (!waiting_) {
    waiting_ = true;
    const int64_t waiting_for = next_expected_;
    std::weak_ptr<bool> weak = alive_;
    loop_->ScheduleIn(config_.max_wait, [this, waiting_for, weak] {
      if (auto alive = weak.lock(); alive && *alive) OnWaitExpired(waiting_for);
    });
  }
}

void FrameBuffer::OnWaitExpired(int64_t waiting_for) {
  waiting_ = false;
  if (next_expected_ != waiting_for || buffer_.empty()) {
    // Progress happened (or buffer drained); nothing to force.
    if (!buffer_.empty()) Release();
    return;
  }
  JumpForward();
}

void FrameBuffer::JumpForward() {
  waiting_ = false;
  if (buffer_.empty()) return;

  // Prefer restarting at a buffered keyframe: the dependency chain is intact
  // from there (§3.1). Otherwise skip only the missing range and let the
  // decoder flag the broken chain.
  int64_t jump_to = buffer_.begin()->first;
  bool keyframe_restart = false;
  for (const auto& [id, frame] : buffer_) {
    if (frame.kind == FrameKind::kKey) {
      jump_to = id;
      keyframe_restart = true;
      break;
    }
  }

  // Everything in [next_expected_, jump_to) is dropped: buffered deltas
  // older than the restart point plus the never-assembled missing frames.
  for (auto it = buffer_.begin(); it != buffer_.end() && it->first < jump_to;) {
    it = buffer_.erase(it);
  }
  stats_.frames_dropped += jump_to - next_expected_;

  on_purge_(jump_to - 1);
  next_expected_ = jump_to;
  if (keyframe_restart) {
    ++stats_.keyframe_jumps;
    broken_chain_ = false;
  } else {
    // Restarting at a delta frame: decoding cannot resume without a new
    // keyframe. Buffered deltas are undecodable and will be purged.
    broken_chain_ = true;
    on_keyframe_request_();
  }
  Release();
}

}  // namespace converge
