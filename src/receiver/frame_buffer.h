// The receiver's frame buffer (§2.1): size-limited, orders assembled frames
// and releases them to the decoder in decode order. When the head-of-line
// frame is missing it waits up to `max_wait`; when the wait expires or the
// buffer fills, it jumps forward, counting the skipped frames as drops,
// instructing the packet buffer to purge their packets, and asking for a
// keyframe when the jump breaks the decode dependency chain (§3.1).
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "receiver/packet_buffer.h"
#include "sim/event_loop.h"
#include "video/frame.h"

namespace converge {

class FrameBuffer {
 public:
  struct Config {
    size_t capacity_frames = 16;
    Duration max_wait = Duration::Millis(300);  // head-of-line gap patience
  };

  struct Stats {
    int64_t frames_inserted = 0;
    int64_t frames_released = 0;
    int64_t frames_dropped = 0;    // skipped over or purged, never decoded
    int64_t keyframe_jumps = 0;    // continuity re-established at a keyframe
  };

  using ReleaseCallback = std::function<void(const AssembledFrame&)>;
  // Asks the sender for a fresh keyframe (PLI).
  using KeyframeRequestCallback = std::function<void()>;
  // Purge instruction toward the packet buffer.
  using PurgeCallback = std::function<void(int64_t upto_frame)>;

  FrameBuffer(EventLoop* loop, Config config, ReleaseCallback on_release,
              KeyframeRequestCallback on_keyframe_request,
              PurgeCallback on_purge);

  void Insert(AssembledFrame frame);

  // The inter-frame delay of the most recent insertion (§4.2 IFD).
  Duration last_ifd() const { return last_ifd_; }

  const Stats& stats() const { return stats_; }
  size_t size() const { return buffer_.size(); }

 private:
  void Release();
  void OnWaitExpired(int64_t waiting_for);
  void JumpForward();

  EventLoop* loop_;
  Config config_;
  ReleaseCallback on_release_;
  KeyframeRequestCallback on_keyframe_request_;
  PurgeCallback on_purge_;
  Stats stats_;

  std::map<int64_t, AssembledFrame> buffer_;  // keyed by frame_id
  int64_t next_expected_ = 0;
  // Set after a jump restarted at a delta frame: the decode chain is broken,
  // so delta frames are dropped (not released) until a keyframe arrives.
  bool broken_chain_ = false;
  bool waiting_ = false;
  Timestamp last_insert_time_ = Timestamp::MinusInfinity();
  Duration last_ifd_ = Duration::Zero();
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace converge
