// The Converge video QoE feedback module (§4.2).
//
// Watches the frame construction process: per gathered frame it classifies
// each path's packets as early or late relative to the reference (fast)
// path, and tracks the inter-frame delay (IFD) against the expected value
// IFD_exp = 1 / announced-frame-rate. When IFD exceeds IFD_exp the monitor
// emits QoE feedback naming the offending path, the early/late packet count
// alpha, and the frame construction delay (FCD) — the exact triple the
// paper's Figure 8 walks through.
#pragma once

#include <functional>
#include <map>

#include "receiver/packet_buffer.h"
#include "rtp/rtcp.h"
#include "util/stats.h"

namespace converge {

class QoeMonitor {
 public:
  struct Config {
    double ifd_tolerance = 1.5;  // trigger at IFD > tolerance * IFD_exp
    // FCD is the other QoE parameter of §4.2: gathering a frame for longer
    // than this many frame intervals is deterioration even when frame
    // *completions* stay pipelined at IFD_exp (a constantly-late path).
    double fcd_tolerance = 2.0;
    int consecutive_breaches = 2;  // sustained breach before negative fb
    // A packet is "late" only when it extended the gathering delay
    // meaningfully past the reference path's completion.
    Duration late_margin = Duration::Millis(8);
    Duration early_margin = Duration::Millis(10);
    Duration min_feedback_interval = Duration::Millis(50);
    Duration positive_interval = Duration::Millis(500);
    int window_frames = 10;  // accumulation window for late/early counts
    int max_positive_alpha = 3;
  };

  struct Stats {
    int64_t negative_feedback = 0;
    int64_t positive_feedback = 0;
  };

  using FeedbackFn = std::function<void(const QoeFeedback&)>;

  QoeMonitor(EventLoop* loop, Config config, FeedbackFn send);

  // From the sender's SDES frame-rate message.
  void SetExpectedFps(double fps);

  // Every frame leaving the packet buffer, with its arrival history.
  void OnFrameGathered(const GatheredFrame& frame);

  // Every frame entering the frame buffer, with the measured IFD.
  void OnFrameInserted(Duration ifd);

  Duration expected_ifd() const { return ifd_exp_; }
  Duration last_ifd() const { return last_ifd_; }
  const Stats& stats() const { return stats_; }

 private:
  struct PathWindow {
    int64_t late = 0;
    int64_t early = 0;
    int64_t packets = 0;
  };

  void MaybeSendNegative();
  void MaybeSendPositive();
  void DecayWindows();

  EventLoop* loop_;
  Config config_;
  FeedbackFn send_;
  Stats stats_;

  Duration ifd_exp_ = Duration::Millis(33);
  Duration last_fcd_ = Duration::Zero();
  Duration last_ifd_ = Duration::Zero();
  int breach_streak_ = 0;
  int fcd_breach_streak_ = 0;
  int frames_in_window_ = 0;
  std::map<PathId, PathWindow> windows_;
  Timestamp last_feedback_ = Timestamp::MinusInfinity();
  Timestamp last_positive_ = Timestamp::MinusInfinity();
};

}  // namespace converge
