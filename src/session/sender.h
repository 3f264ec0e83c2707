// The sending endpoint: N camera streams feeding encoders and packetizers,
// per-path congestion control (uncoupled GCC, §4.1), the pluggable multipath
// scheduler, the pluggable FEC controller, per-path pacers, RTX handling,
// probing of disabled paths, and all sender-side RTCP (SR, SDES frame rate)
// plus reaction to receiver RTCP (RR, transport feedback, NACK, PLI, QoE
// feedback).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "cc/cc_controller.h"
#include "cc/coupling.h"
#include "cc/pacer.h"
#include "fec/fec_controller.h"
#include "fec/xor_fec.h"
#include "net/network.h"
#include "rtp/rtcp.h"
#include "schedulers/scheduler.h"
#include "session/egress_seq.h"
#include "session/rtx_history.h"
#include "sim/event_loop.h"
#include "video/camera.h"
#include "video/encoder.h"
#include "video/packetizer.h"

namespace converge {

class Sender {
 public:
  struct StreamConfig {
    uint32_t ssrc = 0x1000;
    Camera::Config camera;
    Encoder::Config encoder;
    Packetizer::Config packetizer;
  };

  struct Config {
    std::vector<StreamConfig> streams;
    DataRate max_total_rate = DataRate::MegabitsPerSec(10);
    // Per-path congestion controller (one instance per path, built through
    // MakeCcController) and the coupling strategy combining their targets.
    CcConfig cc;
    CcCoupling cc_coupling = CcCoupling::kUncoupled;
    bool enable_fec = true;
    // The NACK flavour the call negotiated, mirroring the receivers'
    // ReceiverEndpoint::Config::per_path_nack: true answers (path, mp_seq)
    // NACKs, false legacy (ssrc, seq) ones (see RtxHistory).
    bool per_path_nack = true;
  };

  struct Stats {
    int64_t media_packets_sent = 0;
    int64_t fec_packets_sent = 0;
    int64_t rtx_packets_sent = 0;
    int64_t probe_packets_sent = 0;
    int64_t media_bytes_sent = 0;
    int64_t fec_bytes_sent = 0;
    int64_t frames_encoded = 0;
    int64_t keyframes_encoded = 0;
  };

  // Delivery of an RTP packet into the network. The conference wires this
  // to the path's forward link. By value: the sender moves its last reference in.
  using TransmitRtpFn = std::function<void(PathId path, RtpPacket packet)>;
  // Sender-originated RTCP (SR / SDES) toward the receiver.
  using TransmitRtcpFn =
      std::function<void(PathId path, const RtcpPacket& packet)>;

  Sender(EventLoop* loop, Config config, Scheduler* scheduler,
         FecController* fec, std::vector<PathId> path_ids, Random rng,
         TransmitRtpFn transmit_rtp, TransmitRtcpFn transmit_rtcp);
  ~Sender();

  void Start();
  // Quiesces the endpoint when its participant leaves mid-call: cameras stop
  // producing frames and the tick/SR/SDES timers are cancelled, so no new
  // media or RTCP enters the network. Packets already in flight (and the
  // idle per-path pacers) are unaffected; stats remain queryable.
  void Stop();

  // Receiver RTCP arriving at the sender.
  void HandleRtcp(const RtcpPacket& packet, Timestamp arrival);

  const Stats& stats() const { return stats_; }
  // Lookups that fell behind a history's age bound (kSentHistoryHorizon):
  // per-path NACKed seqs, and transport-feedback arrivals.
  int64_t nack_horizon_misses() const { return rtx_.horizon_misses(); }
  int64_t feedback_horizon_misses() const { return feedback_horizon_misses_; }
  // Pages the sent histories hold: RTX windows and feedback windows.
  size_t history_pages_allocated() const;
  // Frame records the RTX windows hold (RtxHistory::frame_records).
  RtxHistory::FrameRecords history_frame_records() const {
    return rtx_.frame_records();
  }
  DataRate current_encoder_target() const { return encoder_target_; }
  double path_loss(PathId path) const;

 private:
  struct PathState {
    std::unique_ptr<CcController> cc;
    std::unique_ptr<Pacer> pacer;
    EgressSeq egress;
  };

  struct StreamState {
    std::unique_ptr<Camera> camera;
    std::unique_ptr<Encoder> encoder;
    std::unique_ptr<Packetizer> packetizer;
    uint16_t next_fec_seq = 0;  // separate sequence space for parity
    // PLI debounce: a keyframe already in flight satisfies new requests.
    Timestamp last_keyframe_encoded = Timestamp::MinusInfinity();
  };

  void OnCameraFrame(size_t stream_index, const RawFrame& raw);
  // Packetizes, schedules, paces, and FEC-protects one encoded frame (one
  // simulcast rung of a capture; called once per capture when unlayered).
  void SendEncodedFrame(StreamState& stream, const EncodedFrame& frame);
  // Stamps multipath headers and hands the packet to the path's pacer.
  void DispatchToPacer(PathId path, const RtpPacket& packet);
  // Pacer output: bookkeeping + transmission into the network.
  void DispatchPacket(PathId path, RtpPacket packet);
  void Tick();
  void SendSenderReports();
  void SendSdes();
  std::vector<PathInfo> BuildPathInfos() const;
  // Per-path rates after the coupling strategy (path_ids_ order). Under
  // kUncoupled this is exactly each controller's own target.
  std::vector<DataRate> AllocatedRates() const;
  double AggregateLoss() const;
  void HandleNack(const Nack& nack, PathId report_path);
  void HandleTransportFeedback(const TransportFeedback& feedback,
                               PathId path_id, Timestamp now);

  EventLoop* loop_;
  Config config_;
  Scheduler* scheduler_;
  FecController* fec_;
  Random rng_;
  TransmitRtpFn transmit_rtp_;
  TransmitRtcpFn transmit_rtcp_;

  std::vector<PathId> path_ids_;
  std::map<PathId, PathState> paths_;
  std::vector<StreamState> streams_;
  RtxHistory rtx_;  // the sender is leg 0
  // Sliding FEC windows: media of (path, stream, rung) awaiting parity
  // coverage. Windowing per rung keeps every parity packet's covered set
  // inside one rung, so a hub forwarding a single rung never strands
  // parity across filtered packets.
  static constexpr size_t kFecWindowPackets = 48;
  std::map<std::tuple<PathId, int, int>, std::deque<RtpPacket>> fec_window_;
  std::optional<RtpPacket> last_fast_packet_;  // probe duplication source

  DataRate encoder_target_ = DataRate::KilobitsPerSec(300);
  Stats stats_;
  int64_t feedback_horizon_misses_ = 0;
  std::unique_ptr<RepeatingTask> tick_task_;
  std::unique_ptr<RepeatingTask> sr_task_;
  std::unique_ptr<RepeatingTask> sdes_task_;
  int64_t next_fec_block_ = 0;
};

}  // namespace converge
