// NACK generation over per-path sequence spaces.
//
// With multipath, gaps in the per-SSRC media sequence space are usually NOT
// loss — they are packets still in flight on another path. Converge's RTP
// extension gives every packet a per-path sequence number (mp_seq, Appendix
// B), and within a path delivery is FIFO, so a gap in a path's mp_seq space
// IS loss. NACKs therefore name (path, mp_seq) pairs; the sender maps them
// back to the original packets (§5 "we utilized the original sequence
// numbers to order packets").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/path.h"
#include "rtp/rtp_packet.h"
#include "rtp/sequence_number.h"
#include "sim/event_loop.h"

namespace converge {

class NackGenerator {
 public:
  struct Config {
    // Per-path delivery is FIFO, so a gap is loss with near certainty —
    // only a token grace period is needed.
    Duration reorder_grace = Duration::Millis(5);
    Duration retry_interval = Duration::Millis(60);
    int max_retries = 5;
    // A burst loss of hundreds of packets is a path collapse, not something
    // retransmission can fix: bound the chase list and expire entries older
    // than the frame buffer would wait anyway.
    size_t max_outstanding_per_path = 64;
    Duration max_age = Duration::Millis(450);
  };

  struct Stats {
    int64_t nacks_sent = 0;      // individual sequence numbers requested
    int64_t recovered = 0;       // requested packets that later arrived
    int64_t abandoned = 0;
  };

  // Emits (flow, missing seqs). A flow is a path id in Converge's per-path
  // mode, or an SSRC in legacy mode (see receiver_endpoint.h).
  using SendNackFn =
      std::function<void(int64_t flow, const std::vector<uint16_t>& seqs)>;

  NackGenerator(EventLoop* loop, Config config, SendNackFn send);
  ~NackGenerator();

  // Feed every packet of the flow (any kind).
  void OnPacket(int64_t flow, uint16_t seq);

  // A retransmission plugged the hole at (flow, seq) — stop chasing it.
  void OnRecovered(int64_t flow, uint16_t seq);

  // Cancels the retry timer when the receiving endpoint leaves: no NACK is
  // sent after it. Packets still fed in are tracked but never NACKed.
  void Stop();

  const Stats& stats() const { return stats_; }
  size_t outstanding() const;

 private:
  // The wire sequence is derived from the unwrapped map key when a NACK is
  // built (key & 0xFFFF). Storing a truncated copy alongside the key invites
  // aliasing: two keys 65536 apart carry the same 16-bit seq, and a
  // recovery for one could credit the other.
  struct Missing {
    Timestamp first_detected;
    Timestamp next_send;
    int retries = 0;
  };
  struct FlowState {
    SeqUnwrapper unwrapper;
    bool initialized = false;
    int64_t highest = 0;
    std::map<int64_t, Missing> missing;  // keyed by unwrapped mp_seq
  };

  // Runs every 5 ms while anything is outstanding; the timer sleeps (keeps
  // its grid and its loop seq, skips the call) whenever nothing is.
  void Process();

  EventLoop* loop_;
  Config config_;
  SendNackFn send_;
  Stats stats_;
  std::map<int64_t, FlowState> flows_;
  std::unique_ptr<RepeatingTask> task_;
};

}  // namespace converge
