// Receiver-side XOR FEC recovery.
//
// Tracks received media packets and pending parity packets; whenever a
// parity group has exactly one covered packet missing, that packet is
// rebuilt and handed back to the caller. Also reports the utilization
// statistics the paper evaluates (fraction of received FEC that actually
// repaired something, Figures 3c/12).
//
// The arrival record is the stream's one answer to "has this seq arrived?".
// It holds the newest kSeenWindow seqs of the stream's SSRC: a wire seq is
// unwrapped next to the newest key, and bit `key % kSeenWindow` is set when
// that key arrived or was rebuilt, for keys in (newest - kSeenWindow,
// newest]. Advancing the newest clears the positions it passes, so the
// record is wrap-correct and age-ordered; keys outside it read as unseen.
#pragma once

#include <bitset>
#include <cstdint>
#include <deque>
#include <functional>

#include "fec/xor_fec.h"
#include "rtp/rtp_packet.h"

namespace converge {

class FecRecoverer {
 public:
  struct Stats {
    int64_t fec_received = 0;
    int64_t fec_used = 0;        // parity packets that repaired a loss
    int64_t packets_recovered = 0;
  };

  // Recovered packets are delivered through this callback (marked via_fec).
  // By value: the freshly rebuilt packet is moved out to the caller.
  using RecoveredCallback = std::function<void(RtpPacket)>;

  static constexpr int64_t kSeenWindow = 4096;

  explicit FecRecoverer(RecoveredCallback on_recovered);

  // Media path: record the sequence and re-check pending parity packets.
  void OnMediaPacket(const RtpPacket& packet);
  // Parity path: attempt recovery now, else park the parity packet.
  void OnFecPacket(const RtpPacket& packet);

  // True if `seq` arrived or was rebuilt among the newest kSeenWindow keys.
  bool Seen(uint16_t seq) const;

  const Stats& stats() const { return stats_; }
  size_t pending() const { return pending_.size(); }

 private:
  struct PendingFec {
    RtpPacket packet;
    int64_t age = 0;
  };

  // Returns true if the parity packet is now spent (recovered or complete).
  bool TryRecover(const RtpPacket& fec);
  void Sweep();
  void MarkSeen(uint16_t seq);

  RecoveredCallback on_recovered_;
  Stats stats_;
  std::bitset<kSeenWindow> seen_;
  int64_t newest_ = 0;  // newest unwrapped key, once `seen_any_`
  bool seen_any_ = false;
  std::deque<PendingFec> pending_;
  int64_t tick_ = 0;
};

}  // namespace converge
