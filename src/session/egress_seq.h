// One egress life: the per-path sequence spaces of Appendix B (mp_seq and
// mp_transport_seq) for one origin on one path, and the send records that
// transport feedback on the path is matched against.
//
// A sender keeps one per path. A hub keeps one per (origin leg, path) and
// drops it when the origin leaves, records included, so a rejoined origin
// starts a new life at 0 that nothing of the previous one can be matched
// against (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cc/cc_controller.h"
#include "rtp/rtcp.h"
#include "rtp/rtp_packet.h"
#include "util/seq_window.h"
#include "util/time.h"

namespace converge {

class EgressSeq {
 public:
  // Stamps `packet` with this life's next mp_seq and mp_transport_seq (the
  // low 16 bits of the unwrapped transport counter) and records its
  // send_time and wire size under the unwrapped value (SentRecord's
  // ranges, checked). Callers stamp at pacer or queue output (see
  // Sender::DispatchPacket).
  void Stamp(RtpPacket& packet);

  // The send records `feedback`'s arrivals name, in arrival order. Arrival
  // seqs are unwrapped, as the receiver reconstructs them; recv_time is
  // copied as reported, so a lost packet's stays non-finite. Arrivals with
  // no record are skipped, and those the age bound trimmed are added to
  // `horizon_misses`.
  std::vector<PacketResult> Match(const TransportFeedback& feedback,
                                  int64_t& horizon_misses) const;

  // Pages the send records hold (SeqWindow::pages_allocated).
  size_t pages_allocated() const { return sent_.pages_allocated(); }

 private:
  // A send record in one word: the send time in µs in the low 40 bits
  // (about 12.7 simulated days) and the wire size in bytes in the high 24
  // (16 MiB), both checked when packed.
  struct SentRecord {
    static constexpr int kTimeBits = 40;
    static constexpr int kSizeBits = 24;
    static constexpr int64_t kMaxSendTimeUs = (int64_t{1} << kTimeBits) - 1;
    static constexpr int64_t kMaxBytes = (int64_t{1} << kSizeBits) - 1;

    uint64_t word = 0;

    Timestamp send_time() const {
      return Timestamp::Micros(static_cast<int64_t>(word & kMaxSendTimeUs));
    }
    int64_t bytes() const { return static_cast<int64_t>(word >> kTimeBits); }
  };
  static_assert(sizeof(SentRecord) == 8,
                "a send record is paid per packet held; keep it one word");
  // The last kSentWindow packets, less those older than
  // kSentHistoryHorizon.
  static constexpr size_t kSentWindow = 8192;

  uint16_t next_mp_seq_ = 0;
  int64_t transport_count_ = 0;  // unwrapped; low 16 bits go on the wire
  SeqWindow<SentRecord, int64_t> sent_{kSentWindow};
};

}  // namespace converge
