#include "receiver/fec_recovery.h"

#include <utility>

#include "rtp/sequence_number.h"

namespace converge {
namespace {
constexpr size_t kMaxPending = 256;
constexpr int64_t kPendingMaxAge = 512;  // in media-packet ticks
}  // namespace

FecRecoverer::FecRecoverer(RecoveredCallback on_recovered)
    : on_recovered_(std::move(on_recovered)) {}

bool FecRecoverer::Seen(uint16_t seq) const {
  const int64_t key = UnwrapNear(newest_, seq);
  return seen_any_ && key <= newest_ && newest_ - key < kSeenWindow &&
         seen_[key % kSeenWindow];
}

void FecRecoverer::MarkSeen(uint16_t seq) {
  // The first key sits one wrap up, so no key is negative.
  const int64_t key = seen_any_ ? UnwrapNear(newest_, seq) : seq + 0x10000;
  if (!seen_any_ || key - newest_ >= kSeenWindow) {
    seen_.reset();
    newest_ = key;
    seen_any_ = true;
  }
  if (newest_ - key >= kSeenWindow) return;  // older than the record holds
  while (newest_ < key) seen_.reset(++newest_ % kSeenWindow);
  seen_.set(key % kSeenWindow);
}

void FecRecoverer::OnMediaPacket(const RtpPacket& packet) {
  MarkSeen(packet.seq);
  ++tick_;

  // A new arrival may complete a pending parity group.
  for (auto it = pending_.begin(); it != pending_.end();) {
    bool relevant = false;
    if (it->packet.fec) {
      for (const ProtectedPacketMeta& meta : it->packet.fec->covered) {
        if (meta.seq == packet.seq) {
          relevant = true;
          break;
        }
      }
    }
    if (relevant && TryRecover(it->packet)) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  Sweep();
}

void FecRecoverer::OnFecPacket(const RtpPacket& packet) {
  ++stats_.fec_received;
  ++tick_;
  if (!TryRecover(packet)) {
    pending_.push_back(PendingFec{packet, tick_});
    while (pending_.size() > kMaxPending) pending_.pop_front();
  }
  Sweep();
}

bool FecRecoverer::TryRecover(const RtpPacket& fec) {
  if (!fec.fec) return true;  // malformed parity: nothing recoverable
  int missing = 0;
  const ProtectedPacketMeta* missing_meta = nullptr;
  for (const ProtectedPacketMeta& meta : fec.fec->covered) {
    if (!Seen(meta.seq)) {
      ++missing;
      missing_meta = &meta;
    }
  }
  if (missing == 0) return true;  // nothing to do; parity spent
  if (missing > 1) return false;  // XOR cannot rebuild two losses

  RtpPacket recovered = PacketFromMeta(*missing_meta, fec.ssrc);
  recovered.via_fec = true;
  MarkSeen(recovered.seq);
  ++stats_.fec_used;
  ++stats_.packets_recovered;
  on_recovered_(std::move(recovered));
  return true;
}

void FecRecoverer::Sweep() {
  while (!pending_.empty() && tick_ - pending_.front().age > kPendingMaxAge) {
    pending_.pop_front();
  }
}

}  // namespace converge
