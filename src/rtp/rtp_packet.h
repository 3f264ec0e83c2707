// RTP packet model with the Converge multipath header extension.
//
// The simulator passes `RtpPacket` structs by value instead of serialized
// buffers, but the wire format of the header + multipath extension
// (paper Appendix B, Figure 18) is implemented and round-trip tested so the
// model stays faithful to what Converge puts on the wire. Payload bytes are
// represented only by their size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/path.h"
#include "util/time.h"

namespace converge {

// What the packet carries. In the real system this is implicit in the codec
// payload; Converge exposes it to the scheduler (§4.1).
enum class PayloadKind : uint8_t {
  kMedia = 0,  // slice data of a key or delta frame
  kPps,        // Picture Parameter Set: required per frame
  kSps,        // Sequence Parameter Set: required per group of frames
  kFec,        // XOR parity packet
  kRtx,        // retransmission in response to a NACK
  kProbe,      // duplicated packet probing a disabled path (§4.2)
};

// Scheduler priority levels from Table 2 (1 = highest). Plain delta-frame
// media packets have no priority (kNone).
enum class Priority : uint8_t {
  kRetransmit = 1,
  kKeyframe = 2,
  kSps = 3,
  kPps = 4,
  kFec = 5,
  kNone = 6,
};

enum class FrameKind : uint8_t { kKey = 0, kDelta = 1 };

// Compact description of a packet protected by a FEC parity packet. The
// real XOR codec recovers the whole bitstream; the simulator recovers this
// metadata (see src/fec/xor_fec.h). Field types mirror RtpPacket's.
struct ProtectedPacketMeta {
  Timestamp capture_time;
  int32_t frame_id = -1;
  int32_t gop_id = -1;
  int32_t payload_bytes = 0;
  uint16_t seq = 0;
  uint8_t stream_id = 0;
  FrameKind frame_kind = FrameKind::kDelta;
  PayloadKind kind = PayloadKind::kMedia;
  Priority priority = Priority::kNone;
  bool first_in_frame = false;
  bool last_in_frame = false;
  bool marker = false;
  // Layer coordinates of the covered packet (defaults for single-layer).
  uint8_t spatial_id = 0;
  uint8_t num_spatial = 1;
  uint8_t temporal_id = 0;
  uint8_t num_temporal = 1;
};

// Recovery metadata of one FEC parity packet: the encoder's block id, the
// covered sequence numbers and per-packet rebuild info. Built once by the
// encoder and shared, immutable, by every copy of the parity packet (pacer
// queues, link in-flight captures, receiver buffers) through FecMetaRef.
struct FecBlockMeta {
  int64_t block_id = -1;
  std::vector<ProtectedPacketMeta> covered;

 private:
  friend class FecMetaRef;
  mutable uint32_t refs_ = 0;
};

// Counted handle to an immutable FecBlockMeta: one pointer wide, so copying
// an RtpPacket is a flat copy plus one increment, never a vector clone.
//
// The count is deliberately NOT atomic. A packet never leaves the thread of
// the call that built it: a Conference is a single-threaded island with its
// own EventLoop, and RunFleet advances each call on exactly one shard
// thread (sim/fleet.h). Handing a packet — or anything holding one — to
// another thread while the call lives would race on the count.
class FecMetaRef {
 public:
  FecMetaRef() = default;
  // Takes ownership of a new block, holding its first reference.
  static FecMetaRef Make(FecBlockMeta meta) {
    return FecMetaRef(new FecBlockMeta(std::move(meta)));
  }

  FecMetaRef(const FecMetaRef& other) noexcept : meta_(other.meta_) {
    if (meta_ != nullptr) ++meta_->refs_;
  }
  FecMetaRef(FecMetaRef&& other) noexcept : meta_(other.meta_) {
    other.meta_ = nullptr;
  }
  FecMetaRef& operator=(const FecMetaRef& other) noexcept {
    FecMetaRef copy(other);
    std::swap(meta_, copy.meta_);
    return *this;
  }
  FecMetaRef& operator=(FecMetaRef&& other) noexcept {
    std::swap(meta_, other.meta_);
    return *this;
  }
  ~FecMetaRef() {
    if (meta_ != nullptr && --meta_->refs_ == 0) delete meta_;
  }

  const FecBlockMeta* get() const { return meta_; }
  const FecBlockMeta* operator->() const { return meta_; }
  explicit operator bool() const { return meta_ != nullptr; }
  friend bool operator==(const FecMetaRef& ref, std::nullptr_t) {
    return ref.meta_ == nullptr;
  }
  // Handles sharing this block (0 when empty).
  uint32_t use_count() const { return meta_ != nullptr ? meta_->refs_ : 0; }

 private:
  explicit FecMetaRef(const FecBlockMeta* meta) : meta_(meta) {
    meta_->refs_ = 1;
  }

  const FecBlockMeta* meta_ = nullptr;
};

// The simulator's packet: 64 bytes, no padding (fields ordered by size).
// Ranges are those of the wire format or of any simulated call: path ids
// are one byte on the wire; frame and GOP ids last about two years at
// 30 fps; layer coordinates are the 4-bit nibbles of the x-converge-layers
// element. Sites that narrow a wider value into a field check it with
// CONVERGE_INVARIANT instead of letting it wrap.
struct RtpPacket {
  // ---- timing (sim metadata) ----
  Timestamp capture_time;
  Timestamp send_time;

  // ---- FEC metadata: shared immutable recovery info; null unless
  // kind == kFec ----
  FecMetaRef fec;

  // ---- standard RTP header fields ----
  uint32_t ssrc = 0;
  uint32_t rtp_timestamp = 0;  // 90 kHz media clock

  // ---- content metadata (codec-derived in the real stack) ----
  int32_t frame_id = -1;  // monotone per stream, shared across rungs
  int32_t gop_id = -1;
  int32_t payload_bytes = 0;

  uint16_t seq = 0;  // per-SSRC media sequence number
  // ---- Converge multipath extension (Appendix B) ----
  uint16_t mp_seq = 0;            // per-path media sequence
  uint16_t mp_transport_seq = 0;  // per-path transport-wide sequence
  // ---- RTX metadata (set on retransmitted copies) ----
  // Which (path, per-path seq) hole this retransmission plugs, so the
  // receiver's NACK tracker can stop chasing it.
  uint16_t rtx_for_mp_seq = 0;
  int8_t path_id = 0;  // a PathId; one byte on the wire
  int8_t rtx_for_path = kInvalidPathId;

  uint8_t stream_id = 0;  // camera stream index
  uint8_t qp = 30;        // encoder QP of the carrying frame
  uint8_t payload_type = 96;
  PayloadKind kind = PayloadKind::kMedia;
  FrameKind frame_kind = FrameKind::kDelta;
  Priority priority = Priority::kNone;

  // ---- layer coordinates (x-converge-layers extension element) ----
  // Simulcast rung / temporal layer of the carrying frame. On the wire the
  // element is emitted only for layered streams (num_spatial > 1 or
  // num_temporal > 1), so single-layer serialization stays byte-identical.
  uint8_t spatial_id : 4 = 0;
  uint8_t num_spatial : 4 = 1;
  uint8_t temporal_id : 4 = 0;
  uint8_t num_temporal : 4 = 1;

  bool marker : 1 = false;  // set on the last packet of a frame
  bool first_in_frame : 1 = false;
  bool last_in_frame : 1 = false;
  // Receiver-side provenance: set when this packet was rebuilt by FEC
  // recovery or arrived as an RTX retransmission.
  bool via_fec : 1 = false;
  bool via_rtx : 1 = false;
  // True for duplicated probe copies sent on disabled paths.
  bool is_probe_duplicate : 1 = false;

  // Size on the wire: payload + 12-byte header + multipath extension.
  int64_t wire_size() const;

  bool IsDecodingCritical() const {
    return priority != Priority::kNone && priority != Priority::kFec;
  }
  // Frame content (slice data or a parameter set), as opposed to FEC
  // parity, probes and padding.
  bool IsMediaLike() const {
    return kind == PayloadKind::kMedia || kind == PayloadKind::kPps ||
           kind == PayloadKind::kSps;
  }
};
static_assert(sizeof(RtpPacket) <= 64,
              "RtpPacket rides by value through every queue and in-flight "
              "hop; keep it within one cache line");

// Largest values of the one-byte path fields and the layer nibbles, for the
// range checks at the sites that store into them.
inline constexpr PathId kMaxPacketPathId = INT8_MAX;
inline constexpr int kMaxLayerCoordinate = 15;

// True when `path` fits RtpPacket's one-byte path fields (kInvalidPathId
// included).
constexpr bool FitsPacketPathId(PathId path) {
  return path >= kInvalidPathId && path <= kMaxPacketPathId;
}

// Fixed RTP header size plus the Converge extension block (Figure 18):
// 4-byte extension header + pathID/MpSeq/MpTransportSeq elements, padded.
inline constexpr int64_t kRtpHeaderBytes = 12;
inline constexpr int64_t kMultipathExtensionBytes = 16;

// Serializes the header + multipath extension per Figure 18 (RFC 5285
// one-byte extension elements). Returns header bytes only; the payload is
// abstract in the simulator.
std::vector<uint8_t> SerializeRtpHeader(const RtpPacket& packet);

// Parses a buffer produced by SerializeRtpHeader. Returns false on a
// malformed buffer. Only wire-visible fields are recovered.
bool ParseRtpHeader(const std::vector<uint8_t>& buffer, RtpPacket* packet);

}  // namespace converge
