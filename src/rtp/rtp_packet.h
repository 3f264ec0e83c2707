// RTP packet model with the Converge multipath header extension.
//
// The simulator passes `RtpPacket` structs by value/shared_ptr instead of
// serialized buffers, but the wire format of the header + multipath extension
// (paper Appendix B, Figure 18) is implemented and round-trip tested so the
// model stays faithful to what Converge puts on the wire. Payload bytes are
// represented only by their size.
#pragma once

#include <cstdint>
#include <memory>
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
// metadata (see src/fec/xor_fec.h).
struct ProtectedPacketMeta {
  uint16_t seq = 0;
  int stream_id = 0;
  int64_t frame_id = -1;
  int64_t gop_id = -1;
  FrameKind frame_kind = FrameKind::kDelta;
  PayloadKind kind = PayloadKind::kMedia;
  Priority priority = Priority::kNone;
  bool first_in_frame = false;
  bool last_in_frame = false;
  bool marker = false;
  int64_t payload_bytes = 0;
  Timestamp capture_time;
  // Layer coordinates of the covered packet (defaults for single-layer).
  uint8_t spatial_id = 0;
  uint8_t num_spatial = 1;
  uint8_t temporal_id = 0;
  uint8_t num_temporal = 1;
};

// Recovery metadata of one FEC parity packet: the covered sequence numbers
// and per-packet rebuild info. Built once by the encoder and shared,
// immutable, by every copy of the parity packet (sender history, link
// in-flight captures, receiver buffers) — copying an RtpPacket is a flat
// memcpy plus a refcount bump, never a vector clone.
struct FecBlockMeta {
  std::vector<ProtectedPacketMeta> covered;
};

struct RtpPacket {
  // ---- standard RTP header fields ----
  uint32_t ssrc = 0;
  uint16_t seq = 0;            // per-SSRC media sequence number
  uint32_t rtp_timestamp = 0;  // 90 kHz media clock
  bool marker = false;         // set on the last packet of a frame
  uint8_t payload_type = 96;

  // ---- Converge multipath extension (Appendix B) ----
  PathId path_id = 0;
  uint16_t mp_seq = 0;            // per-path media sequence
  uint16_t mp_transport_seq = 0;  // per-path transport-wide sequence

  // ---- content metadata (codec-derived in the real stack) ----
  PayloadKind kind = PayloadKind::kMedia;
  FrameKind frame_kind = FrameKind::kDelta;
  Priority priority = Priority::kNone;
  int stream_id = 0;       // camera stream index
  int64_t frame_id = -1;   // monotone per stream, shared across rungs
  int64_t gop_id = -1;
  bool first_in_frame = false;
  bool last_in_frame = false;
  int64_t payload_bytes = 0;
  int qp = 30;  // encoder QP of the carrying frame

  // ---- layer coordinates (x-converge-layers extension element) ----
  // Simulcast rung / temporal layer of the carrying frame. On the wire the
  // element is emitted only for layered streams (num_spatial > 1 or
  // num_temporal > 1), so single-layer serialization stays byte-identical.
  uint8_t spatial_id = 0;
  uint8_t num_spatial = 1;
  uint8_t temporal_id = 0;
  uint8_t num_temporal = 1;

  // Receiver-side provenance: set when this packet was rebuilt by FEC
  // recovery or arrived as an RTX retransmission.
  bool via_fec = false;
  bool via_rtx = false;

  // ---- timing (sim metadata) ----
  Timestamp capture_time;
  Timestamp send_time;

  // ---- FEC metadata (valid when kind == kFec) ----
  int64_t fec_block = -1;
  // Shared immutable recovery info; null on non-parity packets.
  std::shared_ptr<const FecBlockMeta> fec;

  // ---- RTX metadata (set on retransmitted copies) ----
  // Which (path, per-path seq) hole this retransmission plugs, so the
  // receiver's NACK tracker can stop chasing it.
  PathId rtx_for_path = kInvalidPathId;
  uint16_t rtx_for_mp_seq = 0;

  // True for duplicated probe copies sent on disabled paths.
  bool is_probe_duplicate = false;

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
