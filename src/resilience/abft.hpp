// ABFT checksum codec for point-to-point messages (Huang–Abraham style
// algorithm-based fault tolerance, adapted to bit-exact integer parity).
//
// The classical ABFT scheme of Huang & Abraham augments matrix operands
// with floating-point row/column checksums. Summing doubles is not
// bit-exact, so a corrupted-then-corrected tile would no longer be
// bit-identical to a clean run — and bit-identical recovery is this
// repository's acceptance bar. We therefore protect the *transport* of the
// tiles instead of their algebra, with XOR parity over bytes:
//
//   trailer byte 0      X_all  = XOR of all payload bytes
//   trailer byte 1 + b  X_b    = XOR of payload bytes whose (index + 1) has
//                                bit b set, for b in [0, bits), where bits
//                                is the number of bits needed to represent
//                                the payload size
//
// Indexing positions from 1 makes every payload position participate in at
// least one positional parity, so a corrupted payload byte is
// distinguishable from a corrupted X_all trailer byte. Decoding computes
// the same XORs over the received payload and XORs them against the
// received trailer, giving syndromes S_all, S_0..S_{bits-1}:
//
//   * all zero                               -> clean
//   * S_all != 0, every nonzero S_b == S_all -> payload byte at position
//     (bitmask of nonzero S_b) - 1 took the error; XOR S_all back in to
//     correct it (Hamming-style locate + correct, exact for any single
//     corrupted byte — FaultPlan::FlipPayload flips one byte)
//   * S_all != 0, all S_b == 0               -> the X_all trailer byte was
//     hit; payload intact
//   * S_all == 0, exactly one S_b != 0       -> one positional trailer byte
//     was hit; payload intact
//   * anything else                          -> >= 2 corrupted bytes,
//     uncorrectable: the caller raises an error (detection never silently
//     degrades to wrong data)
//
// Overhead: 1 + ceil(log2(payload_bytes + 1)) trailer bytes per message
// (14 bytes for a 4 KiB tile) plus one encode scan at the sender and one
// decode scan at the receiver, both memory-bandwidth bound
// (Comm::charge_local_work prices them; costmodel::predict replays the same
// scan ops of the schedule).
#pragma once

#include <cstring>

#include "common/partition.hpp"

namespace ca3dmm::resilience {

/// Trailer bytes protecting a payload of `payload_bytes` (0 for an empty
/// payload). Monotonically non-decreasing in payload_bytes.
inline i64 abft_trailer_bytes(i64 payload_bytes) {
  if (payload_bytes <= 0) return 0;
  int bits = 0;
  while ((payload_bytes >> bits) != 0) ++bits;
  return 1 + bits;
}

/// Trailer size rounded up to whole elements of `esize` bytes — the unit in
/// which a typed tile buffer is enlarged to carry its trailer. Unused pad
/// bytes inside the last element are transmitted but carry no information:
/// a flip landing there decodes as clean, and the payload is untouched.
inline i64 abft_trailer_elems(i64 payload_elems, i64 esize) {
  const i64 tb = abft_trailer_bytes(payload_elems * esize);
  return (tb + esize - 1) / esize;
}

/// Writes the checksum trailer of payload[0..payload_bytes) into
/// trailer[0..abft_trailer_bytes(payload_bytes)).
void abft_encode(const void* payload, i64 payload_bytes, void* trailer);

enum class AbftOutcome {
  kClean,          ///< syndromes zero: nothing was corrupted
  kCorrected,      ///< single payload byte corrected in place
  kTrailerHit,     ///< a trailer byte was corrupted; payload intact
  kUncorrectable,  ///< >= 2 corrupted bytes; payload must not be trusted
};

struct AbftDecodeResult {
  AbftOutcome outcome = AbftOutcome::kClean;
  i64 offset = -1;          ///< corrected payload byte (kCorrected only)
  unsigned char delta = 0;  ///< XOR mask removed from that byte
};

/// Verifies payload[0..payload_bytes) against its received trailer,
/// correcting a single corrupted payload byte in place.
AbftDecodeResult abft_decode(void* payload, i64 payload_bytes,
                             const void* trailer);

// ---- typed-tile helpers: trailer appended after the payload elements ----

/// Message length in elements for a protected tile of `payload_elems`.
template <typename T>
i64 abft_msg_elems(i64 payload_elems) {
  return payload_elems +
         abft_trailer_elems(payload_elems, static_cast<i64>(sizeof(T)));
}

/// Encodes buf[0..payload_elems) and writes the trailer (plus deterministic
/// zero padding up to the element boundary) at buf[payload_elems..).
template <typename T>
void abft_encode_msg(T* buf, i64 payload_elems) {
  if (payload_elems <= 0) return;
  const i64 payload_bytes = payload_elems * static_cast<i64>(sizeof(T));
  const i64 pad_elems =
      abft_trailer_elems(payload_elems, static_cast<i64>(sizeof(T)));
  unsigned char* tr =
      reinterpret_cast<unsigned char*>(buf + payload_elems);
  std::memset(tr, 0, static_cast<size_t>(pad_elems) * sizeof(T));
  abft_encode(buf, payload_bytes, tr);
}

/// Decodes a received message of abft_msg_elems<T>(payload_elems) elements.
template <typename T>
AbftDecodeResult abft_decode_msg(T* buf, i64 payload_elems) {
  if (payload_elems <= 0) return AbftDecodeResult{};
  return abft_decode(buf, payload_elems * static_cast<i64>(sizeof(T)),
                     buf + payload_elems);
}

}  // namespace ca3dmm::resilience
