//! The shared binary frame envelope: length-prefixed, CRC32-protected,
//! sequence-stamped.
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬───────────────┐
//! │ len: u32 │ crc: u32 │ seq: u64 │ payload bytes │  (integers little-endian)
//! └──────────┴──────────┴──────────┴───────────────┘
//! ```
//!
//! One implementation, two consumers:
//!
//! * the **WAL** (`hcc-storage::record`) frames log records with it —
//!   `seq` is the global append ticket, and a failed decode at the
//!   log's tail is a torn-tail crash artifact;
//! * the **network protocol** (`crate::conn`) frames requests and
//!   responses with it — `seq` is the request id responses echo, and a
//!   failed decode means the peer (or the path to it) is lying: the
//!   session is closed rather than resynchronized by guesswork.
//!
//! The CRC covers `seq_le || payload`, so neither a flipped payload bit
//! nor a flipped sequence bit passes. The byte format is pinned by
//! `crates/storage/tests/framing_golden.rs`: existing WAL images must
//! replay byte-for-byte across refactors of this module.

/// Upper bound on one frame's payload (guards against reading a garbage
/// length field as an allocation size). WAL callers accept up to this;
/// network callers enforce the much smaller negotiated
/// [`crate::MAX_WIRE_PAYLOAD`] *before* allocating.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Bytes of frame header before the payload: len + crc + seq.
pub const HEADER_BYTES: usize = 16;

// ---- CRC32 (IEEE 802.3, the zlib polynomial) ---------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *entry = c;
        }
        table
    })
}

fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let table = crc32_table();
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// IEEE CRC32 of `seq_le || payload` — what a frame's CRC field protects.
pub fn frame_crc(seq: u64, payload: &[u8]) -> u32 {
    let c = crc32_update(0xFFFF_FFFF, &seq.to_le_bytes());
    crc32_update(c, payload) ^ 0xFFFF_FFFF
}

/// Why a frame could not be decoded at some offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than a header needs — clean EOF when 0 remain,
    /// torn header otherwise.
    Truncated,
    /// The length field exceeds the caller's payload bound (garbage
    /// header, or a peer pushing past its negotiated limit).
    BadLength(u32),
    /// The payload's CRC does not match the header.
    BadCrc,
    /// The payload's tag byte is unknown or its fields are malformed.
    Malformed,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated mid-header or mid-payload"),
            FrameError::BadLength(len) => {
                write!(f, "frame length field {len} exceeds the payload bound")
            }
            FrameError::BadCrc => write!(f, "frame CRC mismatch"),
            FrameError::Malformed => write!(f, "frame payload is malformed"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Append the frame envelope around `payload`, stamped `seq`, to `out`.
pub fn encode_frame_into(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(seq, out, |out| out.extend_from_slice(payload));
}

/// Append one frame stamped `seq` to `out`, its payload being whatever
/// `payload` appends — encoded in place behind a header that is filled
/// in afterwards, so no payload buffer is allocated on the way.
pub fn encode_frame_with(seq: u64, out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; HEADER_BYTES]);
    payload(out);
    let body = start + HEADER_BYTES;
    let len = (out.len() - body) as u32;
    let crc = frame_crc(seq, &out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    out[start + 8..body].copy_from_slice(&seq.to_le_bytes());
}

/// Extract one frame's CRC-verified `(seq, payload)` at `bytes[offset..]`,
/// plus the offset just past the frame, accepting payloads up to
/// `max_payload` bytes.
pub fn frame_at_bounded(
    bytes: &[u8],
    offset: usize,
    max_payload: u32,
) -> Result<(u64, &[u8], usize), FrameError> {
    let remaining = &bytes[offset.min(bytes.len())..];
    if remaining.len() < HEADER_BYTES {
        return Err(FrameError::Truncated);
    }
    let len = u32::from_le_bytes(remaining[0..4].try_into().unwrap());
    if len > max_payload {
        return Err(FrameError::BadLength(len));
    }
    let crc = u32::from_le_bytes(remaining[4..8].try_into().unwrap());
    let seq = u64::from_le_bytes(remaining[8..16].try_into().unwrap());
    let end = HEADER_BYTES + len as usize;
    if remaining.len() < end {
        return Err(FrameError::Truncated);
    }
    let payload = &remaining[HEADER_BYTES..end];
    if frame_crc(seq, payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((seq, payload, offset + end))
}

/// [`frame_at_bounded`] at the permissive [`MAX_PAYLOAD`] bound — the
/// WAL's decoder entry point.
pub fn frame_at(bytes: &[u8], offset: usize) -> Result<(u64, &[u8], usize), FrameError> {
    frame_at_bounded(bytes, offset, MAX_PAYLOAD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn envelope_roundtrips() {
        let mut buf = Vec::new();
        encode_frame_into(7, b"hello", &mut buf);
        encode_frame_into(8, b"", &mut buf);
        let (seq, payload, next) = frame_at(&buf, 0).unwrap();
        assert_eq!((seq, payload), (7, &b"hello"[..]));
        let (seq, payload, end) = frame_at(&buf, next).unwrap();
        assert_eq!((seq, payload), (8, &b""[..]));
        assert_eq!(end, buf.len());
        assert_eq!(frame_at(&buf, end), Err(FrameError::Truncated), "clean EOF");
    }

    #[test]
    fn flipped_seq_or_payload_bit_fails_crc() {
        let mut buf = Vec::new();
        encode_frame_into(3, b"payload", &mut buf);
        let mut seq_flip = buf.clone();
        seq_flip[8] ^= 0x01;
        assert_eq!(frame_at(&seq_flip, 0), Err(FrameError::BadCrc));
        let mut payload_flip = buf.clone();
        let last = payload_flip.len() - 1;
        payload_flip[last] ^= 0x01;
        assert_eq!(frame_at(&payload_flip, 0), Err(FrameError::BadCrc));
    }

    #[test]
    fn bounded_decode_refuses_oversized_length_without_allocating() {
        let mut buf = Vec::new();
        encode_frame_into(1, &[0u8; 64], &mut buf);
        assert!(frame_at_bounded(&buf, 0, 64).is_ok());
        assert_eq!(frame_at_bounded(&buf, 0, 63), Err(FrameError::BadLength(64)));
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&u32::MAX.to_le_bytes());
        garbage.extend_from_slice(&[0u8; 12]);
        assert_eq!(frame_at(&garbage, 0), Err(FrameError::BadLength(u32::MAX)));
    }

    #[test]
    fn torn_tail_is_truncated_not_garbage() {
        let mut buf = Vec::new();
        encode_frame_into(5, b"abcdef", &mut buf);
        for cut in 1..buf.len() {
            assert_eq!(
                frame_at(&buf[..buf.len() - cut], 0),
                Err(FrameError::Truncated),
                "cut {cut}"
            );
        }
    }
}
