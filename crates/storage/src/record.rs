//! The on-disk record format: length-prefixed, CRC32-protected binary
//! frames, each stamped with a **global sequence ticket**.
//!
//! ```text
//! ┌──────────┬──────────┬──────────┬───────────────┐
//! │ len: u32 │ crc: u32 │ seq: u64 │ payload bytes │  (integers little-endian)
//! └──────────┴──────────┴──────────┴───────────────┘
//! payload := tag: u8, fields...
//!   1 Begin    { txn: u64 }
//!   2 Op       { txn: u64, obj: u64, op: len-prefixed bytes }
//!   3 Commit   { txn: u64, ts: u64, ops: u32, prev: u64 }
//!   4 Abort    { txn: u64 }
//!   5 Register { id: u64, name: len-prefixed utf8 }
//! ```
//!
//! The `seq` ticket is allocated from one process-wide monotone counter.
//! Tickets are reserved *under the owning object's lock* for op records
//! (see `hcc-core`'s `RedoSink::reserve`), which is what keeps each
//! object's ticket order identical to its execution order even though
//! the physical append happens outside the lock: the log is one file
//! stream, but its frames may sit out of ticket order, and every reader
//! sorts on `seq`.
//!
//! Commit records carry the number of op records their transaction logged
//! (`ops`). A commit that outlives one of its ops — a lost segment, a
//! replica feed that skipped a frame — is detected by the count, and
//! recovery drops the txn as *incompletely durable* (see
//! `store::recover`) instead of replaying half a transaction.
//!
//! Commit records also carry `prev` — the ticket of the commit record
//! chained just before them, store-wide: the **commit chain**. Chain
//! order is fixed when the ticket is reserved; the append happens later,
//! so a later-chained commit can reach the file first and survive a
//! crash tail that takes its predecessor — silently dropping an *earlier
//! acknowledged* commit while keeping a later one that observed its
//! effects. Recovery walks the chain from the checkpoint's watermark and
//! accepts only commits whose every predecessor survives (an abort
//! record that reused a failed commit's ticket also links) — which is
//! exactly the durable-prefix property of the history, not merely of the
//! file.
//!
//! Op records reference objects by **registry id** — a compact u64 the
//! store assigns the first time a name is logged against — instead of
//! repeating the name string per operation. The id→name binding is itself
//! a durable `Register` record appended before any op using the id (so a
//! torn tail that keeps an op always keeps its binding); checkpoints
//! additionally carry the full binding table in their own file.
//!
//! The CRC covers the seq plus the payload; a frame whose length field,
//! CRC, or tag is implausible is treated as a torn tail when it is the
//! last thing in the log's last segment, and as corruption anywhere else.
//!
//! The frame envelope itself (CRC32, header layout, torn-tail detection)
//! lives in `hcc-wire::frame`, shared with the network protocol; this
//! module owns only the record payload encoding on top of it. The byte
//! format is pinned by `tests/framing_golden.rs`.

pub use hcc_wire::frame::{crc32, frame_crc, FrameError, HEADER_BYTES, MAX_PAYLOAD};

use hcc_wire::frame::{encode_frame_with, frame_at};

/// One durable log record. The `op` payload is opaque to the storage layer;
/// callers serialize operations however they like (the workspace uses
/// compact JSON).
#[derive(Clone, Debug, PartialEq)]
pub enum LogRecord {
    /// A transaction began.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// A transaction executed an operation at an object.
    Op {
        /// Transaction id.
        txn: u64,
        /// The object's registry id (bound to a name by a `Register`
        /// record).
        obj: u64,
        /// Serialized operation (opaque bytes).
        op: Vec<u8>,
    },
    /// The transaction committed with this timestamp.
    Commit {
        /// Transaction id.
        txn: u64,
        /// Commit timestamp.
        ts: u64,
        /// Number of op records the transaction logged. Recovery refuses
        /// to replay the transaction with fewer surviving ops.
        ops: u32,
        /// Ticket of the commit record chained just before this one
        /// (store-wide); 0 = the first commit ever. The commit chain
        /// recovery walks to reject holes.
        prev: u64,
    },
    /// The transaction aborted.
    Abort {
        /// Transaction id.
        txn: u64,
    },
    /// An object name was bound to a registry id (not transaction-scoped).
    Register {
        /// The registry id.
        id: u64,
        /// The object's name.
        name: String,
    },
}

impl LogRecord {
    /// The transaction this record belongs to (0 for `Register` records,
    /// which are not transaction-scoped; real transaction ids start at 1).
    pub fn txn(&self) -> u64 {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Op { txn, .. }
            | LogRecord::Commit { txn, .. }
            | LogRecord::Abort { txn } => *txn,
            LogRecord::Register { .. } => 0,
        }
    }

    /// Is this a completion (commit/abort) record?
    pub fn is_completion(&self) -> bool {
        matches!(self, LogRecord::Commit { .. } | LogRecord::Abort { .. })
    }
}

// ---- Encoding ----------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append the framed encoding of `rec`, stamped with ticket `seq`, to
/// `out`.
pub fn encode_into(rec: &LogRecord, seq: u64, out: &mut Vec<u8>) {
    encode_frame_with(seq, out, |payload| match rec {
        LogRecord::Begin { txn } => {
            payload.push(1);
            put_u64(payload, *txn);
        }
        LogRecord::Op { txn, obj, op } => {
            payload.push(2);
            put_u64(payload, *txn);
            put_u64(payload, *obj);
            put_bytes(payload, op);
        }
        LogRecord::Commit { txn, ts, ops, prev } => {
            payload.push(3);
            put_u64(payload, *txn);
            put_u64(payload, *ts);
            put_u32(payload, *ops);
            put_u64(payload, *prev);
        }
        LogRecord::Abort { txn } => {
            payload.push(4);
            put_u64(payload, *txn);
        }
        LogRecord::Register { id, name } => {
            payload.push(5);
            put_u64(payload, *id);
            put_bytes(payload, name.as_bytes());
        }
    });
}

/// The framed encoding of `rec` with ticket `seq`.
pub fn encode(rec: &LogRecord, seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    encode_into(rec, seq, &mut out);
    out
}

// ---- Decoding ----------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn len_bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()?;
        if n > MAX_PAYLOAD {
            return None;
        }
        self.take(n as usize)
    }
}

fn decode_payload(payload: &[u8]) -> Option<LogRecord> {
    let mut c = Cursor { bytes: payload, pos: 0 };
    let tag = *c.take(1)?.first()?;
    let rec = match tag {
        1 => LogRecord::Begin { txn: c.u64()? },
        2 => {
            let txn = c.u64()?;
            let obj = c.u64()?;
            let op = c.len_bytes()?.to_vec();
            LogRecord::Op { txn, obj, op }
        }
        3 => LogRecord::Commit { txn: c.u64()?, ts: c.u64()?, ops: c.u32()?, prev: c.u64()? },
        4 => LogRecord::Abort { txn: c.u64()? },
        5 => {
            let id = c.u64()?;
            let name = String::from_utf8(c.len_bytes()?.to_vec()).ok()?;
            LogRecord::Register { id, name }
        }
        _ => return None,
    };
    if c.pos != payload.len() {
        return None; // trailing junk inside the frame
    }
    Some(rec)
}

/// Decode one frame at `bytes[offset..]`, returning its ticket, the
/// record, and the offset just past it.
pub fn decode_at(bytes: &[u8], offset: usize) -> Result<(u64, LogRecord, usize), FrameError> {
    let (seq, payload, next) = frame_at(bytes, offset)?;
    match decode_payload(payload) {
        Some(rec) => Ok((seq, rec, next)),
        None => Err(FrameError::Malformed),
    }
}

/// A record's metadata, decodable without materializing object names or
/// op payloads — for cheap watermark scans over large logs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordMeta {
    /// The record's global sequence ticket.
    pub seq: u64,
    /// The transaction the record belongs to (0 for `Register` records).
    pub txn: u64,
    /// `Some(ts)` for commit records.
    pub commit_ts: Option<u64>,
    /// Is this a `Register` record? (Callers needing the binding do a full
    /// decode of just that frame — registrations are rare.)
    pub register: bool,
}

/// Allocation-free mirror of [`decode_payload`]: accepts exactly the
/// payloads the full decoder accepts (field lengths and UTF-8 included),
/// so a frame that passes a metadata scan can never fail a record scan.
fn meta_from_payload(seq: u64, payload: &[u8]) -> Option<RecordMeta> {
    if payload.len() < 9 {
        return None;
    }
    let txn = u64::from_le_bytes(payload[1..9].try_into().unwrap());
    let get_len = |at: usize| -> Option<usize> {
        payload.get(at..at + 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize)
    };
    match payload[0] {
        1 | 4 if payload.len() == 9 => {
            Some(RecordMeta { seq, txn, commit_ts: None, register: false })
        }
        2 => {
            let op_len = get_len(17)?;
            (payload.len() == 21 + op_len).then_some(RecordMeta {
                seq,
                txn,
                commit_ts: None,
                register: false,
            })
        }
        3 if payload.len() == 29 => {
            let ts = u64::from_le_bytes(payload[9..17].try_into().unwrap());
            Some(RecordMeta { seq, txn, commit_ts: Some(ts), register: false })
        }
        5 => {
            let name_len = get_len(9)?;
            let name = payload.get(13..13 + name_len)?;
            std::str::from_utf8(name).ok()?;
            (payload.len() == 13 + name_len).then_some(RecordMeta {
                seq,
                txn: 0,
                commit_ts: None,
                register: true,
            })
        }
        _ => None,
    }
}

/// Decode one frame's metadata at `bytes[offset..]` (CRC and payload shape
/// still fully verified), returning it and the offset just past the frame.
pub fn decode_meta_at(bytes: &[u8], offset: usize) -> Result<(RecordMeta, usize), FrameError> {
    let (seq, payload, next) = frame_at(bytes, offset)?;
    match meta_from_payload(seq, payload) {
        Some(meta) => Ok((meta, next)),
        None => Err(FrameError::Malformed),
    }
}

/// Walk the whole frames of one segment image front to back: yields each
/// frame's metadata with its byte range and ends at the first frame that
/// fails to decode, which [`MetaWalk::error`] then reports.
pub fn walk_meta(bytes: &[u8]) -> MetaWalk<'_> {
    MetaWalk { bytes, at: 0, error: None }
}

/// The iterator behind [`walk_meta`].
pub struct MetaWalk<'a> {
    bytes: &'a [u8],
    at: usize,
    error: Option<FrameError>,
}

impl MetaWalk<'_> {
    /// The decode error that ended the walk; `None` while frames remain
    /// or when the image ended exactly on a frame boundary.
    pub fn error(&self) -> Option<&FrameError> {
        self.error.as_ref()
    }
}

impl Iterator for MetaWalk<'_> {
    type Item = (RecordMeta, std::ops::Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.error.is_some() || self.at >= self.bytes.len() {
            return None;
        }
        match decode_meta_at(self.bytes, self.at) {
            Ok((meta, next)) => {
                let range = self.at..next;
                self.at = next;
                Some((meta, range))
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Decode every complete frame in `bytes`. Returns `(seq, record)` pairs
/// plus the error that stopped the scan, if any (`None` means the buffer
/// ended exactly on a frame boundary).
pub fn decode_all(bytes: &[u8]) -> (Vec<(u64, LogRecord)>, Option<FrameError>) {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        match decode_at(bytes, pos) {
            Ok((seq, rec, next)) => {
                out.push((seq, rec));
                pos = next;
            }
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<LogRecord> {
        vec![
            LogRecord::Register { id: 1, name: "acct".into() },
            LogRecord::Begin { txn: 1 },
            LogRecord::Op { txn: 1, obj: 1, op: br#"{"credit":5}"#.to_vec() },
            LogRecord::Commit { txn: 1, ts: 42, ops: 1, prev: 0 },
            LogRecord::Abort { txn: 2 },
        ]
    }

    fn encode_sample() -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for (i, r) in sample().iter().enumerate() {
            encode_into(r, i as u64 + 1, &mut buf);
            boundaries.push(buf.len());
        }
        (buf, boundaries)
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn roundtrip_preserves_records_and_tickets() {
        let (buf, _) = encode_sample();
        let (recs, err) = decode_all(&buf);
        assert_eq!(err, None);
        let seqs: Vec<u64> = recs.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        let records: Vec<LogRecord> = recs.into_iter().map(|(_, r)| r).collect();
        assert_eq!(records, sample());
    }

    #[test]
    fn torn_tail_detected() {
        let (buf, boundaries) = encode_sample();
        for cut in 1..buf.len() {
            let len = buf.len() - cut;
            let (recs, err) = decode_all(&buf[..len]);
            if let Some(whole) = boundaries.iter().position(|&b| b == len) {
                // A cut on a frame boundary is a clean, shorter log.
                assert_eq!(recs.len(), whole, "cut {cut} on boundary");
                assert_eq!(err, None, "cut {cut} on boundary");
            } else {
                // Mid-frame cuts lose exactly the torn frame and are flagged.
                assert!(err.is_some(), "cut {cut} must be flagged");
                let whole = boundaries.iter().filter(|&&b| b <= len).count() - 1;
                assert_eq!(recs.len(), whole, "cut {cut} record count");
            }
        }
    }

    #[test]
    fn meta_walk_yields_frame_ranges_and_reports_the_first_bad_frame() {
        let (mut buf, boundaries) = encode_sample();
        let ranges: Vec<_> = walk_meta(&buf).map(|(meta, range)| (meta.seq, range)).collect();
        let expected: Vec<_> =
            boundaries.windows(2).enumerate().map(|(i, w)| (i as u64 + 1, w[0]..w[1])).collect();
        assert_eq!(ranges, expected);

        // Damage inside the third frame: two whole frames, then the error.
        buf[boundaries[2] + HEADER_BYTES] ^= 0x01;
        let mut walk = walk_meta(&buf);
        assert_eq!(walk.by_ref().last().map(|(_, range)| range.end), Some(boundaries[2]));
        assert_eq!(walk.error(), Some(&FrameError::BadCrc));
        assert!(walk.next().is_none(), "the walk stays ended past the bad frame");
    }

    #[test]
    fn flipped_bit_fails_crc() {
        let mut buf = encode(&LogRecord::Commit { txn: 9, ts: 7, ops: 0, prev: 0 }, 3);
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let (recs, err) = decode_all(&buf);
        assert!(recs.is_empty());
        assert_eq!(err, Some(FrameError::BadCrc));
    }

    /// The CRC covers the seq field too: a flipped ticket bit cannot
    /// silently reorder the merged replay.
    #[test]
    fn flipped_seq_bit_fails_crc() {
        let mut buf = encode(&LogRecord::Begin { txn: 1 }, 77);
        buf[8] ^= 0x01; // low byte of the seq field
        let (_, err) = decode_all(&buf);
        assert_eq!(err, Some(FrameError::BadCrc));
    }

    #[test]
    fn garbage_length_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let (recs, err) = decode_all(&buf);
        assert!(recs.is_empty());
        assert_eq!(err, Some(FrameError::BadLength(u32::MAX)));
    }

    /// The metadata decoder must accept and reject exactly what the full
    /// decoder does — a frame that survives an open-time tail-repair scan
    /// can never be refused by recovery.
    #[test]
    fn meta_decoder_agrees_with_full_decoder() {
        let mut cases: Vec<Vec<u8>> = sample()
            .iter()
            .map(|r| {
                let e = encode(r, 9);
                e[HEADER_BYTES..].to_vec() // payload only
            })
            .collect();
        // Payloads with trailing junk, short fields, bad UTF-8, bad tags.
        for base in cases.clone() {
            let mut longer = base.clone();
            longer.push(0);
            cases.push(longer);
            if base.len() > 9 {
                cases.push(base[..base.len() - 1].to_vec());
            }
        }
        cases.push(vec![5, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xFF]); // bad UTF-8 name
        cases.push(vec![2, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0xFF, 0, 0, 0, 0]); // short Op
        cases.push(vec![99, 0, 0, 0, 0, 0, 0, 0, 0]);
        for payload in cases {
            let seq = 9u64;
            let mut frame = Vec::new();
            frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            frame.extend_from_slice(&frame_crc(seq, &payload).to_le_bytes());
            frame.extend_from_slice(&seq.to_le_bytes());
            frame.extend_from_slice(&payload);
            let full = decode_at(&frame, 0);
            let meta = decode_meta_at(&frame, 0);
            assert_eq!(
                full.is_ok(),
                meta.is_ok(),
                "decoders disagree on payload {payload:?}: full={full:?} meta={meta:?}"
            );
            if let (Ok((fseq, rec, a)), Ok((m, b))) = (&full, &meta) {
                assert_eq!(a, b);
                assert_eq!(m.seq, *fseq);
                assert_eq!(m.txn, rec.txn());
                let ts = match rec {
                    LogRecord::Commit { ts, .. } => Some(*ts),
                    _ => None,
                };
                assert_eq!(m.commit_ts, ts);
            }
        }
    }

    #[test]
    fn unknown_tag_is_malformed() {
        let payload = [99u8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&frame_crc(4, &payload).to_le_bytes());
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&payload);
        let (_, err) = decode_all(&buf);
        assert_eq!(err, Some(FrameError::Malformed));
    }
}
