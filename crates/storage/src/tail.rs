//! Tailing a live WAL: incremental, ticket-ordered frame export.
//!
//! The replication shipper needs the log **in global ticket order**, but
//! a ticket is reserved (under the lock that orders it) *before* its
//! frame is appended (outside that lock) — so the file is not
//! ticket-sorted, and at any instant its tail may be missing a ticket
//! while higher ones are already visible. [`WalTailer`] owns a byte
//! cursor into the log, decodes newly appended frames on every
//! [`WalTailer::poll`], buffers them by ticket, and releases only the
//! **contiguous prefix**: a frame is emitted exactly once, after every
//! lower ticket has been emitted.
//!
//! Frames are captured as raw envelope bytes (`len|crc|seq|payload`),
//! not re-encoded — the follower appends what the primary wrote, and the
//! converged log prefix is byte-identical once sorted by ticket.
//!
//! ## Gaps
//!
//! Three ways a ticket can be missing at the contiguity frontier:
//!
//! * **in flight** — reserved, not yet flushed. Microseconds; the next
//!   poll finds it. This is the common case and why the tailer waits.
//! * **never coming** — a transaction reserved the ticket and then hit
//!   an append failure and aborted, or the ticket is below the log's
//!   pruned floor. Waiting forever would wedge the stream, so after
//!   [`TailOptions::gap_patience`] consecutive polls without progress
//!   the tailer skips to the next ticket it actually holds and counts
//!   the jump in [`WalTailer::gaps_skipped`].
//! * **pruned mid-tail** — compaction deleted a segment below the cursor.
//!   Replication sources should run with pruning off (or a follower
//!   bootstraps from a checkpoint first — a ROADMAP follow-up); the
//!   tailer surfaces the vanished file as an error instead of guessing.
//!
//! Visibility follows the writer's flush discipline: begin, op, register
//! and abort records ride a process buffer at every level and reach the
//! file with the next completion record's write under `Buffered` (or the
//! next group flush under `Fsync`), while `Durability::None` may hold
//! several KiB back indefinitely — which is why replication is specified
//! for the buffered/fsync modes. A record whose ticket is overtaken — a
//! higher one already on file — is written at once, so a gap the tailer
//! sees is an append in flight, not a record parked in the buffer.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::record;
use crate::wal::{list_segments, segment_path, stream_dir};
use crate::StorageError;
use hcc_wire::frame::FrameError;

/// Tunables for a [`WalTailer`].
#[derive(Clone, Copy, Debug)]
pub struct TailOptions {
    /// Consecutive no-progress polls at a ticket gap before the tailer
    /// declares the missing ticket dead and skips it.
    pub gap_patience: u32,
}

impl Default for TailOptions {
    fn default() -> TailOptions {
        TailOptions { gap_patience: 50 }
    }
}

/// One exported frame: its ticket and its raw envelope bytes.
pub type TailedFrame = (u64, Vec<u8>);

/// An incremental, ticket-ordered reader over a (possibly live) WAL
/// directory. See the module docs for the contract.
pub struct WalTailer {
    /// The directory of segment files.
    stream: PathBuf,
    /// The byte cursor: the segment being read and the offset of the
    /// first byte not yet consumed (always a frame boundary).
    seg_index: u64,
    offset: u64,
    /// Decoded-but-not-yet-contiguous frames, keyed by ticket.
    pending: BTreeMap<u64, Vec<u8>>,
    /// The next ticket to emit.
    next: u64,
    /// Highest ticket seen on disk so far.
    frontier: u64,
    /// Consecutive polls that made no emission progress while pending
    /// frames sat above a gap.
    stalled: u32,
    /// Tickets skipped as permanently missing.
    gaps_skipped: u64,
    opts: TailOptions,
}

impl WalTailer {
    /// Open a tailer over `dir` that will emit every frame with ticket
    /// strictly greater than `after`, in ticket order. Existing segments
    /// are scanned immediately (the catch-up); frames at or below
    /// `after` are counted into the frontier but not buffered.
    pub fn new(
        dir: impl AsRef<Path>,
        after: u64,
        opts: TailOptions,
    ) -> Result<WalTailer, StorageError> {
        let stream = stream_dir(dir.as_ref())?;
        // A log not yet opened by its writer starts at segment 1.
        let seg_index = list_segments(&stream)?.first().map_or(1, |(i, _)| *i);
        Ok(WalTailer {
            stream,
            seg_index,
            offset: 0,
            pending: BTreeMap::new(),
            next: after + 1,
            frontier: after,
            stalled: 0,
            gaps_skipped: 0,
            opts,
        })
    }

    /// Highest ticket observed on disk (shipped or not).
    pub fn frontier(&self) -> u64 {
        self.frontier
    }

    /// The next ticket [`WalTailer::poll`] would emit.
    pub fn next_ticket(&self) -> u64 {
        self.next
    }

    /// Tickets abandoned as permanently missing (reserved but never
    /// appended — an aborted transaction's failed op append).
    pub fn gaps_skipped(&self) -> u64 {
        self.gaps_skipped
    }

    /// Read newly appended complete frames off the log and return the
    /// released contiguous run of tickets, oldest first. An empty result
    /// means nothing new is both visible and contiguous yet.
    pub fn poll(&mut self) -> Result<Vec<TailedFrame>, StorageError> {
        self.read_appended()?;
        let mut out = Vec::new();
        while let Some(bytes) = self.pending.remove(&self.next) {
            out.push((self.next, bytes));
            self.next += 1;
        }
        if out.is_empty() && !self.pending.is_empty() {
            // Frames are waiting above a gap. Give the in-flight writer
            // time, then declare the hole permanent and jump it.
            self.stalled += 1;
            if self.stalled > self.opts.gap_patience {
                let (&first, _) = self.pending.iter().next().expect("pending is non-empty");
                self.gaps_skipped += first - self.next;
                self.next = first;
                while let Some(bytes) = self.pending.remove(&self.next) {
                    out.push((self.next, bytes));
                    self.next += 1;
                }
                self.stalled = 0;
            }
        } else {
            self.stalled = 0;
        }
        Ok(out)
    }

    fn read_appended(&mut self) -> Result<(), StorageError> {
        loop {
            let (offset, seg_index) = (self.offset, self.seg_index);
            let path = segment_path(&self.stream, seg_index);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Either the log hasn't written its first segment
                    // yet, or compaction pruned under our cursor.
                    let segments = list_segments(&self.stream)?;
                    match segments.first() {
                        None => return Ok(()),
                        Some((first, _)) if *first > seg_index && offset == 0 => {
                            // We never read a byte of the pruned range …
                            // but pruning only deletes segments whose
                            // records are checkpointed, i.e. tickets we
                            // were expected to ship. Surface it.
                            return Err(StorageError::Io(std::io::Error::new(
                                std::io::ErrorKind::NotFound,
                                format!(
                                    "segment {seg_index} of {} was pruned under the replication \
                                     tailer; run the replicated store with compaction off",
                                    self.stream.display()
                                ),
                            )));
                        }
                        Some(_) => return Ok(()),
                    }
                }
                Err(e) => return Err(e.into()),
            };
            let mut at = offset as usize;
            while at < bytes.len() {
                match record::decode_at(&bytes, at) {
                    Ok((seq, _rec, end)) => {
                        self.frontier = self.frontier.max(seq);
                        if seq >= self.next && !self.pending.contains_key(&seq) {
                            self.pending.insert(seq, bytes[at..end].to_vec());
                        }
                        at = end;
                    }
                    // Truncated: a torn tail mid-append (wait for the
                    // rest). BadCrc/Malformed at the very tail can also
                    // be a read racing a buffered writer mid-flush —
                    // re-read next poll; if it is real corruption the
                    // stream stalls visibly instead of shipping garbage.
                    Err(FrameError::Truncated)
                    | Err(FrameError::BadCrc)
                    | Err(FrameError::Malformed)
                    | Err(FrameError::BadLength(_)) => break,
                }
            }
            self.offset = at as u64;
            if at == bytes.len() {
                // Clean end of this segment: advance to the next one if
                // rotation already created it, else wait here.
                let segments = list_segments(&self.stream)?;
                match segments.iter().find(|(idx, _)| *idx > seg_index) {
                    // Rotation finishes a segment before it creates the
                    // next, so this one is final now — but it may have
                    // grown between our read and the rotation; leave it
                    // only once all of it is consumed.
                    Some(_) if fs::metadata(&path)?.len() > bytes.len() as u64 => {}
                    Some((next_idx, _)) => {
                        self.seg_index = *next_idx;
                        self.offset = 0;
                    }
                    None => return Ok(()),
                }
            } else {
                // Mid-frame tail: wait for the writer.
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{SegmentedWal, WalOptions};
    use crate::LogRecord;
    use hcc_core::runtime::Durability;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-tail-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn opts() -> WalOptions {
        WalOptions { segment_max_bytes: 256, ..WalOptions::default() }
    }

    fn append_txn(wal: &SegmentedWal, txn: u64, obj: u64, ts: u64) {
        wal.append_begin(txn).unwrap();
        let seq = wal.reserve();
        wal.append_op(seq, txn, obj, format!("op-{txn}").as_bytes()).unwrap();
        wal.commit_txn(txn, ts).unwrap();
    }

    /// Several threads reserve tickets and append outside any common
    /// lock, so the file holds them out of ticket order (and rotates
    /// underneath the tailer); what the tailer releases is the
    /// contiguous ticket sequence all the same.
    #[test]
    fn tails_out_of_ticket_order_appends_in_ticket_order_across_rotations() {
        let dir = tmp("order");
        let wal = std::sync::Arc::new(SegmentedWal::open(&dir, opts()).unwrap());
        // Every gap here is an append in flight; a tight poll loop must
        // not outrun an fsync and give up on one.
        let patient = TailOptions { gap_patience: u32::MAX };
        let mut tailer = WalTailer::new(&dir, 0, patient).unwrap();
        let mut got: Vec<u64> = Vec::new();
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let wal = wal.clone();
                std::thread::spawn(move || {
                    for i in 0..10u64 {
                        let txn = t * 10 + i + 1;
                        // Hold the reserved ticket back across the begin
                        // record, so a higher ticket lands first.
                        let seq = wal.reserve();
                        wal.append_begin(txn).unwrap();
                        wal.append_op(seq, txn, t, format!("op-{txn}").as_bytes()).unwrap();
                        wal.commit_txn(txn, txn).unwrap();
                    }
                })
            })
            .collect();
        while writers.iter().any(|w| !w.is_finished()) {
            for (seq, bytes) in tailer.poll().unwrap() {
                // Every emitted frame re-decodes to its ticket.
                let (dseq, _rec, used) = record::decode_at(&bytes, 0).unwrap();
                assert_eq!((dseq, used), (seq, bytes.len()));
                got.push(seq);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        wal.sync().unwrap();
        loop {
            let more = tailer.poll().unwrap();
            if more.is_empty() {
                break;
            }
            got.extend(more.iter().map(|(s, _)| *s));
        }
        let expect: Vec<u64> = (1..wal.current_ticket()).collect();
        assert_eq!(got, expect, "contiguous ticket order, nothing lost or duplicated");
        assert_eq!(tailer.gaps_skipped(), 0);
        let segments = crate::wal::segments(&dir).unwrap();
        assert!(segments.len() > 2, "the log rotated under the tailer");
        let physical: Vec<u64> = segments
            .iter()
            .flat_map(|(_, p)| record::decode_all(&fs::read(p).unwrap()).0)
            .map(|(seq, _)| seq)
            .collect();
        assert_ne!(physical, expect, "the file itself is not ticket-ordered");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catch_up_starts_strictly_after_the_resume_ticket() {
        let dir = tmp("resume");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        for txn in 1..=10u64 {
            append_txn(&wal, txn, txn, txn);
        }
        wal.sync().unwrap();
        let cut = 7;
        let mut tailer = WalTailer::new(&dir, cut, TailOptions::default()).unwrap();
        let mut got = Vec::new();
        loop {
            let more = tailer.poll().unwrap();
            if more.is_empty() {
                break;
            }
            got.extend(more.iter().map(|(s, _)| *s));
        }
        let expect: Vec<u64> = (cut + 1..wal.current_ticket()).collect();
        assert_eq!(got, expect);
        assert_eq!(tailer.frontier(), wal.current_ticket() - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn permanent_gap_is_skipped_after_patience_runs_out() {
        let dir = tmp("gap");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        append_txn(&wal, 1, 1, 1);
        // Burn a ticket that will never be appended (a failed op append
        // whose transaction aborted).
        let _dead = wal.reserve();
        let after = wal.reserve();
        wal.append_op(after, 9, 1, b"late").unwrap();
        wal.sync().unwrap();
        let mut tailer = WalTailer::new(&dir, 0, TailOptions { gap_patience: 3 }).unwrap();
        let mut got = Vec::new();
        for _ in 0..10 {
            got.extend(tailer.poll().unwrap().iter().map(|(s, _)| *s));
        }
        assert!(got.contains(&after), "the frame past the dead ticket ships: {got:?}");
        assert_eq!(tailer.gaps_skipped(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An op published after its latch was released can find a higher
    /// ticket already on file. Under `Buffered` it must reach the file at
    /// once, not wait for a commit that an idle interactive transaction
    /// may never bring, or the tailer gives up on it as dead.
    #[test]
    fn overtaken_op_of_an_idle_transaction_is_not_skipped() {
        let dir = tmp("overtaken");
        let opts = WalOptions { durability: Durability::Buffered, ..opts() };
        let wal = SegmentedWal::open(&dir, opts).unwrap();
        wal.append_begin(1).unwrap();
        let op = wal.reserve();
        append_txn(&wal, 2, 2, 1);
        wal.append_op(op, 1, 1, b"late").unwrap();
        // Transaction 1 now sits idle: nothing else reaches the log.
        let mut tailer = WalTailer::new(&dir, 0, TailOptions { gap_patience: 3 }).unwrap();
        let mut got = Vec::new();
        for _ in 0..10 {
            got.extend(tailer.poll().unwrap().iter().map(|(s, _)| *s));
        }
        let expect: Vec<u64> = (1..wal.current_ticket()).collect();
        assert_eq!(got, expect, "every ticket ships, the overtaken op included");
        assert_eq!(tailer.gaps_skipped(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_bytes_are_held_back_until_completed() {
        let dir = tmp("torn");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        append_txn(&wal, 1, 1, 1);
        wal.sync().unwrap();
        let mut tailer = WalTailer::new(&dir, 0, TailOptions::default()).unwrap();
        let n_first = tailer.poll().unwrap().len();
        assert!(n_first >= 3, "begin+op+commit visible");
        // Hand-tear a half frame onto the active segment, at the next
        // contiguous ticket so release is not waiting on a gap.
        let next = wal.current_ticket();
        let (_, seg) = crate::wal::segments(&dir).unwrap().pop().unwrap();
        let full = record::encode(&LogRecord::Begin { txn: 99 }, next);
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        use std::io::Write as _;
        f.write_all(&full[..full.len() - 3]).unwrap();
        drop(f);
        assert!(tailer.poll().unwrap().is_empty(), "torn tail emits nothing");
        // Complete the frame: it ships.
        let mut f = fs::OpenOptions::new().append(true).open(&seg).unwrap();
        f.write_all(&full[full.len() - 3..]).unwrap();
        drop(f);
        let got = tailer.poll().unwrap();
        assert_eq!(got.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![next]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
