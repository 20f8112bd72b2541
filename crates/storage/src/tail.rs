//! Tailing the live WAL: incremental, ticket-ordered frame export.
//!
//! The replication shipper needs the log **in global ticket order**, but
//! a ticket is reserved (under the lock that orders it) *before* its
//! frame is appended (outside that lock), so the file is not
//! ticket-sorted: its tail may lack a ticket while higher ones are
//! visible. A [`WalTailer`] is built from the open log
//! ([`crate::DurableStore::tail`]). It keeps its segment open, reads only
//! what was appended since its last [`WalTailer::poll`], buffers frames
//! by ticket, and releases the **contiguous prefix**, each ticket once.
//! Frames stay raw envelope bytes (`len|crc|seq|payload`), so the
//! follower's log prefix is byte-identical to the primary's.
//!
//! ## The three facts
//!
//! The tailer never guesses. It moves past ticket `t` only on what the
//! log states, sampled before each read:
//!
//! * **`t` is on file.** A commit frame ships once the chain has settled
//!   at or past `t`: the abort that repairs a failed commit is written
//!   before the commit settles, and an abort at the same ticket wins over
//!   the commit — recovery's abort-wins rule. Other frames ship at once.
//! * **`t` is void** ([`crate::SegmentedWal::void`]): reserved and
//!   provably never written. It is passed.
//! * **`t` is held**: a failed commit in `failed_commits`, waiting for
//!   the abort that fills its slot. Nothing at or past it ships until
//!   then — a sick log stalls the stream visibly.
//!
//! Any other missing ticket is in flight; [`WalTailer::wait`] parks until
//! the log's next write, settle or void. Records ride the log's buffer to
//! the next completion record's write, except one whose ticket a higher
//! one on file overtook, which is written at once — so an idle
//! transaction never holds the stream, and every commit reaches the file
//! before it is acknowledged, at both durability levels. A segment
//! compaction deletes under the tailer is an error: replication sources
//! run with compaction off.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Read;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::record::{self, LogRecord};
use crate::wal::SegmentedWal;
use crate::StorageError;
use hcc_core::runtime::WakeToken;
use hcc_obs::Counter;
use hcc_wire::frame::FrameError;

/// An incremental, ticket-ordered reader over a live WAL. See the module
/// docs for the contract.
pub struct WalTailer {
    wal: Arc<SegmentedWal>,
    /// Woken by every write, settle and void of `wal`.
    wake: Arc<WakeToken>,
    /// The segment being read and its handle, positioned at the first
    /// byte not yet read (opened on first use).
    seg_index: u64,
    file: Option<File>,
    /// Bytes read past the last whole frame: a frame still being written.
    partial: Vec<u8>,
    /// Frames read but not yet released, by ticket, each marked when it
    /// is a commit record.
    pending: BTreeMap<u64, (bool, Vec<u8>)>,
    /// The next ticket to emit.
    next: u64,
    /// `repl.tail.bytes_read`: every byte this tailer read off the file.
    bytes_read: Arc<Counter>,
}

impl WalTailer {
    /// A tailer over `wal` that emits every frame with ticket strictly
    /// greater than `after`, in ticket order, starting from the lowest
    /// segment on disk.
    pub(crate) fn new(wal: Arc<SegmentedWal>, after: u64, bytes_read: Arc<Counter>) -> WalTailer {
        let wake = Arc::new(WakeToken::new());
        wal.attach_tailer(&wake);
        WalTailer {
            seg_index: wal.first_segment(),
            wal,
            wake,
            file: None,
            partial: Vec::new(),
            pending: BTreeMap::new(),
            next: after + 1,
            bytes_read,
        }
    }

    /// Read what was appended and return the released run of frames as
    /// `(ticket, envelope bytes)`, oldest first; empty when nothing new
    /// is releasable.
    pub fn poll(&mut self) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let facts = self.wal.tail_facts();
        self.read_appended(facts.segment)?;
        let mut out = Vec::new();
        while !facts.held.contains(&self.next) {
            match self.pending.get(&self.next) {
                Some(&(commit, _)) if commit && self.next > facts.settled => break,
                Some(_) => {
                    let (_, bytes) = self.pending.remove(&self.next).expect("just seen");
                    out.push((self.next, bytes));
                    self.next += 1;
                }
                None => match self.wal.void_end(self.next) {
                    Some(end) => self.next = end,
                    None => break,
                },
            }
        }
        Ok(out)
    }

    /// Park until the log's next write, settle or void (or one since the
    /// last wait), or until `timeout` passes.
    pub fn wait(&self, timeout: Duration) {
        self.wake.park(Some(Instant::now() + timeout));
    }

    /// Read to the end of the file, segment by segment up to `active`
    /// (sampled before this read, so every segment below it is finished:
    /// rotation writes all of a segment before the index moves on).
    fn read_appended(&mut self, active: u64) -> Result<(), StorageError> {
        loop {
            if self.file.is_none() {
                let path = self.wal.segment_file(self.seg_index);
                let file = File::open(&path).map_err(|e| {
                    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
                })?;
                self.file = Some(file);
            }
            let file = self.file.as_mut().expect("opened above");
            let before = self.partial.len();
            file.read_to_end(&mut self.partial)?;
            self.bytes_read.add((self.partial.len() - before) as u64);
            let used = self.take_frames()?;
            self.partial.drain(..used);
            if self.seg_index >= active {
                return Ok(());
            }
            if !self.partial.is_empty() {
                return Err(self.corrupt("a finished segment ends mid-frame".into()));
            }
            self.seg_index += 1;
            self.file = None;
        }
    }

    /// Buffer the whole frames at the front of `partial`; returns the
    /// bytes they span. The file holds a prefix of what was written, so
    /// a short frame is still being written, and any other decode
    /// failure is corruption.
    fn take_frames(&mut self) -> Result<usize, StorageError> {
        let mut at = 0;
        while at < self.partial.len() {
            let (seq, rec, end) = match record::decode_at(&self.partial, at) {
                Ok(frame) => frame,
                Err(FrameError::Truncated) => break,
                Err(e) => return Err(self.corrupt(format!("{e:?} in the live log"))),
            };
            if seq >= self.next {
                let frame =
                    (matches!(rec, LogRecord::Commit { .. }), self.partial[at..end].to_vec());
                if matches!(rec, LogRecord::Abort { .. }) {
                    // Abort wins over a commit at the same ticket.
                    self.pending.insert(seq, frame);
                } else {
                    self.pending.entry(seq).or_insert(frame);
                }
            }
            at = end;
        }
        Ok(at)
    }

    fn corrupt(&self, detail: String) -> StorageError {
        StorageError::Corrupt { segment: self.seg_index, detail }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{Durability, WalOptions};
    use hcc_obs::Registry;
    use std::fs;
    use std::path::PathBuf;
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

    fn open(dir: &PathBuf, opts: WalOptions) -> Arc<SegmentedWal> {
        Arc::new(SegmentedWal::open(dir, opts).unwrap())
    }

    fn tail(wal: &Arc<SegmentedWal>, after: u64) -> WalTailer {
        WalTailer::new(wal.clone(), after, Registry::new().counter("repl.tail.bytes_read"))
    }

    fn append_txn(wal: &SegmentedWal, txn: u64, obj: u64, ts: u64) {
        wal.append_begin(txn).unwrap();
        let seq = wal.reserve();
        wal.append_op(seq, txn, obj, format!("op-{txn}").as_bytes()).unwrap();
        wal.commit_txn(txn, ts).unwrap();
    }

    /// Poll until a poll releases nothing; the tickets released.
    fn drain(tailer: &mut WalTailer) -> Vec<u64> {
        let mut got = Vec::new();
        loop {
            let more = tailer.poll().unwrap();
            if more.is_empty() {
                return got;
            }
            got.extend(more.iter().map(|(s, _)| *s));
        }
    }

    /// Poll until nothing more is released; the frames released, as
    /// `(ticket, record)`.
    fn drain_records(tailer: &mut WalTailer) -> Vec<(u64, LogRecord)> {
        let mut got = Vec::new();
        loop {
            let more = tailer.poll().unwrap();
            if more.is_empty() {
                return got;
            }
            for (seq, bytes) in more {
                let (dseq, rec, used) = record::decode_at(&bytes, 0).unwrap();
                assert_eq!((dseq, used), (seq, bytes.len()));
                got.push((seq, rec));
            }
        }
    }

    /// Several threads reserve tickets and append outside any common
    /// lock, so the file holds them out of ticket order (and rotates
    /// underneath the tailer); what the tailer releases is the
    /// contiguous ticket sequence all the same.
    #[test]
    fn tails_out_of_ticket_order_appends_in_ticket_order_across_rotations() {
        let dir = tmp("order");
        let wal = open(&dir, opts());
        let mut tailer = tail(&wal, 0);
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
        got.extend(drain(&mut tailer));
        let expect: Vec<u64> = (1..wal.current_ticket()).collect();
        assert_eq!(got, expect, "contiguous ticket order, nothing lost or duplicated");
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
        let wal = open(&dir, opts());
        for txn in 1..=10u64 {
            append_txn(&wal, txn, txn, txn);
        }
        wal.sync().unwrap();
        let cut = 7;
        let mut tailer = tail(&wal, cut);
        let expect: Vec<u64> = (cut + 1..wal.current_ticket()).collect();
        assert_eq!(drain(&mut tailer), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_void_ticket_is_passed_on_the_first_poll_after_it_is_voided() {
        let dir = tmp("void");
        let wal = open(&dir, opts());
        append_txn(&wal, 1, 1, 1);
        // A ticket whose append will fail, and a frame behind it.
        let dead = wal.reserve();
        let after = wal.reserve();
        wal.append_op(after, 9, 1, b"late").unwrap();
        wal.sync().unwrap();
        let mut tailer = tail(&wal, 0);
        assert_eq!(drain(&mut tailer), (1..dead).collect::<Vec<_>>());
        assert!(tailer.poll().unwrap().is_empty(), "a reserved ticket is in flight until voided");
        wal.void(dead);
        let got: Vec<u64> = tailer.poll().unwrap().iter().map(|(s, _)| *s).collect();
        assert_eq!(got, vec![after]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_in_flight_reserved_ticket_is_held_through_1000_polls_then_ships_with_everything_behind_it(
    ) {
        let dir = tmp("in-flight");
        let wal = open(&dir, opts());
        append_txn(&wal, 1, 1, 1);
        let slow = wal.reserve();
        for txn in 2..=6 {
            append_txn(&wal, txn, txn, txn);
        }
        wal.sync().unwrap();
        let mut tailer = tail(&wal, 0);
        let mut got = Vec::new();
        for _ in 0..1000 {
            got.extend(tailer.poll().unwrap().iter().map(|(s, _)| *s));
        }
        assert_eq!(got, (1..slow).collect::<Vec<_>>(), "nothing past the reserved ticket");
        wal.append_op(slow, 1, 1, b"slow").unwrap();
        wal.sync().unwrap();
        got.extend(drain(&mut tailer));
        assert_eq!(got, (1..wal.current_ticket()).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An op published after its latch was released can find a higher
    /// ticket already on file. Under `Buffered` it must reach the file at
    /// once, not wait for a commit that an idle interactive transaction
    /// may never bring — the tailer waits on it, and would wait forever.
    #[test]
    fn overtaken_op_of_an_idle_transaction_is_not_skipped() {
        let dir = tmp("overtaken");
        let wal = open(&dir, WalOptions { durability: Durability::Buffered, ..opts() });
        wal.append_begin(1).unwrap();
        let op = wal.reserve();
        append_txn(&wal, 2, 2, 1);
        wal.append_op(op, 1, 1, b"late").unwrap();
        // Transaction 1 now sits idle: nothing else reaches the log.
        let mut tailer = tail(&wal, 0);
        let expect: Vec<u64> = (1..wal.current_ticket()).collect();
        assert_eq!(drain(&mut tailer), expect, "every ticket ships, the overtaken op included");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_bytes_are_held_back_until_completed() {
        let dir = tmp("torn");
        let wal = open(&dir, opts());
        append_txn(&wal, 1, 1, 1);
        wal.sync().unwrap();
        let mut tailer = tail(&wal, 0);
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

    /// A commit whose fsync failed is on file, and so is the abort that
    /// repaired its chain slot at the same ticket. The stream carries the
    /// abort and never the commit — recovery's abort-wins rule.
    #[test]
    fn a_commit_whose_fsync_failed_ships_as_its_abort() {
        let dir = tmp("hole");
        let wal = open(&dir, WalOptions { durability: Durability::Fsync, ..opts() });
        append_txn(&wal, 1, 1, 1);
        wal.append_begin(2).unwrap();
        wal.append_op(wal.reserve(), 2, 1, b"doomed").unwrap();
        wal.sync_faults.store(1, Ordering::SeqCst);
        assert!(wal.commit_txn(2, 2).is_err());
        let t = wal.current_ticket() - 1;
        append_txn(&wal, 3, 1, 3);
        let mut tailer = tail(&wal, 0);
        let got = drain_records(&mut tailer);
        assert_eq!(
            got.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (1..wal.current_ticket()).collect::<Vec<_>>()
        );
        let at_t: Vec<&LogRecord> = got.iter().filter(|(s, _)| *s == t).map(|(_, r)| r).collect();
        assert_eq!(at_t, vec![&LogRecord::Abort { txn: 2 }], "Abort@{t}, never Commit@{t}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With the repair abort's fsync failed too, the ticket waits in
    /// `failed_commits`: nothing at or past it ships — later commits
    /// included — until the compensating durable abort lands.
    #[test]
    fn a_failed_commit_whose_repair_failed_holds_the_stream_until_its_abort_lands() {
        let dir = tmp("held");
        let wal = open(&dir, WalOptions { durability: Durability::Fsync, ..opts() });
        append_txn(&wal, 1, 1, 1);
        wal.append_begin(2).unwrap();
        wal.append_op(wal.reserve(), 2, 1, b"doomed").unwrap();
        wal.sync_faults.store(2, Ordering::SeqCst);
        assert!(wal.commit_txn(2, 2).is_err());
        let t = wal.current_ticket() - 1;
        append_txn(&wal, 3, 1, 3);
        let mut tailer = tail(&wal, 0);
        assert_eq!(drain(&mut tailer), (1..t).collect::<Vec<_>>(), "nothing at or past {t}");
        wal.commit_abort(2).unwrap();
        let got = drain_records(&mut tailer);
        assert_eq!(got.first(), Some(&(t, LogRecord::Abort { txn: 2 })));
        assert_eq!(got.last().map(|(s, _)| *s), Some(wal.current_ticket() - 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_parked_tailer_wakes_on_the_next_commit() {
        let dir = tmp("wake");
        let wal = open(&dir, WalOptions { durability: Durability::Buffered, ..opts() });
        let mut tailer = tail(&wal, 0);
        assert!(tailer.poll().unwrap().is_empty());
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            tailer.wait(Duration::from_secs(60));
            (started.elapsed(), tailer)
        });
        append_txn(&wal, 1, 1, 1);
        let (waited, mut tailer) = waiter.join().unwrap();
        assert!(waited < Duration::from_secs(60), "woken, not timed out");
        assert_eq!(drain(&mut tailer), (1..wal.current_ticket()).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
