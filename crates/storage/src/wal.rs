//! The segmented write-ahead log: one append stream of ticketed records,
//! leader-based group commit, segment rotation, and torn-tail-tolerant
//! scanning.
//!
//! ## One stream, global tickets
//!
//! The log is **one append stream**: one directory of segment files
//! behind one mutex, one process buffer and one group-commit leader. The
//! paper's recovery story is a single history ordered by commit
//! timestamps, and nothing in it asks for more than one physical log.
//! The segments live at `<dir>/stripe-00/seg-NNNNNNNN.wal`; that
//! directory name ([`STREAM_DIR`]) is a format constant, like the
//! checkpoint magic — every directory in existence uses it. A directory
//! holding segments under any other `stripe-NN` is a multi-stream log
//! this build cannot read and is refused ([`stream_dir`]).
//!
//! Every record is stamped with a ticket from one global monotone counter
//! ([`SegmentedWal::reserve`]). Callers that must preserve an execution
//! order reserve the ticket while holding the lock that defines that
//! order (the object latch, for redo records) and append *outside* it, so
//! a rotation fsync never stalls a hot object. The price is that the
//! physical order inside the file may disagree with ticket order — two
//! threads that reserved 7 and 8 can append 8 first — and that is fine:
//! every reader ([`read_records`], the tailer) sorts on the ticket.
//!
//! ## What a single stream still has to detect
//!
//! Because physical order and ticket order differ, "a crash removes a
//! suffix of the file" is *not* "a crash removes a suffix of the history":
//!
//! * **The commit chain.** A commit reserves its ticket, links to its
//!   predecessor (`prev`) and appends its record in one hold of the
//!   append lock — and under `Buffered` writes it in that hold too — so
//!   commit records reach the buffer and the file in chain order. Other
//!   records still land out of ticket order, and a log written before
//!   commits were appended in chain order, or a failed repair, can leave
//!   a later-chained commit on file without its predecessor. The log's
//!   one reader ([`crate::TxnAssembler`]) walks the chain and drops
//!   everything past a hole: the defence for those logs.
//! * **The ack barrier** (`settle_chain`). A commit is acknowledged only
//!   once every chained predecessor is settled. Under `Buffered` that
//!   holds by construction — the write that carried a commit carried its
//!   predecessors ahead of it — and settling is a `max`. Under `Fsync` it
//!   is a wait: the group sync that covered a later commit can return
//!   while a predecessor's own sync failed and its repair is not yet
//!   durable, and the chain walk would then discard an *acknowledged*
//!   commit after a crash.
//! * **Chain repair.** A commit whose append, write or sync fails after
//!   its ticket was chained leaves a slot every later commit links
//!   through; an abort record reusing the ticket fills it, written before
//!   the commit settles (under `Buffered`, before the append lock is
//!   released, so any successor's write carries it). If the repair fails
//!   too, the ticket is held in `failed_commits` until the caller's
//!   durable abort fills it.
//! * **The op count.** Commit records carry the number of op records
//!   their transaction logged. A transaction's ops precede its commit in
//!   the file, so a tail cut cannot separate them — but a lost or wrongly
//!   pruned segment can, and so can a feed that skipped a frame; the
//!   same reader drops a commit with fewer surviving ops as incompletely
//!   durable instead of half-replaying it.
//!
//! ## What a tailer is told
//!
//! The file cannot say whether a missing ticket is in flight or never
//! coming, so the log says it ([`SegmentedWal::void`]), publishes the
//! settled chain and the held `failed_commits` tickets, and wakes every
//! attached tailer (`crate::tail`) on each write, settle and void.
//!
//! ## Group commit
//!
//! Concurrent committers do not each pay an fsync. A committer appends
//! its completion record, then joins the sync protocol: if a sync is
//! already running it waits; otherwise it becomes the *leader*, flushes
//! the shared buffer, snapshots the highest appended position, fsyncs
//! once, publishes the new durable position, and wakes everyone. Commits
//! that arrive while a sync is in flight batch up behind it — one fsync
//! per batch — and the leader stays hot, running round after round while
//! anyone is still waiting, so no wake-up handoff is paid between
//! batches.
//!
//! ## Rotation
//!
//! A segment that exceeds `segment_max_bytes` is finished: flushed,
//! fsynced (so earlier records can never be less durable than later
//! ones), and a new segment file is opened. Whole dead segments are
//! deleted by checkpointing (see `store`).

use crate::record::{self, FrameError, LogRecord};
use crate::StorageError;
use hcc_core::runtime::WakeToken;
use hcc_obs::{Counter, Histogram, Registry};
use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};

/// Flush threshold for records that ride the process buffer (bounds its
/// growth when no completion record comes along to carry them).
const FLUSH_BYTES: usize = 64 * 1024;

/// The directory under the log root that holds the segment files. An
/// on-disk format constant: it is where every existing log keeps its
/// one stream.
pub const STREAM_DIR: &str = "stripe-00";

/// How far a completion record must travel before a commit is
/// acknowledged. Both levels survive a process crash: an acknowledged
/// commit is never lost to one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// Every commit pushes the log to the OS page cache — one `write`
    /// carrying the records buffered ahead of it — but no fsync: survives
    /// a process crash, not a power failure.
    Buffered,
    /// Every commit is fsynced (`sync_data`) before it is acknowledged —
    /// batched across concurrent committers by group commit.
    #[default]
    Fsync,
}

/// Construction options for [`SegmentedWal`].
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub segment_max_bytes: u64,
    /// How durable completion records must be before `commit` returns.
    pub durability: Durability,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { segment_max_bytes: 4 * 1024 * 1024, durability: Durability::Fsync }
    }
}

struct Inner {
    file: Arc<File>,
    seg_index: u64,
    seg_bytes: u64,
    /// A segment was created and the stream directory not fsynced since:
    /// nothing may be reported durable until it is.
    dir_dirty: bool,
    /// The lowest segment still on disk (where a tailer starts).
    first_seg: u64,
    /// Process-local buffer of encoded-but-unwritten records.
    buf: Vec<u8>,
    /// Highest ticket ever appended to `buf`, and its value at the last
    /// flush that wrote anything: no higher ticket has reached the file.
    appended_high: u64,
    written_high: u64,
    /// Physical append position (records appended so far). Distinct from
    /// the global ticket: this is what the sync protocol tracks, and it
    /// is strictly monotone in *append* order.
    next_pos: u64,
    /// Lowest segment holding records of each incomplete transaction.
    live_low: HashMap<u64, u64>,
    /// Op records appended so far by each live transaction, counted by
    /// the op's own append and stamped into its commit record, so
    /// recovery can detect a partially lost transaction.
    txn_ops: HashMap<u64, u32>,
    /// The commit chain: ticket of the most recently appended commit
    /// record. Each commit record carries its predecessor's ticket so
    /// recovery can reject chain holes (see the module docs). Linked in
    /// the hold that appends the record, so commit records reach the
    /// buffer in chain order.
    chain: u64,
    // ---- statistics for the compaction policy -------------------------
    commits_since_ckpt: u64,
    records_since_ckpt: u64,
    bytes_at_last_ckpt: u64,
    total_bytes: u64,
    segments: u64,
}

struct SyncState {
    /// Highest append position known durable.
    synced_pos: u64,
    /// Is a leader currently fsyncing?
    sync_running: bool,
    /// Highest position any committer is waiting on. The leader stays hot
    /// — fsyncing round after round — until it has covered this, so no
    /// fsync-to-fsync handoff latency is paid while commits queue.
    max_requested: u64,
}

/// The ack barrier's state (`settle_chain`).
struct Settled {
    /// Highest chain ticket whose durability is *settled* (at the
    /// configured level, or declared dead by a failed append). Every
    /// chained predecessor of a settled commit is settled too, and
    /// commits are acknowledged only once settled, so acknowledgement
    /// order equals chain order. That is what entitles recovery to read
    /// a chain hole as "this commit and everything chained after it was
    /// never acknowledged".
    high: u64,
    /// Committers asleep on `chain_settled_cv`: a settle notifies only
    /// when there is one.
    waiters: u32,
}

/// The metric handles the log bumps on its hot paths, resolved once at
/// open so appends never touch the registry's name map.
struct Instruments {
    appends: Arc<Counter>,
    writes: Arc<Counter>,
    rotations: Arc<Counter>,
    fsync_nanos: Arc<Histogram>,
    batch: Arc<Histogram>,
    settle_waits: Arc<Counter>,
}

/// The decoded record image of an open-time scan: the surviving records
/// in ticket order, and whether the scan dropped a torn tail.
pub type OpenRecords = (Vec<(u64, LogRecord)>, bool);

/// A segmented, CRC-framed, group-committing write-ahead log.
pub struct SegmentedWal {
    /// `<dir>/stripe-00`: the directory of segment files.
    stream: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    ins: Instruments,
    /// The global ticket counter: the *next* ticket to hand out.
    ticket: AtomicU64,
    /// Commit records whose append failed after their chain ticket was
    /// reserved, and whose repair abort failed too: the compensating
    /// durable abort reuses the ticket, so the chain stays linkable for
    /// every later commit.
    failed_commits: Mutex<HashMap<u64, u64>>,
    chain_settled: Mutex<Settled>,
    chain_settled_cv: Condvar,
    /// Void tickets ([`SegmentedWal::void`]) as `start → end` ranges.
    voids: Mutex<BTreeMap<u64, u64>>,
    /// The tailers' wake tokens, and whether there are any: a log nobody
    /// tails signals with one atomic load. The flag's Release stores pair
    /// with the Acquire load in `wake_tailers`; a signal that still reads
    /// `false` precedes the new tailer's first sample, which sees it.
    tailers: Mutex<Vec<Weak<WakeToken>>>,
    tailed: AtomicBool,
    /// Test hook: how many upcoming group-commit fsyncs fail.
    #[cfg(test)]
    pub(crate) sync_faults: std::sync::atomic::AtomicI64,
    /// Test hook: how many upcoming `write(2)`s of the buffer fail.
    #[cfg(test)]
    pub(crate) write_faults: std::sync::atomic::AtomicI64,
    /// Test hook: how many upcoming stream-directory fsyncs fail.
    #[cfg(test)]
    pub(crate) dir_sync_faults: std::sync::atomic::AtomicI64,
}

/// What a tailer may rely on, sampled before it reads the file.
pub(crate) struct TailFacts {
    /// `chain_settled`: a commit at or below it is final, and the abort
    /// that repairs it, if any, is already written.
    pub settled: u64,
    /// The tickets held in `failed_commits`.
    pub held: Vec<u64>,
    /// The active segment: every one below it is finished.
    pub segment: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `seg-00000042.wal`. Private: this file is the one segment writer.
fn segment_path(stream: &Path, index: u64) -> PathBuf {
    stream.join(format!("seg-{index:08}.wal"))
}

/// Fsync a directory, making freshly created (or renamed) files durable
/// *as directory entries*. Without this, a crash after segment
/// creation/rotation can lose the new file entirely — the records inside
/// were fsynced, but the name pointing at them was not — which recovery
/// sees as a hole in the log (checkpoint files already get the same
/// treatment from `Checkpoint::save`).
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Entries of `dir` named `<prefix><number><suffix>`, sorted by number
/// (none when `dir` does not exist).
fn numbered_entries(
    dir: &Path,
    prefix: &str,
    suffix: &str,
) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(idx) = name.strip_prefix(prefix).and_then(|s| s.strip_suffix(suffix)) {
            if let Ok(index) = idx.parse::<u64>() {
                out.push((index, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The stream directory of the log rooted at `dir` — the one place the
/// on-disk layout is resolved; [`SegmentedWal::open`], [`read_records`]
/// and [`truncate_above`] all come through here. A root that
/// holds segments under any `stripe-NN` with NN ≥ 1 was written as a
/// multi-stream log and is refused with [`StorageError::StripedLayout`]
/// before anything is read or repaired: silently opening stream 0 alone
/// would drop every commit routed elsewhere. Leftover *empty* directories
/// are ignored.
pub fn stream_dir(dir: &Path) -> Result<PathBuf, StorageError> {
    for (index, path) in numbered_entries(dir, "stripe-", "")? {
        if index >= 1 && !list_segments(&path)?.is_empty() {
            return Err(StorageError::StripedLayout { dir: path });
        }
    }
    Ok(dir.join(STREAM_DIR))
}

/// All segment files under a stream directory, sorted by index.
pub(crate) fn list_segments(stream: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    numbered_entries(stream, "seg-", ".wal")
}

/// The segment files of the log rooted at `dir`, oldest first.
pub fn segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StorageError> {
    Ok(list_segments(&stream_dir(dir)?)?)
}

impl SegmentedWal {
    /// Open the log in `dir` (created if missing), truncating a torn tail
    /// off its active segment. Appends go to the highest existing segment
    /// or start segment 1; the ticket counter is re-anchored above every
    /// ticket surviving on disk (and the caller should raise it further
    /// with [`SegmentedWal::witness_ticket`] when a checkpoint recorded a
    /// higher watermark — pruning may have deleted the segments that held
    /// the highest tickets).
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions) -> Result<SegmentedWal, StorageError> {
        Ok(Self::open_with_metrics(dir, opts, &Registry::new())?.0)
    }

    /// [`SegmentedWal::open`] with the owning system's metric registry,
    /// handing back what the open read: the append and rotation counters
    /// and the group-commit batch/fsync histograms are resolved from
    /// `metrics` once, at open (the plain `open` uses a private throwaway
    /// registry), and the one pass over the surviving segments is
    /// returned as its watermarks and bindings ([`OpenScan`]) and its
    /// decoded records ([`OpenRecords`]), the caller's to keep or drop.
    pub fn open_with_metrics(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        metrics: &Registry,
    ) -> Result<(SegmentedWal, OpenScan, OpenRecords), StorageError> {
        let stream = stream_dir(dir.as_ref())?;
        fs::create_dir_all(&stream)?;
        let segments = list_segments(&stream)?;
        let mut total_bytes: u64 =
            segments.iter().map(|(_, p)| fs::metadata(p).map(|m| m.len()).unwrap_or(0)).sum();
        let (seg_index, seg_bytes) = match segments.last() {
            Some((idx, path)) => {
                // A crash can leave half a frame at the tail. Appending
                // after it would orphan every subsequent record (scans stop
                // at the first bad frame), losing acknowledged commits — so
                // truncate the active segment back to the last valid frame
                // boundary before appending.
                let bytes = fs::read(path)?;
                let valid = record::walk_meta(&bytes).last().map_or(0, |(_, range)| range.end);
                if valid < bytes.len() {
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(valid as u64)?;
                    f.sync_data()?;
                    total_bytes -= (bytes.len() - valid) as u64;
                }
                (*idx, valid as u64)
            }
            None => (1, 0),
        };
        let seg_file = segment_path(&stream, seg_index);
        let created = !seg_file.exists();
        let file = OpenOptions::new().create(true).append(true).open(&seg_file)?;
        if created {
            sync_dir(&stream)?;
        }
        // One full pass over every surviving (tail-repaired) segment:
        // re-anchors the ticket counter (reusing a ticket would make the
        // recovery order ambiguous, exactly like reusing a transaction
        // id) and the commit chain (the next commit links to the highest
        // surviving commit ticket), collects the watermarks + registry
        // bindings the store needs, **and hands the decoded records to
        // the caller** so recovery materializes from this same pass
        // instead of re-reading every segment — opening a store reads
        // each segment exactly once, recovery included.
        let (records, torn) = read_segments(&segments)?;
        let scan = OpenScan::from_records(&records);
        // A ticket below the highest survivor that did not survive is
        // void: its writer, or its pruned segment, is gone.
        let mut voids = BTreeMap::new();
        let mut expect = 1;
        for (seq, _) in &records {
            if *seq > expect {
                voids.insert(expect, *seq);
            }
            expect = expect.max(seq + 1);
        }
        let wal = SegmentedWal {
            stream,
            opts,
            inner: Mutex::new(Inner {
                file: Arc::new(file),
                seg_index,
                seg_bytes,
                dir_dirty: false,
                first_seg: segments.first().map_or(seg_index, |(index, _)| *index),
                buf: Vec::new(),
                appended_high: 0,
                written_high: 0,
                next_pos: 1,
                live_low: HashMap::new(),
                txn_ops: HashMap::new(),
                chain: scan.max_commit_seq,
                commits_since_ckpt: 0,
                records_since_ckpt: 0,
                bytes_at_last_ckpt: total_bytes,
                total_bytes: total_bytes.max(seg_bytes),
                segments: segments.len().max(1) as u64,
            }),
            sync_state: Mutex::new(SyncState {
                synced_pos: 0,
                sync_running: false,
                max_requested: 0,
            }),
            sync_cv: Condvar::new(),
            ins: Instruments {
                appends: metrics.counter("wal.appends"),
                writes: metrics.counter("wal.writes"),
                rotations: metrics.counter("wal.rotations"),
                fsync_nanos: metrics.histogram("wal.fsync_nanos"),
                batch: metrics.histogram("wal.group_commit.batch"),
                settle_waits: metrics.counter("wal.settle_waits"),
            },
            ticket: AtomicU64::new(scan.max_seq + 1),
            failed_commits: Mutex::new(HashMap::new()),
            chain_settled: Mutex::new(Settled { high: scan.max_commit_seq, waiters: 0 }),
            chain_settled_cv: Condvar::new(),
            voids: Mutex::new(voids),
            tailers: Mutex::new(Vec::new()),
            tailed: AtomicBool::new(false),
            #[cfg(test)]
            sync_faults: Default::default(),
            #[cfg(test)]
            write_faults: Default::default(),
            #[cfg(test)]
            dir_sync_faults: Default::default(),
        };
        Ok((wal, scan, (records, torn)))
    }

    /// Raise the ticket counter so the next reserved ticket is at least
    /// `floor` — called by the store with the checkpoint's recorded
    /// watermark, since compaction may have deleted the segments that
    /// held the highest tickets. The tickets skipped are void.
    pub fn witness_ticket(&self, floor: u64) {
        let below = self.ticket.fetch_max(floor, Ordering::Relaxed);
        if floor > below {
            lock(&self.voids).insert(below, floor);
        }
    }

    /// Raise the commit-chain anchor to at least `floor` (the
    /// checkpoint's recorded chain watermark — the chain link below it
    /// may have been pruned).
    pub fn witness_chain(&self, floor: u64) {
        let mut inner = lock(&self.inner);
        inner.chain = inner.chain.max(floor);
        drop(inner);
        let mut settled = lock(&self.chain_settled);
        settled.high = settled.high.max(floor);
    }

    /// The ticket of the most recently chained commit record — the
    /// commit-chain watermark a fuzzy checkpoint records. Taken under
    /// the caller's exclusive commit gate, so no commit is mid-chain.
    pub fn commit_chain(&self) -> u64 {
        lock(&self.inner).chain
    }

    /// Reserve the next global ticket. Callers that need a ticket order
    /// to match an execution order must call this while holding the lock
    /// that defines that order; the append itself can happen later,
    /// outside the lock.
    pub fn reserve(&self) -> u64 {
        self.ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// The next ticket that would be handed out (checkpoint watermark).
    pub fn current_ticket(&self) -> u64 {
        self.ticket.load(Ordering::Relaxed)
    }

    /// Declare `ticket` void: reserved, and provably never written, so a
    /// tailer passes it instead of waiting. The log voids the tickets it
    /// draws itself; a caller that gives up on one it reserved says so
    /// here.
    pub fn void(&self, ticket: u64) {
        lock(&self.voids).insert(ticket, ticket + 1);
        self.wake_tailers();
    }

    /// The end (exclusive) of the void range holding `ticket`, if any.
    pub(crate) fn void_end(&self, ticket: u64) -> Option<u64> {
        let voids = lock(&self.voids);
        voids.range(..=ticket).next_back().map(|(_, &end)| end).filter(|&end| ticket < end)
    }

    /// Sample what a tailer may rely on. `chain_settled` comes first, so
    /// the repair abort of a commit settled by then is already on file,
    /// or its ticket is listed as held.
    pub(crate) fn tail_facts(&self) -> TailFacts {
        let settled = lock(&self.chain_settled).high;
        let held = lock(&self.failed_commits).values().copied().collect();
        let segment = lock(&self.inner).seg_index;
        TailFacts { settled, held, segment }
    }

    pub(crate) fn first_segment(&self) -> u64 {
        lock(&self.inner).first_seg
    }

    pub(crate) fn segment_file(&self, index: u64) -> PathBuf {
        segment_path(&self.stream, index)
    }

    /// Wake `token` on every write, settle and void while it lives.
    pub(crate) fn attach_tailer(&self, token: &Arc<WakeToken>) {
        lock(&self.tailers).push(Arc::downgrade(token));
        self.tailed.store(true, Ordering::Release);
    }

    fn wake_tailers(&self) {
        if self.tailed.load(Ordering::Acquire) {
            let mut tailers = lock(&self.tailers);
            tailers.retain(|t| t.upgrade().inspect(|t| t.wake()).is_some());
            self.tailed.store(!tailers.is_empty(), Ordering::Release);
        }
    }

    /// Write the process buffer to the OS, counting every `write(2)`
    /// (`wal.writes`). Whatever was written leaves the buffer even when a
    /// later write of the same flush fails, so a retry never writes a
    /// byte twice.
    fn flush_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        let mut done = 0;
        let outcome = loop {
            if done == inner.buf.len() {
                break Ok(());
            }
            #[cfg(test)]
            if self.write_faults.fetch_sub(1, Ordering::SeqCst) > 0 {
                break Err(std::io::Error::other("injected write failure"));
            }
            self.ins.writes.inc();
            match (&*inner.file).write(&inner.buf[done..]) {
                Ok(0) => break Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        if done > 0 {
            inner.written_high = inner.appended_high;
            self.wake_tailers();
        }
        inner.buf.drain(..done);
        outcome
    }

    /// Finish the active segment (flush + fsync) and open the next one.
    /// Everything written so far becomes durable, so `synced_pos` advances.
    fn rotate_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        self.flush_locked(inner)?;
        inner.file.sync_data()?;
        self.ins.rotations.inc();
        let durable_pos = inner.next_pos - 1;
        // The index moves only once its file is open: a tailer leaves a
        // segment when the index has passed it.
        let next = inner.seg_index + 1;
        inner.file = Arc::new(
            OpenOptions::new().create(true).append(true).open(segment_path(&self.stream, next))?,
        );
        inner.seg_index = next;
        inner.segments += 1;
        inner.seg_bytes = 0;
        // The new segment file must survive a crash as a directory entry,
        // or recovery finds records referencing a segment that vanished.
        // Should this fsync fail, the next append does not rotate again:
        // the flag makes every later sync retry it before succeeding.
        inner.dir_dirty = true;
        self.sync_dir_if_dirty(inner)?;
        let mut s = lock(&self.sync_state);
        s.synced_pos = s.synced_pos.max(durable_pos);
        drop(s);
        self.sync_cv.notify_all();
        Ok(())
    }

    /// Fsync the stream directory if a segment was created since that
    /// last succeeded.
    fn sync_dir_if_dirty(&self, inner: &mut Inner) -> std::io::Result<()> {
        if inner.dir_dirty {
            #[cfg(test)]
            if self.dir_sync_faults.fetch_sub(1, Ordering::SeqCst) > 0 {
                return Err(std::io::Error::other("injected directory fsync failure"));
            }
            sync_dir(&self.stream)?;
            inner.dir_dirty = false;
        }
        Ok(())
    }

    /// Encode and append one ticketed record; returns its append position.
    fn append_locked(&self, inner: &mut Inner, rec: &LogRecord, seq: u64) -> std::io::Result<u64> {
        if inner.seg_bytes >= self.opts.segment_max_bytes {
            self.rotate_locked(inner)?;
        }
        self.ins.appends.inc();
        let pos = inner.next_pos;
        inner.next_pos += 1;
        let before = inner.buf.len();
        record::encode_into(rec, seq, &mut inner.buf);
        inner.appended_high = inner.appended_high.max(seq);
        let encoded = (inner.buf.len() - before) as u64;
        inner.seg_bytes += encoded;
        inner.total_bytes += encoded;
        inner.records_since_ckpt += 1;
        let seg = inner.seg_index;
        match rec {
            LogRecord::Begin { txn } => {
                inner.live_low.entry(*txn).or_insert(seg);
            }
            LogRecord::Op { txn, .. } => {
                inner.live_low.entry(*txn).or_insert(seg);
                // Counted only once in the buffer: the commit record's op
                // count must equal what is actually in the log (a failed
                // append retried by the caller counts exactly once, on
                // the retry).
                *inner.txn_ops.entry(*txn).or_default() += 1;
            }
            LogRecord::Commit { txn, .. } => {
                inner.commits_since_ckpt += 1;
                inner.live_low.remove(txn);
            }
            LogRecord::Abort { txn } => {
                inner.live_low.remove(txn);
                inner.txn_ops.remove(txn);
            }
            LogRecord::Register { .. } => {}
        }
        Ok(pos)
    }

    /// Append a non-completion record. At every durability level it rides
    /// the process buffer until the next completion record's write (or
    /// the buffer reaches [`FLUSH_BYTES`]): the write-ahead rule only asks
    /// that a transaction's records reach the OS no later than its
    /// commit, and they precede it in the buffer, so one `write(2)` per
    /// commit carries them all.
    ///
    /// The exception is a record whose ticket was *overtaken*: reserved
    /// before a ticket that has already reached the file (an op published
    /// after its latch was released, behind another commit's flush). It is
    /// written at once: a tailer waits for the lower ticket, and an idle
    /// interactive transaction may bring no commit to carry it.
    ///
    /// An error means the record never reached the buffer. Once it has,
    /// an early write that fails leaves it there for the next completion
    /// record's flush, which writes it or reports the failure.
    fn append(&self, rec: &LogRecord, seq: u64) -> Result<(), StorageError> {
        let mut inner = lock(&self.inner);
        self.append_locked(&mut inner, rec, seq)?;
        if inner.buf.len() >= FLUSH_BYTES || seq < inner.written_high {
            let _ = self.flush_locked(&mut inner);
        }
        Ok(())
    }

    /// [`SegmentedWal::append`] under a ticket drawn here, which goes
    /// void if the append fails.
    fn append_fresh(&self, rec: &LogRecord) -> Result<(), StorageError> {
        let seq = self.reserve();
        self.append(rec, seq).inspect_err(|_| self.void(seq))
    }

    /// Append a completion record and write it to the OS with everything
    /// buffered ahead of it: the whole of a `Buffered` commit, done in
    /// the caller's hold of the append lock.
    fn write_locked(
        &self,
        inner: &mut Inner,
        rec: &LogRecord,
        seq: u64,
    ) -> Result<(), StorageError> {
        self.append_locked(inner, rec, seq)?;
        self.flush_locked(inner)?;
        Ok(())
    }

    /// Append a completion record with the configured durability: under
    /// `Fsync` this blocks until the record is on disk — one fsync per
    /// concurrent batch (leader-based group commit).
    fn commit(&self, rec: &LogRecord, seq: u64) -> Result<(), StorageError> {
        debug_assert!(rec.is_completion());
        let mut inner = lock(&self.inner);
        match self.opts.durability {
            Durability::Buffered => self.write_locked(&mut inner, rec, seq),
            Durability::Fsync => {
                // No flush here: the sync leader flushes the shared
                // buffer under the append lock before it snapshots the
                // high-water mark, so this record is covered by
                // whichever fsync it waits for.
                let pos = self.append_locked(&mut inner, rec, seq)?;
                drop(inner);
                self.group_sync(pos)
            }
        }
    }

    /// Wait until append position `my_pos` is durable, fsyncing as leader
    /// when no sync is in flight. The leader stays hot: as long as some
    /// committer is waiting on a higher position it runs another flush +
    /// fsync round itself, rather than paying a wake-up handoff between
    /// every batch.
    fn group_sync(&self, my_pos: u64) -> Result<(), StorageError> {
        let mut s = lock(&self.sync_state);
        s.max_requested = s.max_requested.max(my_pos);
        loop {
            if s.synced_pos >= my_pos {
                return Ok(());
            }
            if s.sync_running {
                s = self.sync_cv.wait(s).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Become the leader.
            s.sync_running = true;
            while s.synced_pos < s.max_requested {
                drop(s);
                // One scheduling breath before snapshotting the high-water
                // mark: committers racing toward the log get into this
                // batch instead of waiting out a whole fsync.
                std::thread::yield_now();
                let outcome: std::io::Result<u64> = (|| {
                    let (high, file) = {
                        let mut inner = lock(&self.inner);
                        self.flush_locked(&mut inner)?;
                        self.sync_dir_if_dirty(&mut inner)?;
                        (inner.next_pos - 1, inner.file.clone())
                    };
                    let started = std::time::Instant::now();
                    #[cfg(test)]
                    if self.sync_faults.fetch_sub(1, Ordering::SeqCst) > 0 {
                        return Err(std::io::Error::other("injected fsync failure"));
                    }
                    file.sync_data()?;
                    self.ins.fsync_nanos.observe_duration(started.elapsed());
                    Ok(high)
                })();
                s = lock(&self.sync_state);
                match outcome {
                    Ok(high) => {
                        // Batch size: append positions this one fsync made
                        // durable (clamped at 1 — a leader can re-sync a
                        // position another rotation already covered).
                        self.ins.batch.observe(high.saturating_sub(s.synced_pos).max(1));
                        s.synced_pos = s.synced_pos.max(high);
                    }
                    Err(e) => {
                        s.sync_running = false;
                        drop(s);
                        self.sync_cv.notify_all();
                        return Err(e.into());
                    }
                }
                self.sync_cv.notify_all();
            }
            s.sync_running = false;
            drop(s);
            self.sync_cv.notify_all();
            return Ok(());
        }
    }

    /// Append a Begin record (buffered). Transactions no longer write
    /// them, and recovery skips them.
    pub fn append_begin(&self, txn: u64) -> Result<(), StorageError> {
        self.append_fresh(&LogRecord::Begin { txn })
    }

    /// Append a Register record (buffered). The binding is appended
    /// before any op that uses the id, so a torn tail that keeps an op
    /// always keeps its binding.
    pub fn append_register(&self, id: u64, name: &str) -> Result<(), StorageError> {
        self.append_fresh(&LogRecord::Register { id, name: name.to_string() })
    }

    /// Append one op record under a pre-reserved ticket (buffered), and
    /// count it toward its transaction's commit record in the same hold.
    /// The write-ahead discipline only requires op records to reach disk
    /// before the *commit* record does, and they precede it in the file.
    /// On an error the record is not in the log: retry it under the same
    /// ticket, or give the ticket up ([`SegmentedWal::void`]).
    pub fn append_op(&self, seq: u64, txn: u64, obj: u64, op: &[u8]) -> Result<(), StorageError> {
        self.append(&LogRecord::Op { txn, obj, op: op.to_vec() }, seq)
    }

    /// Append an ordinary Abort record (buffered — recovery never replays
    /// uncommitted transactions, so it only unpins segments). Never
    /// reuses a failed commit's chain ticket: a chain-repair record must
    /// be at least as durable as the commits chained past it, which only
    /// the durable [`SegmentedWal::commit_abort`] path guarantees.
    pub fn append_abort(&self, txn: u64) -> Result<(), StorageError> {
        self.append_fresh(&LogRecord::Abort { txn })
    }

    /// Fill the chain slot a failed commit of `txn` left held: a durable
    /// Abort record at the commit's ticket, which recovery's chain walk
    /// reads as a valid, dead link and its abort-wins rule sets above the
    /// commit. The slot stays held until the abort is appended, so a
    /// failed attempt can be retried. With no slot held there is nothing
    /// to do: [`SegmentedWal::commit_txn`]'s own repair already wrote the
    /// abort, or no commit was ever chained.
    pub fn commit_abort(&self, txn: u64) -> Result<(), StorageError> {
        lock(&self.inner).txn_ops.remove(&txn);
        let Some(seq) = lock(&self.failed_commits).get(&txn).copied() else { return Ok(()) };
        self.commit(&LogRecord::Abort { txn }, seq)?;
        lock(&self.failed_commits).remove(&txn);
        self.wake_tailers();
        Ok(())
    }

    /// The ack barrier: settle `seq`, the commit chained after `prev`,
    /// once its record has reached the configured durability (or its
    /// append failed — a dead ticket settles too, so successors never
    /// hang). A commit is acknowledged only once settled.
    ///
    /// Under `Buffered` this is a `max`: commit records are linked,
    /// appended and written in chain order under the append lock, so the
    /// write that carried this record carried every chained
    /// predecessor's record, or the abort that repaired it, ahead of it;
    /// a predecessor whose repair failed is already held in
    /// `failed_commits`. Under `Fsync` the group sync that covered this
    /// record may have returned while a predecessor's own sync failed and
    /// its repair is not yet durable, so the commit waits until every
    /// predecessor is settled — otherwise a crash could make recovery's
    /// chain walk discard an acknowledged commit.
    fn settle_chain(&self, prev: u64, seq: u64) {
        let mut settled = lock(&self.chain_settled);
        if self.opts.durability == Durability::Fsync {
            while settled.high < prev {
                settled.waiters += 1;
                self.ins.settle_waits.inc();
                settled =
                    self.chain_settled_cv.wait(settled).unwrap_or_else(PoisonError::into_inner);
                settled.waiters -= 1;
            }
        }
        settled.high = settled.high.max(seq);
        let waiters = settled.waiters > 0;
        drop(settled);
        if waiters {
            self.chain_settled_cv.notify_all();
        }
        self.wake_tailers();
    }

    /// Durably log that `txn` committed at `ts`: the commit record —
    /// carrying the op count and the chain link — is appended after the
    /// transaction's op records and synced per the configured durability
    /// (group-committed under `Fsync`). Returns only once the record is
    /// as durable as the level requires and every chained predecessor is
    /// settled.
    ///
    /// Counting, reserving the ticket, linking the chain and appending
    /// are one hold of the append lock, and under `Buffered` so is the
    /// `write(2)`: commit records reach the buffer and the file in chain
    /// order. The chain order is the ack-dependency order (a commit
    /// acknowledged before another executed is chained before it), which
    /// is what lets recovery treat a chain hole as "discard this and
    /// every later commit".
    ///
    /// A commit that fails leaves a chain slot every later commit links
    /// through. Before it settles, the slot is repaired *durably* with an
    /// abort at the same ticket — under `Buffered` in the same hold, so
    /// any successor's write carries the repair ahead of its own bytes.
    /// A dead link must be at least as durable as the commits that chain
    /// past it, or a crash could open a hole under acknowledged
    /// successors. If even the repair fails, the ticket is held in
    /// `failed_commits` for the caller's compensating durable abort, and
    /// the commit settles anyway: blocking every later commit on a sick
    /// log helps nobody, and the caller reports the outcome as
    /// indeterminate.
    pub fn commit_txn(&self, txn: u64, ts: u64) -> Result<(), StorageError> {
        let mut inner = lock(&self.inner);
        let ops = inner.txn_ops.remove(&txn).unwrap_or(0);
        let seq = self.reserve();
        let prev = std::mem::replace(&mut inner.chain, seq);
        let rec = LogRecord::Commit { txn, ts, ops, prev };
        let repair = LogRecord::Abort { txn };
        let outcome = match self.opts.durability {
            Durability::Buffered => {
                let outcome = self.write_locked(&mut inner, &rec, seq);
                if outcome.is_err() {
                    let repaired = self.write_locked(&mut inner, &repair, seq).is_ok();
                    self.commit_failed(&mut inner, txn, seq, ops, repaired);
                }
                drop(inner);
                outcome
            }
            Durability::Fsync => {
                let appended = self.append_locked(&mut inner, &rec, seq);
                drop(inner);
                let outcome =
                    appended.map_err(StorageError::from).and_then(|pos| self.group_sync(pos));
                if outcome.is_err() {
                    let repaired = self.commit(&repair, seq).is_ok();
                    self.commit_failed(&mut lock(&self.inner), txn, seq, ops, repaired);
                }
                outcome
            }
        };
        self.settle_chain(prev, seq);
        outcome
    }

    /// What a failed commit of `txn` at `seq` leaves behind: its ticket
    /// held when the repair abort failed too, and the op count, which a
    /// commit delivered again must stamp.
    fn commit_failed(&self, inner: &mut Inner, txn: u64, seq: u64, ops: u32, repaired: bool) {
        if !repaired {
            lock(&self.failed_commits).insert(txn, seq);
        }
        inner.txn_ops.insert(txn, ops);
    }

    /// Feed the log a batch of concatenated raw frames that already
    /// carry their tickets — the replication follower's append. The
    /// whole batch is verified first (every CRC, strictly ascending
    /// `seq`) and a bad batch is refused with **nothing** appended, so
    /// the caller's applied position can never part from the log's.
    /// Frames at or below the last ticket are re-deliveries and are
    /// skipped; the rest are appended byte for byte, in arrival order —
    /// which keeps a fed log's file ticket-ascending, and that is what
    /// lets [`truncate_above`] cut a clean suffix. One flush per batch,
    /// an fsync under `Durability::Fsync`, and the ticket counter ends
    /// above the batch. Returns the freshly appended records, decoded,
    /// in ticket order.
    pub fn append_frames(&self, frames: &[u8]) -> Result<Vec<(u64, LogRecord)>, StorageError> {
        let mut inner = lock(&self.inner);
        let last = self.current_ticket().saturating_sub(1);
        let mut fresh = Vec::new();
        // Fresh frames are a suffix of the batch: where it starts, and
        // where each of its frames ends.
        let mut start = frames.len();
        let mut ends = Vec::new();
        let mut at = 0usize;
        let mut prev = 0u64;
        while at < frames.len() {
            let (seq, rec, end) = record::decode_at(frames, at).map_err(|e| bad_batch(at, e))?;
            if seq <= prev {
                return Err(bad_batch(at, FrameError::Malformed));
            }
            prev = seq;
            if seq > last {
                start = start.min(at);
                ends.push(end);
                fresh.push((seq, rec));
            }
            at = end;
        }
        // The raw twin of `append_locked`: rotation, sizes and positions
        // are kept; the compaction-policy counters and the
        // live-transaction pins are not — a fed log is never checkpointed
        // in place.
        for end in ends {
            if inner.seg_bytes >= self.opts.segment_max_bytes {
                self.rotate_locked(&mut inner)?;
            }
            self.ins.appends.inc();
            inner.next_pos += 1;
            inner.buf.extend_from_slice(&frames[start..end]);
            inner.seg_bytes += (end - start) as u64;
            inner.total_bytes += (end - start) as u64;
            start = end;
        }
        if let Some((seq, _)) = fresh.last() {
            inner.appended_high = inner.appended_high.max(*seq);
        }
        self.flush_locked(&mut inner)?;
        drop(inner);
        if let Some((seq, _)) = fresh.last() {
            self.ticket.fetch_max(seq + 1, Ordering::Relaxed);
        }
        // Re-deliveries sync too (an earlier batch's fsync may be what
        // failed); an empty batch — a heartbeat — has nothing to.
        if self.opts.durability == Durability::Fsync && !frames.is_empty() {
            self.sync()?;
        }
        Ok(fresh)
    }

    /// Flush the buffer and fsync the active segment (and the stream
    /// directory, if a rotation left its fsync undone).
    pub fn sync(&self) -> Result<(), StorageError> {
        let file = {
            let mut inner = lock(&self.inner);
            self.flush_locked(&mut inner)?;
            self.sync_dir_if_dirty(&mut inner)?;
            inner.file.clone()
        };
        file.sync_data()?;
        Ok(())
    }

    /// The active segment index.
    pub fn current_segment(&self) -> u64 {
        lock(&self.inner).seg_index
    }

    /// The fuzzy-checkpoint cut: the highest segment index that may be
    /// pruned up to (exclusive) once the checkpoint's snapshots are
    /// durable — the active segment, clamped below any segment still
    /// holding records of an incomplete transaction. Must be taken while
    /// commits are quiesced (the manager's brief exclusive gate): every
    /// commit at or below the checkpoint watermark is then fully
    /// appended, and every record of a *later* commit is either pinned
    /// here (its transaction is still live) or will be appended at or
    /// above the cut.
    pub fn checkpoint_cut(&self) -> u64 {
        let inner = lock(&self.inner);
        let pin = inner.live_low.values().min().copied().unwrap_or(u64::MAX);
        inner.seg_index.min(pin)
    }

    /// Current statistics for the compaction policy.
    pub fn stats(&self) -> crate::policy::LogStats {
        let inner = lock(&self.inner);
        crate::policy::LogStats {
            commits_since_checkpoint: inner.commits_since_ckpt,
            records_since_checkpoint: inner.records_since_ckpt,
            bytes_at_last_checkpoint: inner.bytes_at_last_ckpt,
            total_bytes: inner.total_bytes,
            segments: inner.segments,
        }
    }

    /// Reset the policy counters after a checkpoint.
    pub fn mark_checkpoint(&self) {
        let mut inner = lock(&self.inner);
        inner.commits_since_ckpt = 0;
        inner.records_since_ckpt = 0;
        inner.bytes_at_last_ckpt = inner.total_bytes;
    }

    /// Delete every segment with index `< upto`, clamped so segments
    /// still referenced by incomplete transactions survive. Returns the
    /// number of segments deleted.
    pub fn prune_segments(&self, upto: u64) -> Result<u64, StorageError> {
        let mut deleted = 0;
        let mut inner = lock(&self.inner);
        let bound = inner.live_low.values().min().copied().unwrap_or(u64::MAX).min(upto);
        let mut first = None;
        for (idx, path) in list_segments(&self.stream)? {
            if idx >= bound || idx == inner.seg_index {
                first.get_or_insert(idx);
                continue;
            }
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
            inner.total_bytes = inner.total_bytes.saturating_sub(len);
            inner.segments = inner.segments.saturating_sub(1);
            deleted += 1;
        }
        inner.first_seg = first.unwrap_or(inner.seg_index);
        Ok(deleted)
    }
}

impl Drop for SegmentedWal {
    /// Orderly close: push to the OS what the buffer still holds — records
    /// no completion record has carried out yet.
    fn drop(&mut self) {
        let _ = self.flush_locked(&mut lock(&self.inner));
    }
}

/// What a reopening store learns from its cheap metadata scan.
#[derive(Clone, Debug, Default)]
pub struct OpenScan {
    /// Highest commit timestamp in the surviving log.
    pub last_ts: u64,
    /// Highest transaction id in the surviving log.
    pub max_txn: u64,
    /// Highest ticket in the surviving log.
    pub max_seq: u64,
    /// Highest ticket carried by a commit record (the chain anchor).
    pub max_commit_seq: u64,
    /// Object registry bindings (`id`, `name`), in ticket order.
    pub registrations: Vec<(u64, String)>,
}

impl OpenScan {
    /// Fold the recovery watermarks (highest commit timestamp,
    /// transaction id, and ticket) and the object registry bindings out
    /// of an already-decoded, ticket-sorted record image — the seeding
    /// half of the single open-time pass ([`read_records`] is the read
    /// half; the opener keeps the image itself for recovery).
    pub fn from_records(records: &[(u64, LogRecord)]) -> OpenScan {
        let mut scan = OpenScan::default();
        for (seq, rec) in records {
            scan.max_seq = scan.max_seq.max(*seq);
            match rec {
                LogRecord::Begin { txn } | LogRecord::Abort { txn } | LogRecord::Op { txn, .. } => {
                    scan.max_txn = scan.max_txn.max(*txn);
                }
                LogRecord::Commit { txn, ts, .. } => {
                    scan.max_txn = scan.max_txn.max(*txn);
                    scan.last_ts = scan.last_ts.max(*ts);
                    scan.max_commit_seq = scan.max_commit_seq.max(*seq);
                }
                LogRecord::Register { id, name } => {
                    // Records arrive ticket-sorted, so bindings land in
                    // ticket order.
                    scan.registrations.push((*id, name.clone()));
                }
            }
        }
        scan
    }
}

/// Read every record of the log under `dir`, in ticket order. A torn or
/// corrupt frame in the **final** segment truncates the scan there (crash
/// tail); the same anywhere else is reported as corruption. Returns
/// `(seq, record)` pairs, ticket-sorted, and whether a torn tail was
/// dropped.
pub fn read_records(dir: &Path) -> Result<OpenRecords, StorageError> {
    read_segments(&segments(dir)?)
}

fn read_segments(segments: &[(u64, PathBuf)]) -> Result<OpenRecords, StorageError> {
    let mut out = Vec::new();
    let mut torn = false;
    let last_index = segments.last().map(|(i, _)| *i);
    for (index, path) in segments {
        let bytes = fs::read(path)?;
        let (records, err) = record::decode_all(&bytes);
        out.extend(records);
        match err {
            None => {}
            Some(FrameError::Truncated) if bytes.is_empty() => {}
            Some(_) if Some(*index) == last_index => torn = true,
            Some(e) => {
                return Err(StorageError::Corrupt {
                    segment: *index,
                    detail: format!("{e:?} in non-final segment"),
                });
            }
        }
    }
    // Tickets are reserved under the lock that defines an order and
    // appended outside it, so the file is not ticket-sorted; tickets are
    // globally unique and allocated in execution order wherever an order
    // matters (per object, per transaction), so sorting on them
    // reconstructs the one replayable history.
    out.sort_by_key(|(seq, _)| *seq);
    Ok((out, torn))
}

/// Physically drop every frame with `seq > ticket` from the closed log
/// under `dir` — the promotion cut: truncate at the first frame above
/// `ticket`, delete every later segment, fsync the file and the
/// directory. Sound only where the file is ticket-ascending (a log built
/// by [`SegmentedWal::append_frames`]); a frame at or below `ticket`
/// found past the cut point would be silently destroyed, so it is
/// reported as [`StorageError::Corrupt`] before anything is touched.
pub fn truncate_above(dir: &Path, ticket: u64) -> Result<(), StorageError> {
    let stream = stream_dir(dir)?;
    let segments = list_segments(&stream)?;
    let last_index = segments.last().map(|(i, _)| *i);
    let mut cut: Option<(u64, u64)> = None; // (segment, byte offset)
    for (index, path) in &segments {
        let bytes = fs::read(path)?;
        let mut walk = record::walk_meta(&bytes);
        for (meta, range) in walk.by_ref() {
            if meta.seq > ticket {
                cut.get_or_insert((*index, range.start as u64));
            } else if cut.is_some() {
                return Err(StorageError::Corrupt {
                    segment: *index,
                    detail: format!(
                        "ticket {} follows the cut above {ticket}: the log is not \
                         ticket-ascending",
                        meta.seq
                    ),
                });
            }
        }
        // A torn tail in the final segment is the next open's repair.
        if let (Some(e), true) = (walk.error(), Some(*index) != last_index) {
            return Err(StorageError::Corrupt {
                segment: *index,
                detail: format!("{e:?} in non-final segment"),
            });
        }
    }
    let Some((cut_seg, cut_off)) = cut else { return Ok(()) };
    for (index, path) in &segments {
        if *index > cut_seg {
            fs::remove_file(path)?;
        }
    }
    let f = OpenOptions::new().write(true).open(segment_path(&stream, cut_seg))?;
    f.set_len(cut_off)?;
    f.sync_data()?;
    sync_dir(&stream)?;
    Ok(())
}

fn bad_batch(offset: usize, err: FrameError) -> StorageError {
    StorageError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("replication batch rejected at byte {offset}: {err:?}"),
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Names a segment file for tests that hand-write a log.
    pub(crate) fn segment_path(stream: &Path, index: u64) -> PathBuf {
        super::segment_path(stream, index)
    }

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-wal-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&p);
        p
    }

    fn opts() -> WalOptions {
        WalOptions { segment_max_bytes: 256, durability: Durability::Fsync }
    }

    fn segments(dir: &Path) -> Vec<(u64, PathBuf)> {
        super::segments(dir).unwrap()
    }

    #[test]
    fn append_commit_read_roundtrip() {
        let dir = tmp("roundtrip");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        wal.append_begin(1).unwrap();
        wal.append_op(wal.reserve(), 1, 1, &[1, 2, 3]).unwrap();
        wal.commit_txn(1, 9).unwrap();
        drop(wal);
        let (recs, torn) = read_records(&dir).unwrap();
        assert!(!torn);
        assert_eq!(recs.len(), 3);
        assert!(matches!(recs[2].1, LogRecord::Commit { txn: 1, ts: 9, ops: 1, .. }));
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmp("rotate");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        for i in 0..100 {
            wal.append_op(wal.reserve(), i, 1, &[0u8; 32]).unwrap();
            wal.commit_txn(i, i + 1).unwrap();
        }
        let n = segments(&dir).len();
        assert!(n > 2, "expected rotation, got {n} segments");
        let (recs, _) = read_records(&dir).unwrap();
        assert_eq!(recs.len(), 200, "no records lost across rotations");
    }

    /// A rotation whose directory fsync failed has already moved to the
    /// new segment, so the next append does not rotate again. Nothing
    /// may be reported durable until that fsync is redone: `sync` and
    /// the group-commit leader retry it first.
    #[test]
    fn a_failed_rotation_directory_fsync_is_retried_before_anything_is_durable() {
        let dir = tmp("dir-sync");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        wal.append_op(wal.reserve(), 1, 1, &[0u8; 300]).unwrap();
        let full = wal.current_segment();
        wal.dir_sync_faults.store(1, Ordering::SeqCst);
        assert!(wal.append_op(wal.reserve(), 1, 1, b"op").is_err(), "the directory fsync failed");
        assert_eq!(wal.current_segment(), full + 1, "the new segment is in use all the same");
        // The directory is still sick: neither a sync nor a commit may
        // report success.
        wal.dir_sync_faults.store(1, Ordering::SeqCst);
        assert!(wal.sync().is_err());
        wal.dir_sync_faults.store(1, Ordering::SeqCst);
        assert!(wal.commit_txn(1, 1).is_err());
        // Healthy again: the retried fsync lets both through.
        wal.sync().unwrap();
        wal.commit_txn(2, 2).unwrap();
        assert_eq!(wal.current_segment(), full + 1, "no rotation was needed to get here");
    }

    #[test]
    fn torn_tail_in_final_segment_is_tolerated() {
        let dir = tmp("torn");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        wal.commit_txn(1, 1).unwrap();
        drop(wal);
        let last = segments(&dir).pop().unwrap().1;
        let mut f = OpenOptions::new().append(true).open(last).unwrap();
        f.write_all(&[0x55; 7]).unwrap(); // half a header
        drop(f);
        let (recs, torn) = read_records(&dir).unwrap();
        assert!(torn);
        assert!(matches!(
            recs.into_iter().map(|(_, r)| r).collect::<Vec<_>>()[..],
            [LogRecord::Commit { txn: 1, ts: 1, ops: 0, .. }]
        ));
    }

    #[test]
    fn corruption_in_middle_segment_is_an_error() {
        let dir = tmp("corrupt-mid");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        for i in 0..50 {
            wal.append_op(wal.reserve(), i, 1, &[0u8; 32]).unwrap();
            wal.commit_txn(i, i + 1).unwrap();
        }
        drop(wal);
        let segments = segments(&dir);
        assert!(segments.len() >= 3);
        // Damage a byte in the middle of the first segment.
        let victim = &segments[0].1;
        let mut bytes = fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(victim, &bytes).unwrap();
        match read_records(&dir) {
            Err(StorageError::Corrupt { segment, .. }) => assert_eq!(segment, segments[0].0),
            other => panic!("expected corruption error, got {other:?}"),
        }
    }

    #[test]
    fn reopen_truncates_torn_tail_so_new_commits_survive() {
        let dir = tmp("reopen-torn");
        {
            let wal = SegmentedWal::open(&dir, opts()).unwrap();
            wal.commit_txn(1, 1).unwrap();
        }
        // Crash tail: half a frame after the acknowledged commit.
        let last = segments(&dir).pop().unwrap().1;
        {
            let mut f = OpenOptions::new().append(true).open(&last).unwrap();
            f.write_all(&[0x55; 5]).unwrap();
        }
        // Reopen and acknowledge another commit: it must not be appended
        // after the garbage (recovery would stop at the tear and lose it).
        {
            let wal = SegmentedWal::open(&dir, opts()).unwrap();
            wal.commit_txn(2, 2).unwrap();
        }
        let (recs, torn) = read_records(&dir).unwrap();
        assert!(!torn, "open() must have repaired the tear");
        let plain: Vec<LogRecord> = recs.into_iter().map(|(_, r)| r).collect();
        assert!(
            matches!(
                plain[..],
                [
                    LogRecord::Commit { txn: 1, ts: 1, ops: 0, .. },
                    LogRecord::Commit { txn: 2, ts: 2, ops: 0, prev: 1 }
                ]
            ),
            "both acknowledged commits must survive, chained: {plain:?}"
        );
    }

    #[test]
    fn reopen_reanchors_tickets_above_survivors() {
        let dir = tmp("reopen-ticket");
        {
            let wal = SegmentedWal::open(&dir, opts()).unwrap();
            for i in 1..=10u64 {
                wal.append_op(wal.reserve(), i, i % 2, &[1; 4]).unwrap();
                wal.commit_txn(i, i).unwrap();
            }
        }
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        let next = wal.reserve();
        assert!(next > 20, "tickets resume above every surviving record, got {next}");
    }

    #[test]
    fn reopen_appends_after_existing_segments() {
        let dir = tmp("reopen");
        {
            let wal = SegmentedWal::open(&dir, opts()).unwrap();
            wal.commit_txn(1, 1).unwrap();
        }
        {
            let wal = SegmentedWal::open(&dir, opts()).unwrap();
            wal.commit_txn(2, 2).unwrap();
        }
        let (recs, _) = read_records(&dir).unwrap();
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn group_sync_from_many_threads_loses_nothing() {
        let dir = tmp("group");
        let wal = Arc::new(
            SegmentedWal::open(&dir, WalOptions { segment_max_bytes: 1 << 20, ..opts() }).unwrap(),
        );
        let threads = 8;
        let per = 50;
        let mut joins = Vec::new();
        for t in 0..threads {
            let wal = wal.clone();
            joins.push(std::thread::spawn(move || {
                for i in 0..per {
                    let txn = t * per + i + 1;
                    wal.append_begin(txn).unwrap();
                    wal.append_op(wal.reserve(), txn, txn % 7, &[3; 16]).unwrap();
                    wal.commit_txn(txn, txn).unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        drop(wal);
        let (recs, torn) = read_records(&dir).unwrap();
        assert!(!torn);
        let commits = recs.iter().filter(|(_, r)| matches!(r, LogRecord::Commit { .. })).count();
        assert_eq!(commits as u64, threads * per);
    }

    #[test]
    fn prune_respects_live_transactions() {
        let dir = tmp("prune");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        // Txn 999 begins early and stays incomplete.
        wal.append_begin(999).unwrap();
        wal.append_op(wal.reserve(), 999, 1, &[0; 16]).unwrap();
        for i in 0..50 {
            wal.append_op(wal.reserve(), i, 1, &[0u8; 32]).unwrap();
            wal.commit_txn(i, i + 1).unwrap();
        }
        let current = wal.current_segment();
        assert!(current > 2);
        assert_eq!(wal.checkpoint_cut(), 1, "the live txn pins the checkpoint cut too");
        // Pruning everything below the current segment must keep segment 1
        // (txn 999's records live there).
        wal.prune_segments(current).unwrap();
        assert_eq!(segments(&dir).first().unwrap().0, 1, "live txn pinned segment 1");
        // Completing the transaction unpins it.
        wal.append_abort(999).unwrap();
        assert_eq!(wal.checkpoint_cut(), wal.current_segment());
        wal.prune_segments(current).unwrap();
        assert!(segments(&dir).first().unwrap().0 >= current.min(wal.current_segment()));
    }

    #[test]
    fn stats_track_appends_and_checkpoint_reset() {
        let dir = tmp("stats");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        wal.append_begin(1).unwrap();
        wal.commit_txn(1, 1).unwrap();
        let s = wal.stats();
        assert_eq!(s.records_since_checkpoint, 2);
        assert_eq!(s.commits_since_checkpoint, 1);
        assert!(s.total_bytes > s.bytes_at_last_checkpoint);
        wal.mark_checkpoint();
        let s = wal.stats();
        assert_eq!(s.records_since_checkpoint, 0);
        assert_eq!(s.bytes_at_last_checkpoint, s.total_bytes);
    }

    /// `wal.writes` counts every `write(2)` the log issues. A two-op
    /// transaction's begin and op records ride the buffer at both levels,
    /// and each commit pays one write.
    #[test]
    fn a_two_op_transaction_costs_one_write() {
        for durability in [Durability::Buffered, Durability::Fsync] {
            let dir = tmp("writes");
            let metrics = Registry::new();
            let opts = WalOptions { segment_max_bytes: 1 << 20, durability };
            let (wal, ..) = SegmentedWal::open_with_metrics(&dir, opts, &metrics).unwrap();
            let writes = metrics.counter("wal.writes");
            for txn in 1..=3 {
                wal.append_begin(txn).unwrap();
                wal.append_op(wal.reserve(), txn, 1, b"debit").unwrap();
                wal.append_op(wal.reserve(), txn, 2, b"credit").unwrap();
                assert_eq!(writes.get(), txn - 1, "{durability:?}: before commit");
                wal.commit_txn(txn, txn).unwrap();
                assert_eq!(writes.get(), txn, "{durability:?}: after commit");
            }
            drop(wal);
            assert_eq!(writes.get(), 3, "{durability:?}: close finds nothing left to write");
            assert_eq!(read_records(&dir).unwrap().0.len(), 12, "{durability:?}: all on disk");
        }

        // A rotation flushes what the buffer holds, with no commit to carry it.
        let metrics = Registry::new();
        let opts = WalOptions { segment_max_bytes: 1, durability: Durability::Buffered };
        let (wal, ..) =
            SegmentedWal::open_with_metrics(tmp("writes-rotate"), opts, &metrics).unwrap();
        wal.append_begin(1).unwrap();
        assert_eq!(metrics.counter("wal.writes").get(), 0);
        wal.append_op(wal.reserve(), 1, 1, b"op").unwrap();
        assert_eq!(metrics.counter("wal.writes").get(), 1, "the rotation wrote the begin record");
    }

    // ---- externally ticketed feed (the replication follower's log) ----

    fn frame(seq: u64) -> Vec<u8> {
        record::encode(&LogRecord::Begin { txn: seq }, seq)
    }

    fn batch(seqs: &[u64]) -> Vec<u8> {
        seqs.iter().flat_map(|&s| frame(s)).collect()
    }

    fn fed_opts() -> WalOptions {
        WalOptions { segment_max_bytes: 128, durability: Durability::Buffered }
    }

    fn seqs_on_disk(dir: &Path) -> Vec<u64> {
        read_records(dir).unwrap().0.iter().map(|(s, _)| *s).collect()
    }

    #[test]
    fn append_frames_rotate_and_reload() {
        let dir = tmp("fed-basic");
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        let all: Vec<u64> = (1..=50).collect();
        let fresh = wal.append_frames(&batch(&all)).unwrap();
        assert_eq!(fresh.iter().map(|(s, _)| *s).collect::<Vec<_>>(), all, "decoded once");
        assert!(matches!(fresh[6].1, LogRecord::Begin { txn: 7 }));
        assert_eq!(wal.current_ticket(), 51);
        assert!(wal.current_segment() > 2, "a batch rotates frame by frame");
        drop(wal);
        // The raw bytes landed unchanged: the log *is* the batch.
        let on_disk: Vec<u8> =
            segments(&dir).iter().flat_map(|(_, p)| fs::read(p).unwrap()).collect();
        assert_eq!(on_disk, batch(&all));
        let (wal, _, (records, _)) =
            SegmentedWal::open_with_metrics(&dir, fed_opts(), &Registry::new()).unwrap();
        assert_eq!(wal.current_ticket(), 51);
        assert_eq!(records.len(), 50, "one scan serves the restart");
    }

    #[test]
    fn redelivered_frames_are_skipped_idempotently() {
        let dir = tmp("fed-idem");
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        wal.append_frames(&batch(&[1, 2, 3])).unwrap();
        // A reconnect replays an overlapping window: only the new part
        // is appended, and only the new part is handed back.
        let fresh = wal.append_frames(&batch(&[2, 3, 4, 5])).unwrap();
        assert_eq!(fresh.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![4, 5]);
        assert!(wal.append_frames(&batch(&[4, 5])).unwrap().is_empty());
        assert_eq!(seqs_on_disk(&dir), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn corrupt_frame_refuses_the_whole_batch() {
        let dir = tmp("fed-poison");
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        wal.append_frames(&batch(&[1])).unwrap();
        let mut b = batch(&[2, 3]);
        let flip = frame(2).len() + 12; // inside frame 3's body
        b[flip] ^= 0xff;
        assert!(wal.append_frames(&b).is_err());
        // Nothing of the bad batch landed — not even the sound frame 2
        // ahead of the damage — so "appended" and "handed back" agree.
        assert_eq!(wal.current_ticket(), 2);
        assert_eq!(seqs_on_disk(&dir), vec![1]);
        // The re-dialled stream redelivers from the durable position.
        wal.append_frames(&batch(&[2, 3])).unwrap();
        assert_eq!(seqs_on_disk(&dir), vec![1, 2, 3]);
    }

    #[test]
    fn out_of_order_batches_are_refused() {
        let dir = tmp("fed-order");
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        assert!(wal.append_frames(&batch(&[5, 4])).is_err());
        assert!(wal.append_frames(&batch(&[5, 5])).is_err());
        assert!(seqs_on_disk(&dir).is_empty());
    }

    #[test]
    fn torn_tail_is_repaired_on_open() {
        let dir = tmp("fed-torn");
        let wal =
            SegmentedWal::open(&dir, WalOptions { durability: Durability::Fsync, ..fed_opts() })
                .unwrap();
        wal.append_frames(&batch(&(1..=9).collect::<Vec<_>>())).unwrap();
        drop(wal);
        let (_, seg) = segments(&dir).pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 5).unwrap();
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        assert_eq!(wal.current_ticket(), 9, "torn frame 9 dropped");
        // The stream resumes from the durable position.
        wal.append_frames(&batch(&[9, 10])).unwrap();
        assert_eq!(seqs_on_disk(&dir), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn truncate_above_cuts_the_suffix_and_later_segments() {
        let dir = tmp("fed-cut");
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        wal.append_frames(&batch(&(1..=40).collect::<Vec<_>>())).unwrap();
        let fed_segments = wal.current_segment();
        assert!(fed_segments > 4);
        drop(wal);
        truncate_above(&dir, 17).unwrap();
        assert_eq!(seqs_on_disk(&dir), (1..=17).collect::<Vec<_>>());
        assert!((segments(&dir).len() as u64) < fed_segments, "whole later segments go too");
        truncate_above(&dir, 17).unwrap(); // nothing above: a no-op

        // The log keeps appending cleanly after the cut.
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        assert_eq!(wal.current_ticket(), 18);
        wal.append_frames(&batch(&(18..=40).collect::<Vec<_>>())).unwrap();
        drop(wal);
        assert_eq!(seqs_on_disk(&dir), (1..=40).collect::<Vec<_>>());
    }

    #[test]
    fn truncate_above_refuses_a_log_that_is_not_ticket_ascending() {
        let dir = tmp("fed-cut-order");
        // A primary's log may hold ticket 3 *after* ticket 5 (reserve
        // under the object lock, append outside it): a suffix cut there
        // would destroy a record it was asked to keep.
        let stream = dir.join(STREAM_DIR);
        fs::create_dir_all(&stream).unwrap();
        fs::write(segment_path(&stream, 1), batch(&[1, 5, 3, 7])).unwrap();
        match truncate_above(&dir, 4) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // (Reads sort on the ticket whatever order the file holds.)
        assert_eq!(seqs_on_disk(&dir), vec![1, 3, 5, 7], "a refused cut touches nothing");
    }

    /// A log written over two stream directories (frames dealt by
    /// `seq % 2`, a torn tail on the first) is refused by all three entry
    /// points with the typed error, and not a byte of it is touched —
    /// not even the tail repair an open would otherwise perform.
    #[test]
    fn a_two_directory_log_is_refused_at_every_entry_point_untouched() {
        let dir = tmp("two-dirs");
        let second = dir.join("stripe-01");
        for (s, sdir) in [dir.join(STREAM_DIR), second.clone()].iter().enumerate() {
            fs::create_dir_all(sdir).unwrap();
            let mut bytes: Vec<u8> =
                (1..=8).filter(|q| q % 2 == s as u64).flat_map(frame).collect();
            if s == 0 {
                bytes.extend_from_slice(&[0x55; 5]);
            }
            fs::write(segment_path(sdir, 1), bytes).unwrap();
        }
        let on_disk = || -> Vec<(PathBuf, Vec<u8>)> {
            let mut files = Vec::new();
            for sdir in fs::read_dir(&dir).unwrap() {
                for f in fs::read_dir(sdir.unwrap().path()).unwrap() {
                    let path = f.unwrap().path();
                    files.push((path.clone(), fs::read(path).unwrap()));
                }
            }
            files.sort();
            files
        };
        let before = on_disk();
        assert_eq!(before.len(), 2);
        let refused = |r: Result<(), StorageError>| match r {
            Err(StorageError::StripedLayout { dir }) => assert_eq!(dir, second),
            other => panic!("expected StripedLayout, got {other:?}"),
        };
        refused(SegmentedWal::open(&dir, opts()).map(drop));
        refused(read_records(&dir).map(drop));
        refused(truncate_above(&dir, 3));
        assert_eq!(on_disk(), before, "a refused log is left exactly as found");

        // An empty leftover directory is not a second stream.
        fs::remove_file(segment_path(&second, 1)).unwrap();
        assert_eq!(seqs_on_disk(&dir), vec![2, 4, 6, 8]);
    }
}
