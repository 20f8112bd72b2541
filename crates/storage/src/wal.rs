//! The striped, segmented write-ahead log: ticketed appends over N
//! object-affine stripes, per-stripe leader-based group commit, segment
//! rotation, and torn-tail-tolerant scanning.
//!
//! ## Stripes and tickets
//!
//! The log is split into `stripes` independent append streams, each its
//! own directory of segment files with its own mutex, buffer, and group
//! -commit leader — the classic lock-decomposition answer to the single
//! append mutex becoming the bottleneck ahead of the fsync. Routing is
//! **object-affine**: an op (and the `Register` record binding its id)
//! always lands on the stripe `object_id % stripes`, so one object's
//! records never spread over stripes and their within-stripe order is a
//! superset of nothing — every per-object ordering obligation lives in
//! one file. Begin/abort records route by transaction id; a commit record
//! routes to the transaction's **single op stripe** when it touched only
//! one (the common case — its ops are physically earlier in the same
//! file, so one fsync covers both), falling back to the transaction's
//! stripe otherwise.
//!
//! Every record is stamped with a ticket from one global monotone counter
//! ([`SegmentedWal::reserve`]); recovery merges the stripes back into a
//! deterministic total order by sorting on it. Callers that must
//! preserve an execution order reserve the ticket while holding the lock
//! that defines that order (the object lock, for redo records) and
//! append outside it — the physical append order within a stripe may
//! then disagree with ticket order, and that is fine: the merge sorts.
//!
//! ## Group commit
//!
//! Per stripe, concurrent committers do not each pay an fsync. A
//! committer appends its completion record, then joins the stripe's sync
//! protocol: if a sync is already running it waits; otherwise it becomes
//! the *leader*, snapshots the stripe's highest flushed position, fsyncs
//! once, publishes the new durable position, and wakes everyone. Commits
//! that arrive while a sync is in flight batch up behind it — one fsync
//! per batch per stripe, and stripes sync in parallel.
//!
//! Before its commit record may become durable, a transaction's op
//! records must be durable on every stripe they landed on; the commit
//! path pre-syncs the other dirty stripes first. Losing cross-stripe
//! write-ahead ordering under `Durability::None` is tolerated by
//! recovery: commit records carry their op count, and a commit with
//! missing ops is dropped as incompletely durable.
//!
//! ## Rotation
//!
//! A segment that exceeds `segment_max_bytes` is finished: flushed,
//! fsynced (so earlier records can never be less durable than later
//! ones), and a new segment file is opened. Whole dead segments are
//! deleted by checkpointing (see `store`).

use crate::record::{self, FrameError, LogRecord};
use crate::StorageError;
use hcc_core::runtime::Durability;
use hcc_obs::{Counter, Histogram, Registry};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Flush threshold for `Durability::None` (bounds process-buffer growth).
const NONE_FLUSH_BYTES: usize = 64 * 1024;

/// Upper bound on the stripe count (dirty-stripe sets are u64 bitmasks).
pub const MAX_STRIPES: usize = 64;

/// Construction options for [`SegmentedWal`].
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Rotate to a fresh segment once the active one exceeds this size.
    pub segment_max_bytes: u64,
    /// How durable completion records must be before `commit` returns.
    pub durability: Durability,
    /// Number of append stripes (clamped to `1..=64`). `1` is
    /// byte-for-byte the pre-striping log modulo the directory layout.
    pub stripes: usize,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions { segment_max_bytes: 4 * 1024 * 1024, durability: Durability::Fsync, stripes: 1 }
    }
}

struct Inner {
    file: std::sync::Arc<File>,
    seg_index: u64,
    seg_bytes: u64,
    /// Process-local buffer of encoded-but-unwritten records.
    buf: Vec<u8>,
    /// Physical append position (records appended to this stripe so far).
    /// Distinct from the global ticket: this is what the stripe's sync
    /// protocol tracks, and it is strictly monotone in *append* order.
    next_pos: u64,
    /// Lowest segment holding records of each incomplete transaction.
    live_low: HashMap<u64, u64>,
    // ---- statistics for the compaction policy -------------------------
    commits_since_ckpt: u64,
    records_since_ckpt: u64,
    bytes_since_ckpt: u64,
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

/// The metric handles one stripe bumps on its hot paths, resolved once at
/// open so appends never touch the registry's name map. The per-stripe
/// append counter is distinct per stripe (`wal.appends.stripeNN`); the
/// rotation counter and the fsync/batch histograms are shared across
/// stripes (stripes sync in parallel, the histograms are sharded).
struct StripeInstruments {
    appends: std::sync::Arc<Counter>,
    rotations: std::sync::Arc<Counter>,
    fsync_nanos: std::sync::Arc<Histogram>,
    batch: std::sync::Arc<Histogram>,
}

impl StripeInstruments {
    fn resolve(metrics: &Registry, stripe: usize) -> StripeInstruments {
        StripeInstruments {
            appends: metrics.counter(&format!("wal.appends.stripe{stripe:02}")),
            rotations: metrics.counter("wal.rotations"),
            fsync_nanos: metrics.histogram("wal.fsync_nanos"),
            batch: metrics.histogram("wal.group_commit.batch"),
        }
    }
}

/// One append stripe: its own segment directory, buffer, and group-commit
/// protocol.
struct Stripe {
    dir: PathBuf,
    inner: Mutex<Inner>,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    ins: StripeInstruments,
}

/// Per-live-transaction bookkeeping at the striped level.
#[derive(Clone, Copy, Default)]
struct TxnTrack {
    /// Bitmask of stripes holding this transaction's op records.
    op_stripes: u64,
    /// Op records appended for this transaction (stamped into its commit
    /// record so recovery can detect a partially lost transaction).
    ops: u32,
}

/// The decoded record image of an open-time scan: the surviving records
/// in merged ticket order, and whether any stripe dropped a torn tail.
pub type OpenRecords = (Vec<(u64, LogRecord)>, bool);

/// A striped, segmented, CRC-framed, group-committing write-ahead log.
pub struct SegmentedWal {
    dir: PathBuf,
    opts: WalOptions,
    stripes: Vec<Stripe>,
    /// The global ticket counter: the *next* ticket to hand out.
    ticket: AtomicU64,
    /// Live transactions' dirty-stripe masks and op counts.
    txns: Mutex<HashMap<u64, TxnTrack>>,
    /// What the open-time scan learned (watermarks + registry bindings)
    /// — the store reads this instead of re-scanning the segments it
    /// just opened.
    open_scan: OpenScan,
    /// The fully decoded records of that same open-time scan, in merged
    /// ticket order, plus the torn-tail flag — retained so the *one*
    /// pass over the surviving segments serves both clock/id seeding and
    /// recovery materialization. Taken (once) by the store's recovery
    /// path; dropped when the caller attests absorption.
    open_image: Mutex<Option<OpenRecords>>,
    /// The commit chain: ticket of the most recently reserved commit
    /// record (any stripe). Each commit record carries its predecessor's
    /// ticket so recovery can reject chain holes — the cross-stripe
    /// analogue of "a tail cut only removes a suffix".
    chain: Mutex<u64>,
    /// Commit records whose append failed after their chain ticket was
    /// reserved: the compensating durable abort reuses the ticket, so the
    /// chain stays linkable for every later commit.
    failed_commits: Mutex<HashMap<u64, u64>>,
    /// Highest chain ticket whose durability is *settled* (synced to the
    /// configured level, or declared dead by a failed append). Advances
    /// strictly in chain order — each commit settles only after its
    /// predecessor has — and commits are acknowledged only once settled,
    /// so acknowledgement order equals chain order. That is what entitles
    /// recovery to read a chain hole as "this commit and everything
    /// chained after it was never acknowledged".
    chain_settled: Mutex<u64>,
    chain_settled_cv: Condvar,
}

/// `stripe-03`
pub(crate) fn stripe_dir(dir: &Path, stripe: usize) -> PathBuf {
    dir.join(format!("stripe-{stripe:02}"))
}

/// `seg-00000042.wal`
pub(crate) fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:08}.wal"))
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

/// All stripe directories under `dir` (`stripe-NN`), sorted by index.
/// Reads whatever is on disk, regardless of the stripe count the log is
/// currently opened with — recovery is stripe-count-agnostic because the
/// merge order comes from tickets, not from routing.
pub fn stripe_dirs(dir: &Path) -> std::io::Result<Vec<(usize, PathBuf)>> {
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
        if let Some(idx) = name.strip_prefix("stripe-") {
            if let Ok(index) = idx.parse::<usize>() {
                out.push((index, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// All segment files under one stripe directory, sorted by index.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
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
        if let Some(idx) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".wal")) {
            if let Ok(index) = idx.parse::<u64>() {
                out.push((index, entry.path()));
            }
        }
    }
    out.sort();
    Ok(out)
}

impl Stripe {
    /// Open one stripe (created if missing), truncating a torn tail off
    /// its active segment. The ticket/chain anchor scan over the repaired
    /// segments happens afterwards in [`SegmentedWal::open`].
    fn open(dir: PathBuf, ins: StripeInstruments) -> Result<Stripe, StorageError> {
        fs::create_dir_all(&dir)?;
        let segments = list_segments(&dir)?;
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
        let seg_file = segment_path(&dir, seg_index);
        let created = !seg_file.exists();
        let file = OpenOptions::new().create(true).append(true).open(&seg_file)?;
        if created {
            sync_dir(&dir)?;
        }
        let n_segments = segments.len().max(1) as u64;
        Ok(Stripe {
            dir,
            inner: Mutex::new(Inner {
                file: std::sync::Arc::new(file),
                seg_index,
                seg_bytes,
                buf: Vec::new(),
                next_pos: 1,
                live_low: HashMap::new(),
                commits_since_ckpt: 0,
                records_since_ckpt: 0,
                bytes_since_ckpt: 0,
                bytes_at_last_ckpt: total_bytes,
                total_bytes: total_bytes.max(seg_bytes),
                segments: n_segments,
            }),
            sync_state: Mutex::new(SyncState {
                synced_pos: 0,
                sync_running: false,
                max_requested: 0,
            }),
            sync_cv: Condvar::new(),
            ins,
        })
    }

    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_sync(&self) -> std::sync::MutexGuard<'_, SyncState> {
        self.sync_state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Write the process buffer to the OS.
    fn flush_locked(inner: &mut Inner) -> std::io::Result<()> {
        if !inner.buf.is_empty() {
            (&*inner.file).write_all(&inner.buf)?;
            inner.buf.clear();
        }
        Ok(())
    }

    /// Finish the active segment (flush + fsync) and open the next one.
    /// Everything written so far becomes durable, so `synced_pos` advances.
    fn rotate_locked(&self, inner: &mut Inner) -> std::io::Result<()> {
        Self::flush_locked(inner)?;
        inner.file.sync_data()?;
        self.ins.rotations.inc();
        let durable_pos = inner.next_pos - 1;
        inner.seg_index += 1;
        inner.segments += 1;
        inner.seg_bytes = 0;
        inner.file = std::sync::Arc::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&self.dir, inner.seg_index))?,
        );
        // The new segment file must survive a crash as a directory entry,
        // or recovery finds records referencing a segment that vanished.
        sync_dir(&self.dir)?;
        let mut s = self.lock_sync();
        s.synced_pos = s.synced_pos.max(durable_pos);
        drop(s);
        self.sync_cv.notify_all();
        Ok(())
    }

    /// Encode and append one ticketed record; returns its append position.
    fn append_locked(
        &self,
        inner: &mut Inner,
        rec: &LogRecord,
        seq: u64,
        segment_max_bytes: u64,
    ) -> std::io::Result<u64> {
        if inner.seg_bytes >= segment_max_bytes {
            self.rotate_locked(inner)?;
        }
        self.ins.appends.inc();
        let pos = inner.next_pos;
        inner.next_pos += 1;
        let before = inner.buf.len();
        record::encode_into(rec, seq, &mut inner.buf);
        let encoded = (inner.buf.len() - before) as u64;
        inner.seg_bytes += encoded;
        inner.total_bytes += encoded;
        inner.bytes_since_ckpt += encoded;
        inner.records_since_ckpt += 1;
        match rec {
            LogRecord::Begin { txn } | LogRecord::Op { txn, .. } => {
                let seg = inner.seg_index;
                inner.live_low.entry(*txn).or_insert(seg);
            }
            LogRecord::Commit { txn, .. } => {
                inner.commits_since_ckpt += 1;
                inner.live_low.remove(txn);
            }
            LogRecord::Abort { txn } => {
                inner.live_low.remove(txn);
            }
            LogRecord::Register { .. } => {}
        }
        Ok(pos)
    }

    /// Append a non-completion record, buffered per the durability level.
    fn append(&self, rec: &LogRecord, seq: u64, opts: &WalOptions) -> Result<(), StorageError> {
        let mut inner = self.lock_inner();
        self.append_locked(&mut inner, rec, seq, opts.segment_max_bytes)?;
        match opts.durability {
            // Under `Fsync`, op records ride in the process buffer like
            // `None`'s: the sync leader flushes everything before any
            // fsync, so they never need their own write syscall.
            Durability::None | Durability::Fsync => {
                if inner.buf.len() >= NONE_FLUSH_BYTES {
                    Self::flush_locked(&mut inner)?;
                }
            }
            Durability::Buffered => Self::flush_locked(&mut inner)?,
        }
        Ok(())
    }

    /// Append a completion record with the configured durability: under
    /// `Fsync` this blocks until the record is on disk — one fsync per
    /// concurrent batch per stripe (leader-based group commit).
    fn commit(&self, rec: &LogRecord, seq: u64, opts: &WalOptions) -> Result<(), StorageError> {
        debug_assert!(rec.is_completion());
        let mut inner = self.lock_inner();
        let pos = self.append_locked(&mut inner, rec, seq, opts.segment_max_bytes)?;
        match opts.durability {
            Durability::None => Ok(()),
            Durability::Buffered => {
                Self::flush_locked(&mut inner)?;
                Ok(())
            }
            Durability::Fsync => {
                // No flush here: the sync leader flushes the shared
                // buffer under the stripe lock before it snapshots the
                // high-water mark, so this record is covered by
                // whichever fsync it waits for.
                drop(inner);
                self.group_sync(pos)
            }
        }
    }

    /// Make everything appended to this stripe so far as durable as
    /// `level` requires — the cross-stripe write-ahead step a commit
    /// takes for each stripe holding its op records.
    fn settle(&self, level: Durability) -> Result<(), StorageError> {
        match level {
            Durability::None => Ok(()),
            Durability::Buffered => {
                let mut inner = self.lock_inner();
                Self::flush_locked(&mut inner)?;
                Ok(())
            }
            Durability::Fsync => {
                let pos = self.lock_inner().next_pos - 1;
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
        let mut s = self.lock_sync();
        s.max_requested = s.max_requested.max(my_pos);
        loop {
            if s.synced_pos >= my_pos {
                return Ok(());
            }
            if s.sync_running {
                s = self.sync_cv.wait(s).unwrap_or_else(std::sync::PoisonError::into_inner);
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
                        let mut inner = self.lock_inner();
                        Self::flush_locked(&mut inner)?;
                        (inner.next_pos - 1, inner.file.clone())
                    };
                    let started = std::time::Instant::now();
                    file.sync_data()?;
                    self.ins.fsync_nanos.observe_duration(started.elapsed());
                    Ok(high)
                })();
                s = self.lock_sync();
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
}

impl SegmentedWal {
    /// Open the log in `dir` (created if missing). Each stripe appends to
    /// its highest existing segment or starts segment 1; the global
    /// ticket counter is re-anchored above every ticket surviving on disk
    /// (and the caller should raise it further with
    /// [`SegmentedWal::witness_ticket`] when a checkpoint recorded a
    /// higher watermark — pruning may have deleted the segments that held
    /// the highest tickets).
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions) -> Result<SegmentedWal, StorageError> {
        Self::open_with_metrics(dir, opts, &Registry::new())
    }

    /// [`SegmentedWal::open`] with the owning system's metric registry:
    /// per-stripe append counters, rotation counts, and the group-commit
    /// batch/fsync histograms are resolved from it once, at open (the
    /// plain `open` uses a private throwaway registry).
    pub fn open_with_metrics(
        dir: impl AsRef<Path>,
        opts: WalOptions,
        metrics: &Registry,
    ) -> Result<SegmentedWal, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        let mut opts = opts;
        opts.stripes = opts.stripes.clamp(1, MAX_STRIPES);
        fs::create_dir_all(&dir)?;
        // Open every stripe present on disk plus every stripe the options
        // ask for: reopening with a different stripe count only changes
        // where *new* records route; old stripes keep being read, pruned,
        // and (for low indexes) appended to.
        let on_disk = stripe_dirs(&dir)?;
        let count = opts.stripes.max(on_disk.iter().map(|(i, _)| i + 1).max().unwrap_or(0));
        let count = count.clamp(1, MAX_STRIPES);
        let mut stripes = Vec::with_capacity(count);
        for i in 0..count {
            stripes
                .push(Stripe::open(stripe_dir(&dir, i), StripeInstruments::resolve(metrics, i))?);
        }
        // One full pass over every surviving (tail-repaired) segment:
        // re-anchors the ticket counter (reusing a ticket would make the
        // recovery merge ambiguous, exactly like reusing a transaction
        // id) and the commit chain (the next commit links to the highest
        // surviving commit ticket), collects the watermarks + registry
        // bindings the store needs, **and retains the decoded records**
        // so the recovery path materializes from this same pass instead
        // of re-reading every segment — opening a store reads each
        // segment exactly once, recovery included.
        let (records, torn) = read_records(&dir)?;
        let scan = OpenScan::from_records(&records);
        let wal = SegmentedWal {
            dir,
            opts,
            stripes,
            ticket: AtomicU64::new(scan.max_seq + 1),
            txns: Mutex::new(HashMap::new()),
            chain: Mutex::new(scan.max_commit_seq),
            failed_commits: Mutex::new(HashMap::new()),
            chain_settled: Mutex::new(scan.max_commit_seq),
            chain_settled_cv: Condvar::new(),
            open_scan: scan,
            open_image: Mutex::new(Some((records, torn))),
        };
        Ok(wal)
    }

    /// What the open-time metadata pass learned: recovery watermarks and
    /// registry bindings of the surviving log.
    pub fn open_scan(&self) -> &OpenScan {
        &self.open_scan
    }

    /// Take the decoded record image of the open-time scan (merged
    /// ticket order, plus the torn-tail flag). `Some` exactly once: the
    /// store claims it right after opening so one disk pass serves both
    /// open seeding and recovery materialization; later calls get `None`
    /// and must re-read.
    pub fn take_open_image(&self) -> Option<OpenRecords> {
        self.open_image.lock().unwrap_or_else(std::sync::PoisonError::into_inner).take()
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The number of stripes this log routes over.
    pub fn stripe_count(&self) -> usize {
        // Routing uses the configured count; extra on-disk stripes are
        // read/pruned but receive no new records.
        self.opts.stripes
    }

    /// Raise the ticket counter so the next reserved ticket is at least
    /// `floor` — called by the store with the checkpoint's recorded
    /// watermark, since compaction may have deleted the segments that
    /// held the highest tickets.
    pub fn witness_ticket(&self, floor: u64) {
        self.ticket.fetch_max(floor, Ordering::Relaxed);
    }

    /// Raise the commit-chain anchor to at least `floor` (the
    /// checkpoint's recorded chain watermark — the chain link below it
    /// may have been pruned).
    pub fn witness_chain(&self, floor: u64) {
        let mut chain = self.chain.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *chain = (*chain).max(floor);
        drop(chain);
        let mut settled =
            self.chain_settled.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *settled = (*settled).max(floor);
    }

    /// The ticket of the most recently chained commit record — the
    /// commit-chain watermark a fuzzy checkpoint records. Taken under
    /// the caller's exclusive commit gate, so no commit is mid-chain.
    pub fn commit_chain(&self) -> u64 {
        *self.chain.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
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

    fn stripe_for_object(&self, obj: u64) -> usize {
        (obj % self.opts.stripes as u64) as usize
    }

    fn stripe_for_txn(&self, txn: u64) -> usize {
        (txn % self.opts.stripes as u64) as usize
    }

    fn lock_txns(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TxnTrack>> {
        self.txns.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Append a Begin record (buffered; routed by transaction id).
    pub fn append_begin(&self, txn: u64) -> Result<(), StorageError> {
        let seq = self.reserve();
        let s = self.stripe_for_txn(txn);
        self.stripes[s].append(&LogRecord::Begin { txn }, seq, &self.opts)
    }

    /// Append a Register record (buffered; routed by registry id, the
    /// same stripe the id's op records will land on — a torn tail that
    /// keeps an op always keeps its binding).
    pub fn append_register(&self, id: u64, name: &str) -> Result<(), StorageError> {
        let seq = self.reserve();
        let s = self.stripe_for_object(id);
        self.stripes[s].append(&LogRecord::Register { id, name: name.to_string() }, seq, &self.opts)
    }

    /// Append one op record under a pre-reserved ticket (buffered; routed
    /// by object id). The write-ahead discipline only requires op records
    /// to reach disk before the *commit* record does, which the commit
    /// path's cross-stripe settle guarantees.
    pub fn append_op(&self, seq: u64, txn: u64, obj: u64, op: &[u8]) -> Result<(), StorageError> {
        let s = self.stripe_for_object(obj);
        self.stripes[s].append(&LogRecord::Op { txn, obj, op: op.to_vec() }, seq, &self.opts)?;
        // Count only after a successful append: the commit record's op
        // count must equal what is actually in the log (a failed append
        // retried by the caller increments exactly once, on the retry).
        let mut txns = self.lock_txns();
        let track = txns.entry(txn).or_default();
        track.op_stripes |= 1 << s;
        track.ops += 1;
        Ok(())
    }

    /// Append an ordinary Abort record (buffered — recovery never replays
    /// uncommitted transactions, so it only unpins segments). Never
    /// reuses a failed commit's chain ticket: a chain-repair record must
    /// be at least as durable as the commits chained past it, which only
    /// the durable [`SegmentedWal::commit_abort`] path guarantees.
    pub fn append_abort(&self, txn: u64) -> Result<(), StorageError> {
        let (home, mask) = self.finish_txn(txn);
        let seq = self.reserve();
        self.stripes[home].append(&LogRecord::Abort { txn }, seq, &self.opts)?;
        self.unpin_live(txn, mask | (1 << home));
        Ok(())
    }

    /// Durably append an Abort record (the compensating record written
    /// when a commit fsync failed: recovery's abort-wins rule needs it to
    /// survive).
    pub fn commit_abort(&self, txn: u64) -> Result<(), StorageError> {
        let (home, mask) = self.finish_txn(txn);
        let (seq, reused) = self.abort_ticket(txn);
        self.stripes[home].commit(&LogRecord::Abort { txn }, seq, &self.opts)?;
        self.consume_failed_commit(txn, reused);
        self.unpin_live(txn, mask | (1 << home));
        Ok(())
    }

    /// The ticket for an abort record of `txn`: a fresh one, unless a
    /// commit append for `txn` failed after chaining — then the abort
    /// reuses that ticket, filling the chain hole the failed commit left
    /// (recovery treats an abort at a `prev` link as a valid, dead link).
    /// The `failed_commits` entry is only consumed once the abort record
    /// actually appended ([`SegmentedWal::consume_failed_commit`]): a
    /// failed compensating abort leaves the entry for the next attempt,
    /// instead of leaving a permanent chain hole.
    fn abort_ticket(&self, txn: u64) -> (u64, bool) {
        let reused = self
            .failed_commits
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&txn)
            .copied();
        match reused {
            Some(seq) => (seq, true),
            None => (self.reserve(), false),
        }
    }

    /// Clear a reused failed-commit ticket after its repair record hit
    /// the log.
    fn consume_failed_commit(&self, txn: u64, reused: bool) {
        if reused {
            self.failed_commits
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&txn);
        }
    }

    /// The ack barrier: block until every chain predecessor of the commit
    /// reserved as `(prev → seq)` is settled, then settle `seq` itself.
    /// Called after the commit record reached its configured durability
    /// (or after its append failed — a dead ticket settles too, so
    /// successors never hang). This is what aligns *acknowledgement*
    /// order with chain order: without it, a commit on a fast stripe
    /// could be acknowledged while its chain predecessor on a slow
    /// stripe was still buffered, and a crash in that window would make
    /// recovery's chain walk discard an acknowledged commit.
    fn settle_chain(&self, prev: u64, seq: u64) {
        let mut settled =
            self.chain_settled.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *settled < prev {
            settled = self
                .chain_settled_cv
                .wait(settled)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *settled = (*settled).max(seq);
        drop(settled);
        self.chain_settled_cv.notify_all();
    }

    /// Durably log that `txn` committed at `ts`: the transaction's op
    /// stripes are settled first (write-ahead across stripes), then the
    /// commit record — carrying the op count — is appended and synced per
    /// the configured durability, group-committed per stripe under
    /// `Fsync`. Returns only once the record is as durable as the level
    /// requires.
    pub fn commit_txn(&self, txn: u64, ts: u64) -> Result<(), StorageError> {
        let track = self.lock_txns().remove(&txn).unwrap_or_default();
        // A single-op-stripe transaction commits *on its op stripe*: the
        // ops are physically earlier in the same file, so the one group
        // sync covers both and no cross-stripe settle is needed.
        let home = if track.op_stripes.count_ones() == 1 {
            track.op_stripes.trailing_zeros() as usize
        } else {
            self.stripe_for_txn(txn)
        };
        let mut settle_mask = track.op_stripes & !(1 << home);
        while settle_mask != 0 {
            let s = settle_mask.trailing_zeros() as usize;
            settle_mask &= settle_mask - 1;
            if let Err(e) = self.stripes[s].settle(self.opts.durability) {
                // No chain ticket was reserved yet; just restore the
                // tracking entry so the caller's compensating abort can
                // unpin the op stripes (a lost pin would clamp compaction
                // on those stripes forever).
                self.lock_txns().insert(txn, track);
                return Err(e);
            }
        }
        // Reserve the ticket and link the chain in one atomic step: the
        // chain order is the ack-dependency order (a commit acknowledged
        // before another executed is chained before it), which is what
        // lets recovery treat a chain hole as "discard this and every
        // later commit".
        let (seq, prev) = {
            let mut chain = self.chain.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            let seq = self.reserve();
            let prev = *chain;
            *chain = seq;
            (seq, prev)
        };
        let rec = LogRecord::Commit { txn, ts, ops: track.ops, prev };
        if let Err(e) = self.stripes[home].commit(&rec, seq, &self.opts) {
            // The chain now names a ticket that may never reach disk.
            // Before settling it (successors ack once their predecessors
            // are settled), repair the slot *durably*: a dead link must be
            // at least as durable as the commits that will chain past it,
            // or a crash could open a hole under acknowledged successors.
            // If even the repair fails, remember the ticket for the
            // caller's compensating durable abort and settle anyway —
            // blocking every later commit on a sick stripe helps nobody,
            // and the caller reports the outcome as indeterminate.
            let repair = LogRecord::Abort { txn };
            if self.stripes[home].commit(&repair, seq, &self.opts).is_err() {
                self.failed_commits
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .insert(txn, seq);
            }
            self.lock_txns().insert(txn, track);
            self.settle_chain(prev, seq);
            return Err(e);
        }
        // Acknowledge only in chain order: our record is durable, but the
        // ack must additionally wait for every chained predecessor (its
        // fsync runs concurrently on its own stripe), or a crash after
        // this return could lose a predecessor recovery needs to accept
        // this commit.
        self.settle_chain(prev, seq);
        let home_bit = 1u64 << home;
        let begin_bit = 1u64 << self.stripe_for_txn(txn);
        self.unpin_live(txn, (track.op_stripes | home_bit | begin_bit) & !home_bit);
        Ok(())
    }

    /// Pop a transaction's tracking entry, returning its home stripe and
    /// dirty mask (for completion records that are not commits).
    fn finish_txn(&self, txn: u64) -> (usize, u64) {
        let track = self.lock_txns().remove(&txn).unwrap_or_default();
        (self.stripe_for_txn(txn), track.op_stripes)
    }

    /// Remove `txn`'s live-low pins on every stripe in `mask` (the stripe
    /// that appended the completion record already removed its own).
    fn unpin_live(&self, txn: u64, mut mask: u64) {
        while mask != 0 {
            let s = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if let Some(stripe) = self.stripes.get(s) {
                stripe.lock_inner().live_low.remove(&txn);
            }
        }
    }

    /// Feed the log a batch of concatenated raw frames that already
    /// carry their tickets — the replication follower's append. The
    /// whole batch is verified first (every CRC, strictly ascending
    /// `seq`) and a bad batch is refused with **nothing** appended, so
    /// the caller's applied position can never part from the log's.
    /// Frames at or below the last ticket are re-deliveries and are
    /// skipped; the rest are appended byte for byte, in arrival order,
    /// to stripe 0 (one ordered feed has nothing to parallelise — and
    /// it keeps every stripe file ticket-ascending, which is what lets
    /// [`truncate_above`] cut a clean suffix). One flush per batch, an
    /// fsync under `Durability::Fsync`, and the ticket counter ends
    /// above the batch. Returns the freshly appended records, decoded,
    /// in ticket order.
    pub fn append_frames(&self, frames: &[u8]) -> Result<Vec<(u64, LogRecord)>, StorageError> {
        let stripe = &self.stripes[0];
        let mut inner = stripe.lock_inner();
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
        // The raw twin of `Stripe::append_locked`: rotation, sizes and
        // positions are kept; the compaction-policy counters and the
        // live-transaction pins are not — a fed log is never
        // checkpointed in place.
        for end in ends {
            if inner.seg_bytes >= self.opts.segment_max_bytes {
                stripe.rotate_locked(&mut inner)?;
            }
            stripe.ins.appends.inc();
            inner.next_pos += 1;
            inner.buf.extend_from_slice(&frames[start..end]);
            inner.seg_bytes += (end - start) as u64;
            inner.total_bytes += (end - start) as u64;
            start = end;
        }
        Stripe::flush_locked(&mut inner)?;
        drop(inner);
        if let Some((seq, _)) = fresh.last() {
            self.witness_ticket(seq + 1);
        }
        // Re-deliveries sync too (an earlier batch's fsync may be what
        // failed); an empty batch — a heartbeat — has nothing to.
        if self.opts.durability == Durability::Fsync && !frames.is_empty() {
            self.sync()?;
        }
        Ok(fresh)
    }

    /// Flush every stripe's buffer and fsync its active segment.
    pub fn sync(&self) -> Result<(), StorageError> {
        for stripe in &self.stripes {
            let file = {
                let mut inner = stripe.lock_inner();
                Stripe::flush_locked(&mut inner)?;
                inner.file.clone()
            };
            file.sync_data()?;
        }
        Ok(())
    }

    /// The active segment index of one stripe.
    pub fn current_segment(&self, stripe: usize) -> u64 {
        self.stripes[stripe].lock_inner().seg_index
    }

    /// The fuzzy-checkpoint cut vector: for each stripe, the highest
    /// segment index that may be pruned up to (exclusive) once the
    /// checkpoint's snapshots are durable — the active segment, clamped
    /// below any segment still holding records of an incomplete
    /// transaction. Must be taken while commits are quiesced (the
    /// manager's brief exclusive gate): every commit at or below the
    /// checkpoint watermark is then fully appended, and every record of a
    /// *later* commit is either pinned here (its transaction is still
    /// live) or will be appended at or above the cut.
    pub fn checkpoint_cuts(&self) -> Vec<u64> {
        self.stripes
            .iter()
            .map(|s| {
                let inner = s.lock_inner();
                let pin = inner.live_low.values().min().copied().unwrap_or(u64::MAX);
                inner.seg_index.min(pin)
            })
            .collect()
    }

    /// Current aggregate statistics for the compaction policy.
    pub fn stats(&self) -> crate::policy::LogStats {
        let mut out = crate::policy::LogStats::default();
        for stripe in &self.stripes {
            let inner = stripe.lock_inner();
            out.commits_since_checkpoint += inner.commits_since_ckpt;
            out.records_since_checkpoint += inner.records_since_ckpt;
            out.bytes_since_checkpoint += inner.bytes_since_ckpt;
            out.bytes_at_last_checkpoint += inner.bytes_at_last_ckpt;
            out.total_bytes += inner.total_bytes;
            out.segments += inner.segments;
        }
        out
    }

    /// Reset the policy counters after a checkpoint.
    pub fn mark_checkpoint(&self) {
        for stripe in &self.stripes {
            let mut inner = stripe.lock_inner();
            inner.commits_since_ckpt = 0;
            inner.records_since_ckpt = 0;
            inner.bytes_since_ckpt = 0;
            inner.bytes_at_last_ckpt = inner.total_bytes;
        }
    }

    /// Delete, per stripe, every segment with index `< cuts[stripe]`,
    /// clamped so segments still referenced by incomplete transactions
    /// survive. Returns the number of segments deleted.
    pub fn prune_segments(&self, cuts: &[u64]) -> Result<u64, StorageError> {
        let mut deleted = 0;
        for (i, stripe) in self.stripes.iter().enumerate() {
            let upto = cuts.get(i).copied().unwrap_or(0);
            let mut inner = stripe.lock_inner();
            let bound = inner.live_low.values().min().copied().unwrap_or(u64::MAX).min(upto);
            for (idx, path) in list_segments(&stripe.dir)? {
                if idx >= bound || idx == inner.seg_index {
                    continue;
                }
                let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(&path)?;
                inner.total_bytes = inner.total_bytes.saturating_sub(len);
                inner.segments = inner.segments.saturating_sub(1);
                deleted += 1;
            }
        }
        Ok(deleted)
    }
}

impl Drop for SegmentedWal {
    /// Orderly close: push every stripe's buffer to the OS so only a real
    /// crash — not a clean shutdown — can lose `Durability::None` records.
    fn drop(&mut self) {
        for stripe in &self.stripes {
            let mut inner = stripe.lock_inner();
            let _ = Stripe::flush_locked(&mut inner);
        }
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
    /// half; the image itself is retained for recovery).
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

/// Read every record from every stripe under `dir`, merged into the
/// global ticket order. A torn or corrupt frame in a stripe's **final**
/// segment truncates that stripe's scan there (crash tail); the same
/// anywhere else is reported as corruption. Returns `(seq, record)`
/// pairs, ticket-sorted, and whether any stripe dropped a torn tail.
pub fn read_records(dir: &Path) -> Result<(Vec<(u64, LogRecord)>, bool), StorageError> {
    let mut out = Vec::new();
    let mut torn = false;
    for (_, sdir) in stripe_dirs(dir)? {
        let segments = list_segments(&sdir)?;
        let last_index = segments.last().map(|(i, _)| *i);
        for (index, path) in &segments {
            let bytes = fs::read(path)?;
            let (records, err) = record::decode_all(&bytes);
            out.extend(records);
            match err {
                None => {}
                Some(FrameError::Truncated) if bytes.is_empty() => {}
                Some(e) => {
                    if Some(*index) == last_index {
                        torn = true;
                    } else {
                        return Err(StorageError::Corrupt {
                            segment: *index,
                            detail: format!("{e:?} in non-final segment"),
                        });
                    }
                }
            }
        }
    }
    // The deterministic merge: tickets are globally unique and allocated
    // in execution order wherever an order matters (per object, per
    // transaction), so sorting on them reconstructs one replayable
    // history no matter how appends interleaved across stripes.
    out.sort_by_key(|(seq, _)| *seq);
    Ok((out, torn))
}

/// Physically drop every frame with `seq > ticket` from the closed log
/// under `dir` — the promotion cut. Per stripe directory: truncate at the
/// first frame above `ticket`, delete every later segment, fsync the file
/// and the directory. Sound only where each stripe file is
/// ticket-ascending (a log built by [`SegmentedWal::append_frames`]); a
/// frame at or below `ticket` found past a cut point would be silently
/// destroyed, so it is reported as [`StorageError::Corrupt`] before any
/// stripe is touched.
pub fn truncate_above(dir: &Path, ticket: u64) -> Result<(), StorageError> {
    let mut cuts = Vec::new(); // (stripe dir, its segments, cut segment, cut byte offset)
    for (_, sdir) in stripe_dirs(dir)? {
        let segments = list_segments(&sdir)?;
        let last_index = segments.last().map(|(i, _)| *i);
        let mut cut: Option<(u64, u64)> = None;
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
                            "ticket {} follows the cut above {ticket}: stripe is not \
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
        if let Some((cut_seg, cut_off)) = cut {
            cuts.push((sdir, segments, cut_seg, cut_off));
        }
    }
    for (sdir, segments, cut_seg, cut_off) in cuts {
        for (index, path) in &segments {
            if *index > cut_seg {
                fs::remove_file(path)?;
            }
        }
        let f = OpenOptions::new().write(true).open(segment_path(&sdir, cut_seg))?;
        f.set_len(cut_off)?;
        f.sync_data()?;
        sync_dir(&sdir)?;
    }
    Ok(())
}

fn bad_batch(offset: usize, err: FrameError) -> StorageError {
    StorageError::Io(std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("replication batch rejected at byte {offset}: {err:?}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        WalOptions { segment_max_bytes: 256, durability: Durability::Fsync, stripes: 1 }
    }

    fn striped(n: usize) -> WalOptions {
        WalOptions { stripes: n, ..opts() }
    }

    fn plain_records(dir: &Path) -> Vec<LogRecord> {
        read_records(dir).unwrap().0.into_iter().map(|(_, r)| r).collect()
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
        let segments = list_segments(&stripe_dirs(&dir).unwrap()[0].1).unwrap();
        assert!(segments.len() > 2, "expected rotation, got {} segments", segments.len());
        let (recs, _) = read_records(&dir).unwrap();
        assert_eq!(recs.len(), 200, "no records lost across rotations");
    }

    #[test]
    fn striped_appends_route_by_object_and_merge_by_ticket() {
        let dir = tmp("striped");
        let wal = SegmentedWal::open(&dir, striped(4)).unwrap();
        // Ops on four objects, interleaved; each object sticks to one
        // stripe, and the merged read reconstructs global ticket order.
        for i in 0..40u64 {
            let obj = i % 4 + 1;
            wal.append_op(wal.reserve(), i + 1, obj, &[i as u8; 8]).unwrap();
            wal.commit_txn(i + 1, i + 1).unwrap();
        }
        drop(wal);
        let dirs = stripe_dirs(&dir).unwrap();
        assert_eq!(dirs.len(), 4);
        for (_, sdir) in &dirs {
            assert!(!list_segments(sdir).unwrap().is_empty(), "every stripe got records");
        }
        let (recs, torn) = read_records(&dir).unwrap();
        assert!(!torn);
        let seqs: Vec<u64> = recs.iter().map(|(s, _)| *s).collect();
        let mut sorted = seqs.clone();
        sorted.sort();
        assert_eq!(seqs, sorted, "merge is ticket-ordered");
        assert_eq!(recs.len(), 80);
    }

    #[test]
    fn single_op_stripe_commit_lands_with_its_ops() {
        let dir = tmp("affine-commit");
        let wal = SegmentedWal::open(&dir, striped(4)).unwrap();
        // txn 1 (home stripe 1) touches only object 3 (stripe 3): the
        // commit record must land on stripe 3 so one fsync covers both.
        wal.append_op(wal.reserve(), 1, 3, &[7; 4]).unwrap();
        wal.commit_txn(1, 5).unwrap();
        drop(wal);
        let sdir = stripe_dir(&dir, 3);
        let bytes = fs::read(&list_segments(&sdir).unwrap()[0].1).unwrap();
        let (recs, err) = record::decode_all(&bytes);
        assert_eq!(err, None);
        let kinds: Vec<&LogRecord> = recs.iter().map(|(_, r)| r).collect();
        assert!(matches!(kinds[0], LogRecord::Op { txn: 1, obj: 3, .. }));
        assert!(matches!(kinds[1], LogRecord::Commit { txn: 1, ts: 5, ops: 1, .. }));
    }

    #[test]
    fn torn_tail_in_final_segment_is_tolerated() {
        let dir = tmp("torn");
        let wal = SegmentedWal::open(&dir, opts()).unwrap();
        wal.commit_txn(1, 1).unwrap();
        let seg = wal.current_segment(0);
        drop(wal);
        let sdir = stripe_dir(&dir, 0);
        let mut f = OpenOptions::new().append(true).open(segment_path(&sdir, seg)).unwrap();
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
    fn each_stripe_truncates_its_own_torn_tail() {
        let dir = tmp("torn-striped");
        let wal = SegmentedWal::open(&dir, striped(3)).unwrap();
        for obj in 1..=3u64 {
            wal.append_op(wal.reserve(), obj, obj, &[obj as u8; 8]).unwrap();
            wal.commit_txn(obj, obj).unwrap();
        }
        drop(wal);
        // Garbage on the tail of every stripe.
        for (_, sdir) in stripe_dirs(&dir).unwrap() {
            let last = list_segments(&sdir).unwrap().pop().unwrap().1;
            let mut f = OpenOptions::new().append(true).open(&last).unwrap();
            f.write_all(&[0xAA; 9]).unwrap();
        }
        let (recs, torn) = read_records(&dir).unwrap();
        assert!(torn);
        assert_eq!(recs.len(), 6, "all real records survive, all garbage dropped");
        // Reopening repairs every stripe so new commits are not orphaned.
        let wal = SegmentedWal::open(&dir, striped(3)).unwrap();
        wal.commit_txn(9, 9).unwrap();
        drop(wal);
        let (recs, torn) = read_records(&dir).unwrap();
        assert!(!torn, "open() must have repaired every stripe");
        assert_eq!(recs.len(), 7);
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
        let sdir = stripe_dir(&dir, 0);
        let segments = list_segments(&sdir).unwrap();
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
        let sdir = stripe_dir(&dir, 0);
        let last = list_segments(&sdir).unwrap().pop().unwrap().1;
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
            let wal = SegmentedWal::open(&dir, striped(2)).unwrap();
            for i in 1..=10u64 {
                wal.append_op(wal.reserve(), i, i % 2, &[1; 4]).unwrap();
                wal.commit_txn(i, i).unwrap();
            }
        }
        let wal = SegmentedWal::open(&dir, striped(2)).unwrap();
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
        for stripes in [1usize, 4] {
            let dir = tmp("group");
            let wal = Arc::new(
                SegmentedWal::open(
                    &dir,
                    WalOptions { segment_max_bytes: 1 << 20, ..striped(stripes) },
                )
                .unwrap(),
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
            let commits =
                recs.iter().filter(|(_, r)| matches!(r, LogRecord::Commit { .. })).count();
            assert_eq!(commits as u64, threads * per, "stripes={stripes}");
        }
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
        let current = wal.current_segment(0);
        assert!(current > 2);
        let sdir = stripe_dir(&dir, 0);
        // Pruning everything below the current segment must keep segment 1
        // (txn 999's records live there).
        wal.prune_segments(&[current]).unwrap();
        let remaining = list_segments(&sdir).unwrap();
        assert_eq!(remaining.first().unwrap().0, 1, "live txn pinned segment 1");
        // Completing the transaction unpins it.
        wal.append_abort(999).unwrap();
        wal.prune_segments(&[current]).unwrap();
        let remaining = list_segments(&sdir).unwrap();
        assert!(remaining.first().unwrap().0 >= current.min(wal.current_segment(0)));
    }

    #[test]
    fn checkpoint_cuts_pin_live_transactions_per_stripe() {
        let dir = tmp("cuts");
        let wal = SegmentedWal::open(&dir, striped(2)).unwrap();
        // A live txn on stripe 0 (object 0); churn on stripe 1 (object 1).
        wal.append_op(wal.reserve(), 77, 0, &[0; 32]).unwrap();
        for i in 0..40 {
            wal.append_op(wal.reserve(), i + 100, 1, &[0u8; 32]).unwrap();
            wal.commit_txn(i + 100, i + 1).unwrap();
        }
        let cuts = wal.checkpoint_cuts();
        assert_eq!(cuts.len(), 2);
        assert_eq!(cuts[0], 1, "live txn pins stripe 0's cut to its first segment");
        assert!(cuts[1] > 1, "stripe 1's cut advanced with its churn");
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
        assert!(s.bytes_since_checkpoint > 0);
        wal.mark_checkpoint();
        let s = wal.stats();
        assert_eq!(s.records_since_checkpoint, 0);
        assert_eq!(s.bytes_at_last_checkpoint, s.total_bytes);
    }

    /// Cutting one stripe's unflushed tail loses a *suffix* of that
    /// stripe only; the merged read keeps every record of the other
    /// stripes — the per-object prefix property striped recovery relies
    /// on.
    #[test]
    fn tail_cut_on_one_stripe_is_a_per_stripe_suffix_loss() {
        let dir = tmp("suffix");
        let wal = SegmentedWal::open(&dir, WalOptions { segment_max_bytes: 1 << 20, ..striped(2) })
            .unwrap();
        for i in 1..=10u64 {
            wal.append_op(wal.reserve(), i, i % 2, &[9; 8]).unwrap();
            wal.commit_txn(i, i).unwrap();
        }
        drop(wal);
        // Chop bytes off stripe 1's tail only.
        let sdir = stripe_dir(&dir, 1);
        let last = list_segments(&sdir).unwrap().pop().unwrap().1;
        let len = fs::metadata(&last).unwrap().len();
        // Deep enough to take whole frames off stripe 1, not just tear
        // the final one.
        OpenOptions::new().write(true).open(&last).unwrap().set_len(len - 100).unwrap();
        let (recs, _) = read_records(&dir).unwrap();
        let stripe0: Vec<&LogRecord> = recs
            .iter()
            .filter(|(_, r)| matches!(r, LogRecord::Op { obj, .. } if obj % 2 == 0))
            .map(|(_, r)| r)
            .collect();
        assert_eq!(stripe0.len(), 5, "stripe 0 lost nothing");
        let plain = plain_records(&dir);
        let odd_ops =
            plain.iter().filter(|r| matches!(r, LogRecord::Op { obj, .. } if obj % 2 == 1)).count();
        assert!(odd_ops < 5, "stripe 1 lost a suffix");
    }

    // ---- externally ticketed feed (the replication follower's log) ----

    fn frame(seq: u64) -> Vec<u8> {
        record::encode(&LogRecord::Begin { txn: seq }, seq)
    }

    fn batch(seqs: &[u64]) -> Vec<u8> {
        seqs.iter().flat_map(|&s| frame(s)).collect()
    }

    fn fed_opts() -> WalOptions {
        WalOptions { segment_max_bytes: 128, durability: Durability::Buffered, stripes: 1 }
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
        assert!(wal.current_segment(0) > 2, "a batch rotates frame by frame");
        drop(wal);
        // The raw bytes landed unchanged: the log *is* the batch.
        let sdir = stripe_dir(&dir, 0);
        let on_disk: Vec<u8> =
            list_segments(&sdir).unwrap().iter().flat_map(|(_, p)| fs::read(p).unwrap()).collect();
        assert_eq!(on_disk, batch(&all));
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        assert_eq!(wal.current_ticket(), 51);
        assert_eq!(wal.take_open_image().unwrap().0.len(), 50, "one scan serves the restart");
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
        let (_, seg) = list_segments(&stripe_dir(&dir, 0)).unwrap().pop().unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new().write(true).open(&seg).unwrap().set_len(len - 5).unwrap();
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        assert_eq!(wal.current_ticket(), 9, "torn frame 9 dropped");
        // The stream resumes from the durable position.
        wal.append_frames(&batch(&[9, 10])).unwrap();
        assert_eq!(seqs_on_disk(&dir), (1..=10).collect::<Vec<_>>());
    }

    /// Lay frames out the way the retired striped replica log did
    /// (`stripe = seq % n`, one segment each), so the cut is held against
    /// directories older followers wrote.
    fn legacy_replica_dir(dir: &Path, stripes: u64, seqs: std::ops::RangeInclusive<u64>) {
        for s in 0..stripes {
            let sdir = stripe_dir(dir, s as usize);
            fs::create_dir_all(&sdir).unwrap();
            let bytes: Vec<u8> =
                seqs.clone().filter(|q| q % stripes == s).flat_map(frame).collect();
            fs::write(segment_path(&sdir, 1), bytes).unwrap();
        }
    }

    #[test]
    fn truncate_above_cuts_every_stripe_suffix() {
        let dir = tmp("fed-cut");
        legacy_replica_dir(&dir, 3, 1..=40);
        truncate_above(&dir, 17).unwrap();
        assert_eq!(seqs_on_disk(&dir), (1..=17).collect::<Vec<_>>());
        truncate_above(&dir, 17).unwrap(); // nothing above: a no-op

        // Whole later segments go too, and the log keeps appending
        // cleanly after the cut.
        let wal = SegmentedWal::open(&dir, fed_opts()).unwrap();
        assert_eq!(wal.current_ticket(), 18);
        wal.append_frames(&batch(&(18..=40).collect::<Vec<_>>())).unwrap();
        assert!(wal.current_segment(0) > 2);
        drop(wal);
        truncate_above(&dir, 19).unwrap();
        assert_eq!(seqs_on_disk(&dir), (1..=19).collect::<Vec<_>>());
        assert_eq!(list_segments(&stripe_dir(&dir, 0)).unwrap().len(), 2);
    }

    #[test]
    fn truncate_above_refuses_a_stripe_that_is_not_ticket_ascending() {
        let dir = tmp("fed-cut-order");
        legacy_replica_dir(&dir, 2, 1..=8);
        // A primary's stripe may hold ticket 3 *after* ticket 5 (reserve
        // under the object lock, append outside it): a suffix cut there
        // would destroy a record it was asked to keep.
        let sdir = stripe_dir(&dir, 1);
        fs::write(segment_path(&sdir, 1), batch(&[1, 5, 3, 7])).unwrap();
        let before = seqs_on_disk(&dir);
        match truncate_above(&dir, 4) {
            Err(StorageError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert_eq!(seqs_on_disk(&dir), before, "a refused cut touches no stripe");
    }
}
