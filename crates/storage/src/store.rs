//! The durable store: ties the WAL, the checkpoint manager, and the
//! compaction policy into one object the transaction layer can own.
//!
//! ## Fuzzy checkpoint protocol
//!
//! Checkpoints no longer stop the world. The protocol splits into a brief
//! *begin* (under the caller's exclusive commit gate — microseconds, no
//! I/O) and a lazy *finish* (commits flow concurrently):
//!
//! 1. **Begin** (`checkpoint_begin`, gate held): record the watermark
//!    `ts0 = last_commit_ts`, the global ticket watermark, and the
//!    log's cut — its active segment index clamped below any segment
//!    pinned by a live transaction. The caller takes one pin at `ts0` on
//!    the horizon registry its objects share before releasing the gate.
//! 2. **Snapshot** (gate released): each object serializes its committed
//!    frontier *at* `ts0` under its own lock
//!    (`DurableObject::snapshot_at`); commits with `ts > ts0` proceed
//!    concurrently and are simply not in the image. The read is checked:
//!    an object already folded past `ts0` refuses, and the checkpoint
//!    fails before anything is written or pruned.
//! 3. **Finish** (`checkpoint_finish`): the `HCCKPT03` file
//!    `{ts0, ticket, chain, segment_low, snapshots, registry}` is
//!    written durably (temp + fsync + rename), segments below the cut are
//!    deleted, and older checkpoints pruned. Every record of a commit
//!    above `ts0` is either at/above the cut (logged after begin) or in
//!    a segment pinned by its then-live transaction — so pruning can
//!    never eat a record the fuzzy image is missing.
//!
//! ## Recovery
//!
//! `recover()` loads the newest valid checkpoint, sorts the log's
//! surviving records into ticket order (tolerating a torn tail), and
//! returns the committed transactions with timestamp above the
//! watermark, in timestamp order, each with its logged operations.
//! Commit records are **self-certifying**: they carry their op count and
//! chain link, so recovery needs no Begin record to trust them. The log
//! is one file stream, but records are appended outside the locks that
//! reserved their tickets, so a crash tail is a suffix of the *file*,
//! not of the history. One streaming reader, [`TxnAssembler`], turns it
//! back into one — recovery walks a whole log image through it, a
//! replication follower one shipped record at a time — with two checks:
//!
//! * the **commit chain**: a commit whose chained predecessor did not
//!   survive (it was appended later, past the cut) is dropped with
//!   everything chained after it; acknowledgement order equals chain
//!   order, so nothing dropped this way was acknowledged while its
//!   predecessor was not;
//! * the **op count**: a commit with fewer surviving op records than it
//!   stamped lost part of itself — a vanished or wrongly pruned segment,
//!   a replica whose feed skipped a frame — and is *dropped* as
//!   incompletely durable rather than half-replayed.
//!
//! What a dropped commit means is the consumer's policy: recovery lists
//! it in `Recovered::incomplete` and goes on, a live follower stops.

use crate::checkpoint::Checkpoint;
use crate::policy::{CompactionPolicy, LogStats};
use crate::record::LogRecord;
use crate::tail::WalTailer;
use crate::wal::{read_records, Durability, SegmentedWal, WalOptions};
use crate::StorageError;
use hcc_core::runtime::{RedoSink, RedoTicket, TxnId};
use hcc_obs::Registry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Construction options for a [`DurableStore`].
#[derive(Clone, Copy, Debug)]
pub struct StorageOptions {
    /// Segment rotation threshold.
    pub segment_max_bytes: u64,
    /// Durability of completion records.
    pub durability: Durability,
    /// When to checkpoint and delete dead segments.
    pub policy: CompactionPolicy,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            segment_max_bytes: 4 * 1024 * 1024,
            durability: Durability::Fsync,
            policy: CompactionPolicy::default(),
        }
    }
}

/// The `HCC_DURABILITY` environment override (`buffered` / `fsync`,
/// case-insensitive) — the CI durability axis, shared by every options
/// type that carries a durability level. `None` when unset or
/// unrecognized.
pub fn durability_env_override() -> Option<Durability> {
    match std::env::var("HCC_DURABILITY").ok()?.trim().to_ascii_lowercase().as_str() {
        "buffered" => Some(Durability::Buffered),
        "fsync" => Some(Durability::Fsync),
        _ => None,
    }
}

/// One recovered committed transaction.
#[derive(Clone, Debug, PartialEq)]
pub struct CommittedTxn {
    /// Commit timestamp.
    pub ts: u64,
    /// Transaction id.
    pub txn: u64,
    /// Logged operations in execution (ticket) order: `(object, opaque op
    /// bytes)` (registry ids already translated back to names).
    pub ops: Vec<(String, Vec<u8>)>,
}

/// A transaction whose operations survived but whose outcome did not: no
/// commit and no abort record. A single-site log simply drops these
/// (recovery never replays uncommitted transactions); a 2PC *participant*
/// consults the coordinator's decision log to resolve them — the classic
/// in-doubt case of a site crashed between its yes-vote and the phase-2
/// commit message.
#[derive(Clone, Debug, PartialEq)]
pub struct InDoubtTxn {
    /// Transaction id.
    pub txn: u64,
    /// Logged operations in execution order.
    pub ops: Vec<(String, Vec<u8>)>,
}

/// Everything recovery learned from disk.
#[derive(Clone, Debug, Default)]
pub struct Recovered {
    /// The newest valid checkpoint, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Committed transactions above the checkpoint, in timestamp order.
    pub committed: Vec<CommittedTxn>,
    /// Transactions with operations but no completion record, by id.
    pub in_doubt: Vec<InDoubtTxn>,
    /// Transactions whose commit record survived but whose chain
    /// predecessor or some op records did not: beyond the durable
    /// horizon, dropped from replay.
    pub incomplete: Vec<u64>,
    /// Did the scan drop a torn tail from the final segment?
    pub torn_tail: bool,
}

/// What [`DurableStore::checkpoint_begin`] captured under the commit
/// gate: everything `checkpoint_finish` needs, frozen at the watermark.
#[derive(Clone, Debug)]
pub struct CheckpointCursor {
    /// The commit-timestamp watermark (`ts0`): every commit at or below
    /// it is fully logged and applied; the snapshots are taken at it.
    pub last_ts: u64,
    /// The global ticket watermark at begin time.
    pub last_ticket: u64,
    /// The commit-chain watermark at begin time (no commit is mid-chain:
    /// the caller holds its commit gate exclusively).
    pub commit_chain: u64,
    /// The prune bound (active segment clamped by live pins).
    pub segment_cut: u64,
}

impl CommittedTxn {
    /// The ops grouped per object, objects in order of first use, each
    /// object's ops in execution order.
    pub fn by_object(self) -> Vec<(String, Vec<Vec<u8>>)> {
        let mut groups: Vec<(String, Vec<Vec<u8>>)> = Vec::new();
        for (name, op) in self.ops {
            match groups.iter_mut().find(|(n, _)| *n == name) {
                Some((_, ops)) => ops.push(op),
                None => groups.push((name, vec![op])),
            }
        }
        groups
    }
}

/// What one record settled, as [`TxnAssembler::feed`] reports it.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// A linked commit whose op records all arrived.
    Committed(CommittedTxn),
    /// A commit record that does not count: its chain predecessor never
    /// arrived, or fewer op records than it stamped did.
    Dropped {
        /// The transaction.
        txn: u64,
        /// Its commit timestamp.
        ts: u64,
        /// Which check failed, naming the transaction and both sides.
        reason: String,
    },
    /// An abort record for this transaction.
    Aborted(u64),
}

/// The one reading of the log: which records make up a committed
/// transaction. Fed `(ticket, record)` in ticket order, it holds the
/// id→name bindings, each open transaction's ops, the commit chain and
/// the op-count check, and gives each record its [`Verdict`]. It keeps
/// nothing of a transaction once its commit or abort record went by.
///
/// Op records name objects by registry id, and a `Register` may carry a
/// later ticket than the first op naming its id (the op's ticket is
/// reserved under the object's latch, the binding is appended at
/// publish), so ids are resolved when the commit arrives — or, for a
/// transaction still open, by [`TxnAssembler::finish`].
pub struct TxnAssembler {
    names: HashMap<u64, String>,
    open: HashMap<u64, Vec<(u64, Vec<u8>)>>,
    chain: CommitChain,
}

impl TxnAssembler {
    /// An assembler over the log above `checkpoint` (`None`: a whole
    /// log): its registry seeds the bindings, its chain watermark the
    /// chain.
    pub fn new(checkpoint: Option<&Checkpoint>) -> TxnAssembler {
        let (floor, names) = checkpoint.map_or((0, HashMap::new()), |c| {
            (c.commit_chain, c.registry.iter().cloned().collect())
        });
        TxnAssembler { names, open: HashMap::new(), chain: CommitChain::new(floor) }
    }

    /// Take the record at ticket `seq`. A commit at or below the
    /// checkpoint's chain watermark is already in its snapshots: its ops
    /// are dropped and it gets no verdict.
    pub fn feed(&mut self, seq: u64, rec: LogRecord) -> Result<Option<Verdict>, StorageError> {
        Ok(match rec {
            LogRecord::Begin { .. } => None,
            LogRecord::Register { id, name } => {
                self.names.insert(id, name);
                None
            }
            LogRecord::Op { txn, obj, op } => {
                self.open.entry(txn).or_default().push((obj, op));
                None
            }
            LogRecord::Abort { txn } => {
                self.open.remove(&txn);
                self.chain.abort_at(seq);
                Some(Verdict::Aborted(txn))
            }
            LogRecord::Commit { txn, ts, ops: stamped, prev } => {
                let logged = self.open.remove(&txn).unwrap_or_default();
                if seq <= self.chain.floor {
                    return Ok(None);
                }
                let ops = resolve(&self.names, txn, logged)?;
                let (end, n) = (self.chain.last_linked(), ops.len());
                let reason = if !self.chain.link(seq, prev) {
                    format!(
                        "commit {txn} links to predecessor ticket {prev}, but the chain here \
                         ends at {end} — the stream skipped a commit"
                    )
                } else if n < stamped as usize {
                    format!(
                        "commit {txn} expects {stamped} ops, {n} arrived — the stream \
                         skipped an op"
                    )
                } else {
                    return Ok(Some(Verdict::Committed(CommittedTxn { ts, txn, ops })));
                };
                Some(Verdict::Dropped { txn, ts, reason })
            }
        })
    }

    /// The ticket of the last linked commit (0 = none yet) — where a
    /// promotion cuts the log.
    pub fn last_linked(&self) -> u64 {
        self.chain.last_linked()
    }

    /// The transactions still open — ops, but no commit or abort record
    /// — by id.
    pub fn finish(self) -> Result<Vec<InDoubtTxn>, StorageError> {
        let open = self.open.into_iter();
        let mut in_doubt = open
            .map(|(txn, ops)| Ok(InDoubtTxn { txn, ops: resolve(&self.names, txn, ops)? }))
            .collect::<Result<Vec<_>, StorageError>>()?;
        in_doubt.sort_by_key(|t| t.txn);
        Ok(in_doubt)
    }
}

/// `txn`'s ops with their registry ids resolved to object names.
fn resolve(
    names: &HashMap<u64, String>,
    txn: u64,
    ops: Vec<(u64, Vec<u8>)>,
) -> Result<Vec<(String, Vec<u8>)>, StorageError> {
    ops.into_iter()
        .map(|(id, op)| {
            Ok((names.get(&id).ok_or(StorageError::UnknownObjectId { id, txn })?.clone(), op))
        })
        .collect()
}

/// The commit-chain rule: which logged commit records count.
///
/// Every commit record carries `prev`, the ticket of the commit chained
/// before it store-wide. A commit is *linked* when `prev` resolves — to
/// the checkpoint's chain watermark (the floor), to the last linked
/// commit, or to an abort record that reused a failed commit's chain
/// ticket (a dead but valid link). Anything else is a hole: an earlier
/// commit record is missing, so this commit — and, transitively,
/// everything chained past it — was never acknowledged-and-depended-on
/// consistently and must not replay. Records are offered in ticket
/// order, by [`TxnAssembler`] alone.
#[derive(Clone, Debug, Default)]
struct CommitChain {
    floor: u64,
    last: u64,
    /// Tickets of abort records seen since the last linked commit — the
    /// only ones a later `prev` can still name (the chain is linear).
    aborts: HashSet<u64>,
}

impl CommitChain {
    /// A chain whose links at or below `floor` are taken on trust (the
    /// checkpoint's recorded chain watermark; `0` for a whole log).
    fn new(floor: u64) -> CommitChain {
        CommitChain { floor, ..CommitChain::default() }
    }

    /// The ticket of the last linked commit (0 = none yet).
    fn last_linked(&self) -> u64 {
        self.last
    }

    /// An abort record sits at ticket `seq`.
    fn abort_at(&mut self, seq: u64) {
        self.aborts.insert(seq);
    }

    /// Offer the commit record at ticket `seq` chained after `prev`;
    /// `true` when it is linked (and becomes the chain's new end).
    fn link(&mut self, seq: u64, prev: u64) -> bool {
        let linked = prev <= self.floor || prev == self.last || self.aborts.contains(&prev);
        if linked {
            self.last = seq;
            self.aborts.clear();
        }
        linked
    }
}

/// A WAL + checkpoint store + compaction policy rooted at one directory.
pub struct DurableStore {
    dir: PathBuf,
    wal: Arc<SegmentedWal>,
    opts: StorageOptions,
    /// Highest commit timestamp logged through this store (seeded from the
    /// checkpoint *and* the WAL tail on open, so a resumed session's clock
    /// can be re-anchored above everything already durable).
    last_commit_ts: AtomicU64,
    /// Highest transaction id seen in the surviving log on open. A resumed
    /// session must allocate above this, or its records would merge with a
    /// dead transaction's under the same id at recovery.
    max_txn_seen: u64,
    /// Set when the store was opened over a log with prior commits (or a
    /// checkpoint) that the caller's live objects have not absorbed.
    /// Checkpointing in this state would claim coverage of history the
    /// snapshots do not contain — and then prune it. Cleared by
    /// [`DurableStore::mark_state_absorbed`].
    unabsorbed_history: std::sync::atomic::AtomicBool,
    /// The object registry: name → compact id used by `Op` records. Seeded
    /// from the surviving `Register` records on open; grows as new names
    /// are logged against. Reads (the per-op fast path) take the lock
    /// shared so the registry is not a serial point ahead of the log.
    registry: std::sync::RwLock<ObjectRegistry>,
    /// The system-wide metric registry. Created here (the store is the
    /// bottom of the stack) and adopted upward by the transaction manager
    /// and the `Db` facade, so every layer's instruments land in one
    /// snapshot. The WAL's instruments are resolved from it at open.
    metrics: Arc<Registry>,
}

#[derive(Default)]
struct ObjectRegistry {
    by_name: HashMap<String, u64>,
    next_id: u64,
}

/// What a store's open read off disk — the newest checkpoint and the
/// log's surviving records in ticket order, with the torn-tail flag —
/// handed to the caller verbatim. Assembly into a [`Recovered`]
/// ([`OpenImage::recover`]) happens only where recovery is asked for,
/// so opening a store stays permissive: a log whose tail recovery would
/// refuse (a timestamp collision, an unknown object id) still opens.
/// A caller that recovers nothing drops it, and its memory with it.
pub struct OpenImage {
    checkpoint: Option<Checkpoint>,
    records: Vec<(u64, LogRecord)>,
    torn_tail: bool,
}

impl OpenImage {
    /// The durable state this image holds: newest checkpoint plus the
    /// committed tail, in timestamp order — identical to
    /// [`DurableStore::recover`] on the same directory, but served from
    /// what `store`'s open already decoded, so the log is scanned once,
    /// not twice. The `recovery.*` counters land in `store`'s registry.
    pub fn recover(self, store: &DurableStore) -> Result<Recovered, StorageError> {
        store.metrics.counter("recovery.segments_scanned").add(store.wal.stats().segments);
        assemble_recovered(self, Some(&store.metrics))
    }
}

impl DurableStore {
    /// Open (or create) the store rooted at `dir`, returning it with the
    /// image its one pass over the log read.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: StorageOptions,
    ) -> Result<(Arc<DurableStore>, OpenImage), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        let metrics = Arc::new(Registry::new());
        let (wal, scan, (records, torn_tail)) = SegmentedWal::open_with_metrics(
            &dir,
            WalOptions { segment_max_bytes: opts.segment_max_bytes, durability: opts.durability },
            &metrics,
        )?;
        let ckpt = Checkpoint::load_latest(&dir)?;
        let ckpt_ts = ckpt.as_ref().map(|c| c.last_ts).unwrap_or(0);
        // The WAL made one full pass over the surviving segments when it
        // opened (tail repair + ticket/chain anchors + decoded records);
        // reuse its scan: resuming a log must not reuse timestamps,
        // transaction ids, tickets, or registry ids that are already
        // durable below the recovery watermarks. Registry bindings come
        // from the checkpoint (whose segments compaction deleted) plus the
        // surviving Register records.
        let last_ts = ckpt_ts.max(scan.last_ts);
        // Compaction may have deleted the segments holding the highest
        // tickets (and the chain link below the watermark); the
        // checkpoint remembers both.
        wal.witness_ticket(ckpt.as_ref().map(|c| c.last_ticket + 1).unwrap_or(0));
        wal.witness_chain(ckpt.as_ref().map(|c| c.commit_chain).unwrap_or(0));
        let mut registry = ObjectRegistry::default();
        let ckpt_bindings: Vec<(u64, String)> =
            ckpt.as_ref().map(|c| c.registry.clone()).unwrap_or_default();
        for (id, name) in ckpt_bindings.into_iter().chain(scan.registrations) {
            registry.next_id = registry.next_id.max(id);
            registry.by_name.insert(name, id);
        }
        let store = Arc::new(DurableStore {
            dir,
            wal: Arc::new(wal),
            opts,
            last_commit_ts: AtomicU64::new(last_ts),
            max_txn_seen: scan.max_txn,
            unabsorbed_history: std::sync::atomic::AtomicBool::new(last_ts > 0),
            registry: std::sync::RwLock::new(registry),
            metrics,
        });
        Ok((store, OpenImage { checkpoint: ckpt, records, torn_tail }))
    }

    /// The system-wide metric registry rooted at this store. The
    /// transaction manager (and through it every object) adopts this
    /// registry, so one snapshot covers locks, transactions, the WAL,
    /// checkpoints, and recovery.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Attest that the caller's live objects reflect every commit at or
    /// below [`DurableStore::last_commit_ts`] — i.e. recovery (checkpoint
    /// restore + tail replay) has been applied to the objects whose
    /// snapshots will be checkpointed. Until this is called on a store
    /// opened over prior history, [`DurableStore::checkpoint_begin`]
    /// refuses.
    pub fn mark_state_absorbed(&self) {
        self.unabsorbed_history.store(false, Ordering::Release);
    }

    /// The highest commit timestamp known durable (checkpoint + WAL tail
    /// at open time, plus everything logged since). A resumed session's
    /// clock must issue strictly above this.
    pub fn last_commit_ts(&self) -> u64 {
        self.last_commit_ts.load(Ordering::Relaxed)
    }

    /// The highest transaction id in the log when the store was opened. A
    /// resumed session must allocate ids strictly above this.
    pub fn max_txn_seen(&self) -> u64 {
        self.max_txn_seen
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The last global order ticket issued so far (0 = none) — the second
    /// half of the replication shipper's position pair.
    pub fn last_issued_ticket(&self) -> u64 {
        self.wal.current_ticket().saturating_sub(1)
    }

    /// Append one executed operation under a pre-reserved ticket, or give
    /// the ticket up ([`SegmentedWal::void`]) if it cannot be. The object
    /// name is translated to its compact registry id; a first-seen name
    /// appends its `Register` binding before the op record.
    fn publish_op(
        &self,
        ticket: u64,
        txn: u64,
        object: &str,
        op: &[u8],
    ) -> Result<(), StorageError> {
        self.object_id(object)
            .and_then(|obj| self.wal.append_op(ticket, txn, obj, op))
            .inspect_err(|_| self.wal.void(ticket))
    }

    /// Log one executed operation, reserving its ticket at append time
    /// (single-phase; objects executing under their latch go through
    /// the [`RedoSink`] instead, so the ticket order matches the
    /// execution order).
    pub fn log_op(&self, txn: u64, object: &str, op: &[u8]) -> Result<(), StorageError> {
        self.publish_op(self.wal.reserve(), txn, object, op)
    }

    /// A [`WalTailer`] over the live log, emitting every frame above
    /// ticket `after`; it counts what it reads in `repl.tail.bytes_read`.
    pub fn tail(&self, after: u64) -> WalTailer {
        WalTailer::new(self.wal.clone(), after, self.metrics.counter("repl.tail.bytes_read"))
    }

    /// The registry id for `object`, assigning (and durably registering)
    /// one on first use.
    pub fn object_id(&self, object: &str) -> Result<u64, StorageError> {
        {
            let reg = self.registry.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(&id) = reg.by_name.get(object) {
                return Ok(id);
            }
        }
        let mut reg = self.registry.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(&id) = reg.by_name.get(object) {
            return Ok(id); // lost the upgrade race: someone registered it
        }
        // Reserve the id *before* the append, and never recycle it: a
        // failed append may still leave the Register frame in the WAL
        // buffer, where a later unrelated flush can make it durable —
        // reusing the id for a different name would then durably bind two
        // names to one id. A retried registration simply burns a fresh id
        // (two ids resolving to one name is harmless; one id resolving to
        // two names is corruption).
        let id = reg.next_id + 1;
        reg.next_id = id;
        // The binding is cached only once the append succeeded, so the
        // next attempt re-registers instead of logging ops against an id
        // recovery might never learn.
        self.wal.append_register(id, object)?;
        reg.by_name.insert(object.to_string(), id);
        Ok(id)
    }

    /// Durably log that `txn` committed at `ts` (group-committed under
    /// `Durability::Fsync`). Returns only once the record is as durable
    /// as the configured level requires.
    pub fn log_commit(&self, txn: u64, ts: u64) -> Result<(), StorageError> {
        self.wal.commit_txn(txn, ts)?;
        self.last_commit_ts.fetch_max(ts, Ordering::Relaxed);
        Ok(())
    }

    /// Log that `txn` aborted (buffered like an op record — recovery never
    /// replays uncommitted transactions, so ordinary aborts need no fsync;
    /// they only unpin segments for compaction).
    pub fn log_abort(&self, txn: u64) -> Result<(), StorageError> {
        self.wal.append_abort(txn)
    }

    /// Durably log that `txn` aborted after its commit failed, filling
    /// the chain slot it left held ([`SegmentedWal::commit_abort`]).
    pub fn log_abort_durable(&self, txn: u64) -> Result<(), StorageError> {
        self.wal.commit_abort(txn)
    }

    /// Force everything appended so far onto disk (flush + fsync),
    /// regardless of the configured durability level. A 2PC
    /// participant calls this before voting yes: its op records must
    /// survive a crash once the coordinator may decide commit.
    pub fn sync(&self) -> Result<(), StorageError> {
        self.wal.sync()
    }

    /// Current log statistics.
    pub fn stats(&self) -> LogStats {
        self.wal.stats()
    }

    /// Does the compaction policy want a checkpoint now?
    pub fn should_checkpoint(&self) -> bool {
        self.opts.policy.should_compact(&self.wal.stats())
    }

    /// Phase 1 of a fuzzy checkpoint. The caller must hold its commit
    /// gate exclusively across this call (and across pinning its objects'
    /// horizon at the returned watermark) — microseconds of stall, no
    /// I/O — and must then release the gate before snapshotting.
    pub fn checkpoint_begin(&self) -> Result<CheckpointCursor, StorageError> {
        if self.unabsorbed_history.load(Ordering::Acquire) {
            return Err(StorageError::UnabsorbedHistory {
                last_ts: self.last_commit_ts.load(Ordering::Relaxed),
            });
        }
        Ok(CheckpointCursor {
            last_ts: self.last_commit_ts.load(Ordering::Relaxed),
            last_ticket: self.wal.current_ticket(),
            commit_chain: self.wal.commit_chain(),
            segment_cut: self.wal.checkpoint_cut(),
        })
    }

    /// Phase 2 of a fuzzy checkpoint: persist the snapshots (taken at
    /// `cursor.last_ts` via [`crate::DurableObject::snapshot_at`]) and
    /// compact.
    /// Commits may be running concurrently.
    pub fn checkpoint_finish(
        &self,
        cursor: &CheckpointCursor,
        objects: Vec<(String, Vec<u8>)>,
    ) -> Result<Checkpoint, StorageError> {
        // The checkpoint carries the registry bindings: pruning deletes the
        // segments holding the original Register records, while pinned
        // segments may keep op records that still reference the ids — and
        // the checkpoint file (temp + fsync + rename) is the one artifact
        // a torn tail can never reach.
        let mut registry: Vec<(u64, String)> = {
            let reg = self.registry.read().unwrap_or_else(std::sync::PoisonError::into_inner);
            reg.by_name.iter().map(|(name, &id)| (id, name.clone())).collect()
        };
        // Sorted (by id), so checkpoint bytes are a deterministic function
        // of the logged history — identical runs produce identical files.
        registry.sort();
        let ckpt = Checkpoint {
            last_ts: cursor.last_ts,
            last_ticket: cursor.last_ticket,
            commit_chain: cursor.commit_chain,
            segment_low: cursor.segment_cut,
            objects,
            registry,
        };
        ckpt.save(&self.dir)?;
        self.wal.mark_checkpoint();
        let pruned = self.wal.prune_segments(cursor.segment_cut)?;
        Checkpoint::prune_older(&self.dir, ckpt.last_ts)?;
        self.metrics.counter("ckpt.count").inc();
        self.metrics
            .counter("ckpt.bytes")
            .add(ckpt.objects.iter().map(|(_, b)| b.len() as u64).sum());
        self.metrics.counter("ckpt.segments_pruned").add(pruned);
        Ok(ckpt)
    }

    /// Read the durable state under `dir`: newest checkpoint plus the
    /// committed tail, in timestamp order. Static — recovery happens before
    /// any appender is opened. (A store opened over the same directory
    /// serves the identical image from its open-time pass via
    /// [`OpenImage::recover`] without re-reading the disk.)
    pub fn recover(dir: impl AsRef<Path>) -> Result<Recovered, StorageError> {
        let dir = dir.as_ref();
        let checkpoint = Checkpoint::load_latest(dir)?;
        let (records, torn_tail) = read_records(dir)?;
        assemble_recovered(OpenImage { checkpoint, records, torn_tail }, None)
    }
}

/// The store is the one redo sink: an object built with options carrying
/// it reserves each operation's global ticket under its own latch — one
/// atomic bump, so the ticket order of its ops is their execution order —
/// and publishes the record after releasing it, so the log's rotation
/// fsync never stalls the object. A record that cannot be appended leaves
/// its ticket void and reports `false`; the object then dooms the
/// transaction, which can no longer commit.
impl RedoSink for DurableStore {
    fn reserve(&self, _txn: TxnId, _object: &str) -> RedoTicket {
        RedoTicket(self.wal.reserve())
    }

    fn publish(&self, ticket: RedoTicket, txn: TxnId, object: &str, op: &[u8]) -> bool {
        self.publish_op(ticket.0, txn.0, object, op).is_ok()
    }
}

/// Turn a raw log image — checkpoint + ticket-ordered surviving records —
/// into the replayable [`Recovered`] state. The [`TxnAssembler`] decides
/// which commits count; on top of it recovery keeps what needs the whole
/// log: the checkpoint's timestamp filter and the timestamp-collision
/// refusal, abort-wins, and the in-doubt list. Shared by the static
/// [`DurableStore::recover`] (re-reads the disk) and
/// [`OpenImage::recover`] (consumes what a store's open read).
fn assemble_recovered(
    image: OpenImage,
    metrics: Option<&Registry>,
) -> Result<Recovered, StorageError> {
    let OpenImage { checkpoint, records, torn_tail } = image;
    let ckpt_ts = checkpoint.as_ref().map(|c| c.last_ts).unwrap_or(0);
    let mut txns = TxnAssembler::new(checkpoint.as_ref());
    // The tail's commits by ts, and every transaction committed at any
    // ts: a retried 2PC phase-2 delivery logs a second commit record,
    // whose verdict carries no news.
    let mut commits: BTreeMap<u64, CommittedTxn> = BTreeMap::new();
    let mut done: HashSet<u64> = HashSet::new();
    let mut aborted: HashSet<u64> = HashSet::new();
    let mut incomplete = Vec::new();
    for (seq, rec) in records {
        match txns.feed(seq, rec)? {
            Some(Verdict::Aborted(txn)) => {
                aborted.insert(txn);
            }
            Some(Verdict::Committed(c)) if done.insert(c.txn) && c.ts > ckpt_ts => {
                if let Some(first) = commits.get(&c.ts) {
                    // Silently keeping either transaction would drop the
                    // other's acknowledged effects.
                    return Err(StorageError::TimestampCollision {
                        ts: c.ts,
                        first: first.txn,
                        second: c.txn,
                    });
                }
                commits.insert(c.ts, c);
            }
            Some(Verdict::Dropped { txn, ts, .. }) if ts > ckpt_ts && !done.contains(&txn) => {
                incomplete.push(txn);
            }
            _ => {}
        }
    }
    // Both a Commit and an Abort record survived. The manager writes an
    // abort only when the commit was never acknowledged (its write or
    // fsync failed), so the abort wins — reporting the transaction as
    // committed would resurrect effects the live system told its client
    // were rolled back, and it is not a lost commit either.
    let committed: Vec<CommittedTxn> =
        commits.into_values().filter(|c| !aborted.contains(&c.txn)).collect();
    incomplete.retain(|txn| !aborted.contains(txn));
    // Ops with no completion record at all: in-doubt. A 2PC site log
    // resolves these against the coordinator's decision log; a
    // single-site recovery just ignores them.
    let in_doubt = txns.finish()?;
    // Recovery totals, when an owning store's registry is at hand (the
    // static path has none to write into).
    if let Some(m) = metrics {
        m.counter("recovery.commits_replayed").add(committed.len() as u64);
        m.counter("recovery.records_replayed")
            .add(committed.iter().map(|t| t.ops.len() as u64).sum());
        m.counter("recovery.commits_dropped").add(incomplete.len() as u64);
        m.counter("recovery.commits_in_doubt").add(in_doubt.len() as u64);
        if torn_tail {
            m.counter("recovery.torn_tails_repaired").inc();
        }
    }
    Ok(Recovered { checkpoint, committed, in_doubt, incomplete, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-store-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    /// A toy snapshotable counter for store-level tests.
    #[derive(Default)]
    struct Cell(Mutex<i64>);

    impl Cell {
        fn add(&self, v: i64) {
            *self.0.lock().unwrap() += v;
        }
        fn get(&self) -> i64 {
            *self.0.lock().unwrap()
        }
    }

    impl Cell {
        fn restore(&self, bytes: &[u8]) {
            *self.0.lock().unwrap() = i64::from_le_bytes(bytes.try_into().unwrap());
        }
    }

    /// Checkpoint `cell` through both phases. Store-level tests run with
    /// commits quiesced, so the watermark is the whole frontier and there
    /// is no gate to hold and nothing to pin.
    fn checkpoint(store: &DurableStore, cell: &Cell) -> Result<Checkpoint, StorageError> {
        let cursor = store.checkpoint_begin()?;
        store.checkpoint_finish(&cursor, vec![("cell".into(), cell.get().to_le_bytes().to_vec())])
    }

    fn small_opts() -> StorageOptions {
        StorageOptions {
            segment_max_bytes: 256,
            policy: CompactionPolicy::never(),
            ..StorageOptions::default()
        }
    }

    /// Write `frames` — `(ticket, record)` in the *physical* order given
    /// — as segment 1 of a fresh log under `dir`; returns the file and
    /// the byte offset at which each frame starts.
    fn hand_written_log(dir: &Path, frames: &[(u64, LogRecord)]) -> (PathBuf, Vec<usize>) {
        let stream = dir.join(crate::wal::STREAM_DIR);
        std::fs::create_dir_all(&stream).unwrap();
        let mut bytes = Vec::new();
        let mut starts = Vec::new();
        for (seq, rec) in frames {
            starts.push(bytes.len());
            crate::record::encode_into(rec, *seq, &mut bytes);
        }
        let path = crate::wal::tests::segment_path(&stream, 1);
        std::fs::write(&path, bytes).unwrap();
        (path, starts)
    }

    fn op(txn: u64, obj: u64, v: i64) -> LogRecord {
        LogRecord::Op { txn, obj, op: v.to_le_bytes().to_vec() }
    }

    fn register(id: u64, name: &str) -> LogRecord {
        LogRecord::Register { id, name: name.into() }
    }

    fn segment_count(dir: &Path) -> usize {
        crate::wal::segments(dir).unwrap().len()
    }

    fn run_txn(store: &DurableStore, cell: &Cell, txn: u64, ts: u64, v: i64) {
        store.log_op(txn, "cell", &v.to_le_bytes()).unwrap();
        cell.add(v);
        store.log_commit(txn, ts).unwrap();
    }

    fn replay(recovered: &Recovered, cell: &Cell) {
        if let Some(ckpt) = &recovered.checkpoint {
            for (name, data) in &ckpt.objects {
                assert_eq!(name, "cell");
                cell.restore(data);
            }
        }
        for txn in &recovered.committed {
            for (obj, op) in &txn.ops {
                assert_eq!(obj, "cell");
                cell.add(i64::from_le_bytes(op.as_slice().try_into().unwrap()));
            }
        }
    }

    #[test]
    fn recover_without_checkpoint_replays_everything() {
        let dir = tmp("plain");
        let cell = Cell::default();
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            for i in 1..=10 {
                run_txn(&store, &cell, i, i, i as i64);
            }
            // An aborted transaction must not replay.
            store.log_op(99, "cell", &1000i64.to_le_bytes()).unwrap();
            store.log_abort(99).unwrap();
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert!(recovered.checkpoint.is_none());
        assert_eq!(recovered.committed.len(), 10);
        let fresh = Cell::default();
        replay(&recovered, &fresh);
        assert_eq!(fresh.get(), cell.get());
    }

    #[test]
    fn checkpoint_then_tail_equals_full_replay() {
        let dir = tmp("ckpt");
        let cell = Cell::default();
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            for i in 1..=20 {
                run_txn(&store, &cell, i, i, i as i64);
            }
            checkpoint(&store, &cell).unwrap();
            for i in 21..=30 {
                run_txn(&store, &cell, i, i, i as i64);
            }
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        let ckpt = recovered.checkpoint.as_ref().expect("checkpoint present");
        assert_eq!(ckpt.last_ts, 20);
        assert_eq!(recovered.committed.len(), 10, "only the tail replays");
        assert!(recovered.committed.iter().all(|t| t.ts > 20));
        let fresh = Cell::default();
        replay(&recovered, &fresh);
        assert_eq!(fresh.get(), (1..=30).sum::<i64>());
    }

    #[test]
    fn checkpoint_prunes_dead_segments() {
        let dir = tmp("prune");
        let cell = Cell::default();
        let store = DurableStore::open(&dir, small_opts()).unwrap().0;
        for i in 1..=50 {
            run_txn(&store, &cell, i, i, 1);
        }
        assert!(segment_count(&dir) > 2);
        checkpoint(&store, &cell).unwrap();
        let after = segment_count(&dir);
        assert!(after <= 2, "dead segments survived: {after}");
        assert_eq!(store.metrics().counter("ckpt.count").get(), 1);
    }

    #[test]
    fn policy_drives_should_checkpoint() {
        let dir = tmp("policy");
        let cell = Cell::default();
        let store = DurableStore::open(
            &dir,
            StorageOptions {
                segment_max_bytes: 256,
                policy: CompactionPolicy::every_n(10),
                ..StorageOptions::default()
            },
        )
        .unwrap()
        .0;
        let mut taken = 0;
        for i in 1..=35 {
            run_txn(&store, &cell, i, i, 1);
            if store.should_checkpoint() {
                checkpoint(&store, &cell).unwrap();
                taken += 1;
            }
        }
        assert_eq!(taken, 3, "EveryN(10) over 35 commits");
    }

    #[test]
    fn registry_ids_are_stable_across_reopen_and_checkpoint_pruning() {
        let dir = tmp("registry");
        let cell = Cell::default();
        let id_first;
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            id_first = store.object_id("cell").unwrap();
            assert_eq!(store.object_id("cell").unwrap(), id_first, "idempotent");
            for i in 1..=30 {
                run_txn(&store, &cell, i, i, 1);
            }
            // Checkpoint prunes the segments holding the original Register
            // record; the binding survives in the checkpoint file's table.
            checkpoint(&store, &cell).unwrap();
            for i in 31..=35 {
                run_txn(&store, &cell, i, i, 1);
            }
        }
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            assert_eq!(
                store.object_id("cell").unwrap(),
                id_first,
                "reopen must resolve the same id from the surviving log"
            );
            let other = store.object_id("other").unwrap();
            assert!(other > id_first, "fresh names allocate above survivors");
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(recovered.committed.len(), 5, "tail above the checkpoint");
        assert!(recovered.committed.iter().all(|t| t.ops.iter().all(|(name, _)| name == "cell")));
    }

    #[test]
    fn in_doubt_transactions_are_reported() {
        let dir = tmp("in-doubt");
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            store.log_op(1, "cell", &5i64.to_le_bytes()).unwrap();
            store.log_commit(1, 1).unwrap();
            // Txn 2 voted yes somewhere and crashed before the decision
            // arrived: ops, no completion record.
            store.log_op(2, "cell", &7i64.to_le_bytes()).unwrap();
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(recovered.committed.len(), 1);
        assert_eq!(recovered.in_doubt.len(), 1);
        assert_eq!(recovered.in_doubt[0].txn, 2);
        assert_eq!(recovered.in_doubt[0].ops[0].0, "cell");
    }

    #[test]
    fn abort_record_overrides_unacknowledged_commit() {
        let dir = tmp("commit-then-abort");
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            // The ambiguous-failure shape: a commit frame reached disk but
            // its fsync failed, so the manager aborted and told the client
            // the commit did not happen.
            store.log_op(5, "cell", &7i64.to_le_bytes()).unwrap();
            store.log_commit(5, 9).unwrap();
            store.log_abort(5).unwrap();
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert!(
            recovered.committed.is_empty(),
            "an aborted transaction must not recover as committed: {recovered:?}"
        );
    }

    /// Commit records are self-certifying: a zero-op commit replays as an
    /// empty transaction even with no Begin record anywhere (recovery
    /// never needs one to trust a commit).
    #[test]
    fn commits_are_self_certifying_without_begin_records() {
        let dir = tmp("self-certify");
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            store.log_commit(7, 3).unwrap(); // no Begin, no ops: count = 0
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(recovered.committed.len(), 1);
        assert_eq!(recovered.committed[0].txn, 7);
        assert!(recovered.committed[0].ops.is_empty());
        assert!(recovered.incomplete.is_empty());
    }

    /// A commit record outlives one of its op records: the frame is
    /// excised from the middle of the file (what a lost segment or a
    /// replica feed that skipped a frame leaves behind). The stamped op
    /// count catches it; recovery drops the transaction as incomplete
    /// instead of refusing the whole log or replaying half of it.
    #[test]
    fn commit_with_partially_lost_ops_is_dropped_as_incomplete() {
        let dir = tmp("incomplete");
        let frames = [
            (1, register(1, "cell-a")),
            (2, register(2, "cell-b")),
            (3, op(3, 1, 1)),
            (4, op(3, 2, 2)), // excised below
            (5, LogRecord::Commit { txn: 3, ts: 1, ops: 2, prev: 0 }),
            (6, op(5, 1, 3)),
            (7, LogRecord::Commit { txn: 5, ts: 2, ops: 1, prev: 5 }),
        ];
        let (path, starts) = hand_written_log(&dir, &frames);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.drain(starts[3]..starts[4]);
        std::fs::write(&path, bytes).unwrap();

        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(recovered.incomplete, vec![3], "txn 3 lost an op record");
        assert_eq!(recovered.committed.len(), 1, "txn 5 is intact");
        assert_eq!(recovered.committed[0].txn, 5);
    }

    /// The commit-chain rule on one stream: txn 3 chained first (ticket
    /// 5) but txn 4, chained after it (ticket 6, `prev` 5), reached the
    /// file first, and the crash tail took txn 3's commit record. Without
    /// the chain, replay would keep a commit whose predecessor — possibly
    /// one it depended on — is gone; with it, the hole unlinks the later
    /// commit and everything chained past it.
    #[test]
    fn chain_hole_drops_commits_past_a_lost_predecessor() {
        let dir = tmp("chain");
        let frames = [
            (1, register(1, "cell-a")),
            (2, register(2, "cell-b")),
            (3, op(3, 1, 1)),
            (4, op(4, 2, 3)),
            (6, LogRecord::Commit { txn: 4, ts: 2, ops: 1, prev: 5 }),
            (5, LogRecord::Commit { txn: 3, ts: 1, ops: 1, prev: 0 }), // torn below
        ];
        let (path, starts) = hand_written_log(&dir, &frames);
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(starts[5] as u64 + 10).unwrap();

        let recovered = DurableStore::recover(&dir).unwrap();
        assert!(recovered.torn_tail);
        assert!(
            recovered.committed.is_empty(),
            "txn 4's chain predecessor (txn 3's commit) is gone — it must not replay: {:?}",
            recovered.committed
        );
        assert_eq!(recovered.incomplete, vec![4], "txn 4 is beyond the durable horizon");
        assert_eq!(recovered.in_doubt.len(), 1, "txn 3 reverts to in-doubt (ops, no outcome)");
        assert_eq!(recovered.in_doubt[0].txn, 3);
    }

    /// The link rule itself, record by record — what recovery's batch walk
    /// and a follower's streaming apply both ask.
    #[test]
    fn commit_chain_links_through_floor_predecessor_and_standin_abort() {
        let mut chain = CommitChain::new(0);
        assert!(chain.link(3, 0), "first commit links to the empty floor");
        assert!(chain.link(4, 3), "predecessor is the last linked commit");
        assert_eq!(chain.last_linked(), 4);
        // Commit ticket 6 failed; its compensating abort reused the
        // ticket, so the successor chained to 6 still links.
        chain.abort_at(5); // an ordinary abort: names nobody's `prev`
        chain.abort_at(6);
        assert!(chain.link(9, 6), "an abort may stand in for a failed commit");
        assert_eq!(chain.last_linked(), 9);
        // A hole: 12 chains to 11, which never arrived. It and everything
        // chained past it stay out, and the chain end does not move.
        assert!(!chain.link(12, 11));
        assert!(!chain.link(14, 12), "chained past the hole");
        assert!(!chain.link(15, 6), "a consumed stand-in cannot link twice");
        assert_eq!(chain.last_linked(), 9);
        assert!(chain.link(16, 9), "the chain resumes only from its linked end");

        // Above a checkpoint, links at or below the recorded chain
        // watermark are taken on trust (their records may be pruned).
        let mut chain = CommitChain::new(20);
        assert!(chain.link(23, 20));
        assert!(chain.link(25, 23));
        assert!(!chain.link(30, 27));
        assert_eq!(chain.last_linked(), 25);
    }

    /// The single-scan open: a reopened store hands back the image its
    /// one pass read, and that image, assembled, is what a fresh disk
    /// read recovers.
    #[test]
    fn open_returns_the_recovery_image_of_its_single_scan() {
        let dir = tmp("single-scan");
        let cell = Cell::default();
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            for i in 1..=12 {
                run_txn(&store, &cell, i, i, i as i64);
            }
            checkpoint(&store, &cell).unwrap();
            for i in 13..=20 {
                run_txn(&store, &cell, i, i, i as i64);
            }
        }
        let from_disk = DurableStore::recover(&dir).unwrap();
        let (store, image) = DurableStore::open(&dir, small_opts()).unwrap();
        let opened = image.recover(&store).unwrap();
        assert_eq!(opened.checkpoint, from_disk.checkpoint);
        assert_eq!(opened.committed, from_disk.committed);
        assert_eq!(opened.in_doubt, from_disk.in_doubt);
        assert_eq!(opened.incomplete, from_disk.incomplete);
        assert_eq!(opened.torn_tail, from_disk.torn_tail);
        assert_eq!(opened.committed.len(), 8, "the tail above the checkpoint");
    }

    /// A checkpoint whose directory fsync fails after the rename is an
    /// error and prunes nothing: the rename may not be durable, so the
    /// segments it covers must stay, and a reopen recovers every commit.
    #[test]
    fn a_checkpoint_whose_directory_fsync_failed_prunes_nothing() {
        let dir = tmp("ckpt-dir-sync");
        let cell = Cell::default();
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            for i in 1..=30 {
                run_txn(&store, &cell, i, i, i as i64);
            }
            let before = crate::wal::segments(&dir).unwrap();
            assert!(before.len() > 2, "scenario needs prunable segments");
            crate::checkpoint::DIR_SYNC_FAULTS.with(|n| n.set(1));
            assert!(checkpoint(&store, &cell).is_err(), "the directory fsync failed");
            assert_eq!(crate::wal::segments(&dir).unwrap(), before, "no segment deleted");
            assert_eq!(store.metrics().counter("ckpt.count").get(), 0);
        }
        let (store, image) = DurableStore::open(&dir, small_opts()).unwrap();
        let fresh = Cell::default();
        replay(&image.recover(&store).unwrap(), &fresh);
        assert_eq!(fresh.get(), (1..=30).sum::<i64>());
    }

    #[test]
    fn reopen_after_checkpoint_keeps_timestamps_monotone() {
        let dir = tmp("reopen");
        let cell = Cell::default();
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            for i in 1..=5 {
                run_txn(&store, &cell, i, i, 1);
            }
            checkpoint(&store, &cell).unwrap();
        }
        {
            // A reopened store learns the checkpoint's watermark, so a new
            // checkpoint without fresh commits keeps last_ts = 5. Until the
            // caller attests its objects absorbed the prior history,
            // checkpointing is refused — the same `cell` carried the state
            // across the reopen here, so the attestation is truthful.
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            match checkpoint(&store, &cell) {
                Err(StorageError::UnabsorbedHistory { last_ts: 5 }) => {}
                other => panic!("expected UnabsorbedHistory, got {other:?}"),
            }
            store.mark_state_absorbed();
            let ckpt = checkpoint(&store, &cell).unwrap();
            assert_eq!(ckpt.last_ts, 5);
        }
    }

    #[test]
    fn tickets_resume_above_checkpoint_watermark_after_full_pruning() {
        let dir = tmp("ticket-floor");
        let cell = Cell::default();
        let ticket_at_ckpt;
        {
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            for i in 1..=30 {
                run_txn(&store, &cell, i, i, 1);
            }
            let ckpt = checkpoint(&store, &cell).unwrap();
            ticket_at_ckpt = ckpt.last_ticket;
            assert!(ticket_at_ckpt > 60);
        }
        {
            // Compaction deleted the old segments; the surviving log may
            // hold no high tickets at all. The reopened store must still
            // allocate above the checkpoint watermark.
            let store = DurableStore::open(&dir, small_opts()).unwrap().0;
            assert!(
                store.last_issued_ticket() >= ticket_at_ckpt,
                "tickets must not restart below the checkpoint watermark"
            );
        }
    }

    fn buffered() -> StorageOptions {
        StorageOptions { durability: Durability::Buffered, ..small_opts() }
    }

    /// Poll until nothing more is released; the frames shipped, as
    /// `(ticket, record)`.
    fn shipped(tailer: &mut WalTailer) -> Vec<(u64, LogRecord)> {
        let mut got = Vec::new();
        loop {
            let more = tailer.poll().unwrap();
            if more.is_empty() {
                return got;
            }
            for (seq, bytes) in more {
                let (dseq, rec, _) = crate::record::decode_at(&bytes, 0).unwrap();
                assert_eq!(dseq, seq);
                got.push((seq, rec));
            }
        }
    }

    fn committed_txns(recovered: &Recovered) -> Vec<u64> {
        recovered.committed.iter().map(|t| t.txn).collect()
    }

    /// Under `Buffered`, a commit whose write fails writes its repair
    /// abort at the same ticket before it releases the append lock. The
    /// next commit links through it; recovery keeps that one and drops
    /// the failed one (abort wins), and a tailer ships both tickets
    /// without holding either.
    #[test]
    fn a_buffered_commit_whose_write_failed_is_repaired_before_the_next_commit() {
        let dir = tmp("write-fault");
        let cell = Cell::default();
        {
            let store = DurableStore::open(&dir, buffered()).unwrap().0;
            run_txn(&store, &cell, 1, 1, 1);
            store.log_op(2, "cell", &10i64.to_le_bytes()).unwrap();
            store.wal.write_faults.store(1, Ordering::SeqCst);
            assert!(store.log_commit(2, 2).is_err(), "the commit's write failed");
            let a = store.wal.current_ticket() - 1;
            run_txn(&store, &cell, 3, 3, 100);
            let b = store.wal.current_ticket() - 1;
            assert!(store.wal.tail_facts().held.is_empty(), "the repair landed: nothing held");
            let got = shipped(&mut store.tail(0));
            assert_eq!(
                got.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                (1..=b).collect::<Vec<_>>()
            );
            let at = |t: u64| got.iter().find(|(s, _)| *s == t).map(|(_, r)| r.clone()).unwrap();
            assert_eq!(at(a), LogRecord::Abort { txn: 2 }, "Abort@{a}, never Commit@{a}");
            assert!(matches!(at(b), LogRecord::Commit { txn: 3, prev, .. } if prev == a));
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(committed_txns(&recovered), vec![1, 3]);
        assert!(recovered.incomplete.is_empty(), "{:?}", recovered.incomplete);
    }

    /// With the repair's write failed as well, the ticket is held in
    /// `failed_commits` — the stream stops before it, though the next
    /// commit is acknowledged — until the compensating durable abort
    /// fills it.
    #[test]
    fn a_buffered_commit_whose_repair_failed_is_held_until_its_abort_lands() {
        let dir = tmp("write-fault-held");
        let cell = Cell::default();
        {
            let store = DurableStore::open(&dir, buffered()).unwrap().0;
            run_txn(&store, &cell, 1, 1, 1);
            store.log_op(2, "cell", &10i64.to_le_bytes()).unwrap();
            store.wal.write_faults.store(2, Ordering::SeqCst);
            assert!(store.log_commit(2, 2).is_err(), "the commit's write failed");
            let a = store.wal.current_ticket() - 1;
            assert_eq!(store.wal.tail_facts().held, vec![a], "the repair failed: {a} is held");
            run_txn(&store, &cell, 3, 3, 100);
            let b = store.wal.current_ticket() - 1;
            let mut tailer = store.tail(0);
            let got = shipped(&mut tailer);
            assert_eq!(got.iter().map(|(s, _)| *s).collect::<Vec<_>>(), (1..a).collect::<Vec<_>>());
            assert_eq!(store.wal.tail_facts().held, vec![a], "still held");
            store.log_abort_durable(2).unwrap();
            assert!(store.wal.tail_facts().held.is_empty(), "the abort filled the slot");
            let got = shipped(&mut tailer);
            assert_eq!(
                got.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
                (a..=b).collect::<Vec<_>>()
            );
            assert_eq!(got[0].1, LogRecord::Abort { txn: 2 });
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(committed_txns(&recovered), vec![1, 3]);
        assert!(recovered.incomplete.is_empty(), "{:?}", recovered.incomplete);
    }

    /// Under `Buffered` the ack barrier never sleeps: commit records are
    /// written in chain order, so `wal.settle_waits` stays 0 across eight
    /// threads committing at once, and every commit recovers with its
    /// chain intact.
    #[test]
    fn buffered_commits_from_many_threads_never_wait_at_the_ack_barrier() {
        let dir = tmp("no-settle-wait");
        let (threads, per) = (8u64, 500u64);
        {
            let opts = StorageOptions { segment_max_bytes: 1 << 20, ..buffered() };
            let store = DurableStore::open(&dir, opts).unwrap().0;
            let writers: Vec<_> = (0..threads)
                .map(|t| {
                    let store = store.clone();
                    std::thread::spawn(move || {
                        for i in 0..per {
                            let txn = t * per + i + 1;
                            store.log_op(txn, "cell", &1i64.to_le_bytes()).unwrap();
                            store.log_commit(txn, txn).unwrap();
                        }
                    })
                })
                .collect();
            for w in writers {
                w.join().unwrap();
            }
            assert_eq!(store.metrics().counter("wal.settle_waits").get(), 0);
        }
        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(recovered.committed.len() as u64, threads * per);
        assert!(recovered.incomplete.is_empty(), "a chain hole: {:?}", recovered.incomplete);
        assert!(!recovered.torn_tail);
    }
}
