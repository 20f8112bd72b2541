//! The transaction manager: begin / commit / abort with two-phase atomic
//! commitment and timestamp distribution.
//!
//! Commitment follows the paper's model: the transaction first reaches a
//! state with no pending invocation, then a commit timestamp is generated
//! (above the transaction's lower bound — see [`crate::clock`]) and a
//! `commit(t)` event is delivered to every object the transaction touched.
//! The two-phase structure (prepare votes, then commit fan-out) gives the
//! *atomic commitment* property the paper assumes: a transaction never
//! commits at some objects and aborts at others.

use crate::clock::LogicalClock;
use crate::deadlock::DeadlockDetector;
use crate::registry::RecoveryError;
use hcc_core::runtime::{
    HorizonPins, PinGuard, RedoSink, RedoTicket, RuntimeOptions, TxParticipant, TxnHandle, TxnPhase,
};
use hcc_obs::{Counter, FlightRecorder, Gauge, Histogram};
use hcc_spec::{Timestamp, TxnId};
use hcc_storage::{Checkpoint, DurableStore, Snapshot, StorageError, StorageOptions};
use parking_lot::RwLock;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Redo payloads awaiting a retry, in execution order, each keeping its
/// reserved order ticket: `(ticket, object, bytes)`.
type PendingOps = Vec<(RedoTicket, String, Vec<u8>)>;

/// Why a commit was refused. In every case the transaction has been
/// aborted at all objects (all-or-nothing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// Some object voted no in the prepare phase.
    PrepareFailed {
        /// The refusing object's name.
        object: String,
    },
    /// The transaction was doomed by the deadlock detector.
    Doomed,
    /// The transaction is not active.
    NotActive,
    /// The durable log could not persist the commit record; the
    /// transaction was aborted rather than acknowledged non-durably.
    Storage(String),
}

impl std::fmt::Display for CommitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitError::PrepareFailed { object } => {
                write!(f, "commit refused: object {object:?} voted no in the prepare phase")
            }
            CommitError::Doomed => {
                write!(f, "commit refused: transaction was doomed as a deadlock victim")
            }
            CommitError::NotActive => {
                write!(
                    f,
                    "commit refused: transaction is not active (already committed or aborted)"
                )
            }
            CommitError::Storage(detail) => {
                write!(f, "commit aborted: the durable log could not persist it ({detail})")
            }
        }
    }
}

impl std::error::Error for CommitError {}

/// The transaction manager for one system.
pub struct TxnManager {
    clock: Arc<LogicalClock>,
    detector: Arc<DeadlockDetector>,
    next_id: AtomicU64,
    /// The durable log, when this manager persists completion records.
    store: Option<Arc<DurableStore>>,
    /// Transactions whose Begin record failed to append (transient I/O).
    /// The commit path retries the Begin before the commit record: Begin
    /// records pin the transaction's segments for compaction from its
    /// first record on, and keep the on-disk history complete for
    /// inspection (recovery itself no longer needs them — commit records
    /// are self-certifying).
    begin_unlogged: parking_lot::Mutex<std::collections::HashSet<u64>>,
    /// Redo payloads that failed to append when their operation executed
    /// (transient I/O), in execution order per transaction. Once a
    /// transaction has one stashed payload, *all* its later payloads are
    /// stashed too — appending them out of order would corrupt replay. The
    /// commit path drains the stash before the commit record, or refuses
    /// the commit; whatever an abort drops, it declares void to the log.
    ops_unlogged: parking_lot::Mutex<std::collections::HashMap<u64, PendingOps>>,
    /// Commits hold this shared around log-write + phase-2 apply.
    /// Checkpoints hold it exclusively only for the *begin* instant of
    /// the fuzzy protocol — establishing the watermark and pinning
    /// horizons, no I/O — so a watermark can never fall between a
    /// commit's log record and its application at the objects.
    commit_gate: RwLock<()>,
    /// Serializes whole checkpoints against each other (two concurrent
    /// fuzzy checkpoints would fight over the horizon pins).
    checkpoint_serial: parking_lot::Mutex<()>,
    /// The system's metric registry — adopted from the durable store when
    /// there is one (so WAL/recovery counters and transaction counters
    /// land in one place), private otherwise.
    metrics: Arc<hcc_obs::Registry>,
    /// Pre-resolved transaction/checkpoint instruments (hot paths never
    /// touch the registry's name map).
    instruments: Instruments,
    /// The per-txn flight recorder (`HCC_TRACE=N`), when tracing is on.
    trace: Option<Arc<FlightRecorder>>,
    /// Commit-timestamp bookkeeping for snapshot-read watermark
    /// selection: which allocated timestamps are still between
    /// allocation and phase-2 application. See
    /// [`TxnManager::stable_watermark`].
    read_marks: parking_lot::Mutex<ReadMarks>,
    /// The shared horizon-pin registry every object built from
    /// [`TxnManager::object_options`] consults before folding — the
    /// mechanism that keeps a pinned watermark's snapshot exact across
    /// all objects at once.
    horizon: Arc<HorizonPins>,
}

/// Which commit timestamps have been allocated but not yet fully applied
/// (phase-2 fan-out not finished). The *stable watermark* — the highest
/// timestamp `W` such that every commit with `ts ≤ W` is fully applied
/// at every object it touched — is `min(inflight) - 1` while anything is
/// in flight, else the highest applied timestamp. Commits apply under a
/// *shared* gate, so a later timestamp can finish applying before an
/// earlier one; reading at the live frontier would see non-prefix
/// states. Reading at `W` never does.
#[derive(Default)]
struct ReadMarks {
    /// Timestamps allocated but not yet retired: at most one per
    /// committing thread, so a scan, and no node to allocate and free
    /// under the lock for every commit.
    inflight: Vec<u64>,
    /// Highest timestamp whose phase-2 fan-out completed (or, at build
    /// time, the store's recovery watermark — everything durable is
    /// "applied" once materialized).
    max_applied: u64,
}

impl ReadMarks {
    /// The stable watermark these marks imply.
    fn stable(&self) -> u64 {
        match self.inflight.iter().min() {
            Some(&min) => min.saturating_sub(1),
            None => self.max_applied,
        }
    }
}

/// The manager's pre-resolved metric handles.
struct Instruments {
    begun: Arc<Counter>,
    committed: Arc<Counter>,
    aborted: Arc<Counter>,
    commit_nanos: Arc<Histogram>,
    abort_nanos: Arc<Histogram>,
    ckpt_gate_nanos: Arc<Histogram>,
    ckpt_duration_nanos: Arc<Histogram>,
    ckpt_last_gate: Arc<Gauge>,
}

impl Instruments {
    fn resolve(metrics: &hcc_obs::Registry) -> Instruments {
        Instruments {
            begun: metrics.counter("txn.begun"),
            committed: metrics.counter("txn.committed"),
            aborted: metrics.counter("txn.aborted"),
            commit_nanos: metrics.histogram("txn.commit_nanos"),
            abort_nanos: metrics.histogram("txn.abort_nanos"),
            ckpt_gate_nanos: metrics.histogram("ckpt.gate_nanos"),
            ckpt_duration_nanos: metrics.histogram("ckpt.duration_nanos"),
            ckpt_last_gate: metrics.gauge("ckpt.last_gate_nanos"),
        }
    }
}

/// How far (in commit timestamps, which the clock issues densely) a
/// replica's applied history may run ahead of its fold floor. A replica
/// keeps the commits above its replicated watermark unfolded so the
/// watermark stays readable — but every replayed operation walks the
/// unfolded intents at its object, so an unbounded backlog makes a
/// starved replica's apply quadratic (on four hot accounts it cost the
/// whole system a quarter of its throughput). Past this span the oldest
/// fold anyway and reads at the stale watermark bounce, as they did
/// before the floor existed, until the next sample lands.
const REPLICA_FOLD_SPAN: u64 = 1024;

/// One object's share of a replicated transaction: the durable handle
/// to replay at, and its logged op payloads in ticket order. (See
/// [`TxnManager::apply_replicated`].)
pub type ReplicatedOps = (Arc<dyn hcc_storage::DurableObject>, Vec<Vec<u8>>);

impl TxnManager {
    /// A fresh manager with its own clock and deadlock detector (no
    /// durable log: commits live only in memory, as in the paper's model).
    pub fn new() -> Arc<TxnManager> {
        Self::build(None)
    }

    /// A manager whose completion records are persisted through a
    /// [`DurableStore`] rooted at `dir` — the commit path group-commits
    /// under `opts.durability`, and [`TxnManager::checkpoint`] bounds
    /// recovery time.
    pub fn with_storage(
        dir: impl AsRef<Path>,
        opts: StorageOptions,
    ) -> Result<Arc<TxnManager>, StorageError> {
        Ok(Self::build(Some(DurableStore::open(dir, opts)?)))
    }

    /// A manager over an existing store (shared with other components).
    pub fn with_durable_store(store: Arc<DurableStore>) -> Arc<TxnManager> {
        Self::build(Some(store))
    }

    fn build(store: Option<Arc<DurableStore>>) -> Arc<TxnManager> {
        let clock = Arc::new(LogicalClock::new());
        let mut first_id = 1;
        let mut recovered_ts = 0;
        if let Some(store) = &store {
            // Resume above everything already durable: commit timestamps
            // at or below the recovery watermark would be silently ignored
            // by a later recovery, and reused transaction ids would merge
            // with a dead transaction's records.
            recovered_ts = store.last_commit_ts();
            clock.witness(recovered_ts);
            first_id = store.max_txn_seen() + 1;
        }
        // One registry per system: adopt the store's (where WAL and
        // recovery counters already live) so `db.stats()` is one snapshot.
        let metrics = match &store {
            Some(store) => store.metrics().clone(),
            None => Arc::new(hcc_obs::Registry::new()),
        };
        let instruments = Instruments::resolve(&metrics);
        let detector = DeadlockDetector::new();
        detector.mirror_victims_into(metrics.counter("deadlock.victims"));
        let horizon = Arc::new(HorizonPins::observed(metrics.gauge("horizon.pins")));
        Arc::new(TxnManager {
            clock,
            detector,
            next_id: AtomicU64::new(first_id),
            store,
            begin_unlogged: parking_lot::Mutex::new(std::collections::HashSet::new()),
            ops_unlogged: parking_lot::Mutex::new(std::collections::HashMap::new()),
            commit_gate: RwLock::new(()),
            checkpoint_serial: parking_lot::Mutex::new(()),
            metrics,
            instruments,
            trace: FlightRecorder::from_env().map(Arc::new),
            read_marks: parking_lot::Mutex::new(ReadMarks {
                inflight: Default::default(),
                // Everything durable is fully applied once recovery
                // materializes it, so the recovered watermark is readable
                // immediately.
                max_applied: recovered_ts,
            }),
            horizon,
        })
    }

    /// The system's metric registry (lock, transaction, WAL, checkpoint
    /// and recovery instruments all land here).
    pub fn metrics(&self) -> &Arc<hcc_obs::Registry> {
        &self.metrics
    }

    /// The flight recorder, when `HCC_TRACE=N` enabled one.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.trace.as_ref()
    }

    /// The durable store, if this manager has one.
    pub fn storage(&self) -> Option<&Arc<DurableStore>> {
        self.store.as_ref()
    }

    /// The manager's logical clock.
    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    /// The manager's deadlock detector.
    pub fn detector(&self) -> &Arc<DeadlockDetector> {
        &self.detector
    }

    /// Runtime options *binding* objects to this manager: the deadlock
    /// detector as wait observer, the durability level the manager
    /// actually runs at, and — when the manager has a durable store — the
    /// manager itself as the redo sink, so every mutating operation on an
    /// object built with these options serializes and logs itself. There
    /// is no separate logging call for callers to forget.
    pub fn object_options(self: &Arc<Self>) -> RuntimeOptions {
        let durability = self.store.as_ref().map(|s| s.durability()).unwrap_or_default();
        let opts = RuntimeOptions::with_observer(self.detector.clone())
            .with_durability(durability)
            .with_metrics(self.metrics.clone())
            .with_trace(self.trace.clone())
            .with_horizon(self.horizon.clone());
        if self.store.is_some() {
            opts.with_redo(self.clone())
        } else {
            opts
        }
    }

    /// A commit timestamp is done with phase 2 (`applied`) or will never
    /// reach it (`!applied`: the commit was refused and aborted with no
    /// records at any object). Either way it stops holding the stable
    /// watermark down.
    fn retire_inflight(&self, ts: u64, applied: bool) {
        let mut marks = self.read_marks.lock();
        if let Some(at) = marks.inflight.iter().position(|&t| t == ts) {
            marks.inflight.swap_remove(at);
        }
        if applied {
            marks.max_applied = marks.max_applied.max(ts);
        }
    }

    /// The current **stable watermark** `W`: every commit with timestamp
    /// `≤ W` is fully applied at every object it touched, and every
    /// commit still in flight (or future) has a timestamp `> W`. A read
    /// of `committed_snapshot_at(W)` across any set of this manager's
    /// objects therefore observes a *consistent prefix* of the commit
    /// order — never a later transaction without an earlier one.
    pub fn stable_watermark(&self) -> u64 {
        self.read_marks.lock().stable()
    }

    /// Apply one *replicated* committed transaction at its objects — the
    /// follower's apply path, which is deliberately the recovery replay
    /// path ([`crate::registry::replay_object_ops`]) and nothing else:
    /// every payload replays pinned to the response the primary logged,
    /// then the commit event is delivered at the replicated timestamp.
    /// The clock witnesses `ts` so this manager can never hand out a
    /// timestamp at or below history it has already applied, and the
    /// replica's fold floor — once a watermark has been witnessed — is
    /// kept within `REPLICA_FOLD_SPAN` of it.
    ///
    /// This does **not** advance the stable watermark: replicated commits
    /// arrive in *ticket* order, and commuting operations are the one
    /// case where ticket order and timestamp order may disagree — a
    /// commit with a smaller timestamp can still be in flight on the
    /// primary when a larger one lands here. Followers advance their
    /// readable watermark only through
    /// [`TxnManager::witness_replicated_watermark`], fed by the
    /// primary's sampled `(watermark, ticket)` pairs.
    pub fn apply_replicated(
        &self,
        txn: u64,
        ts: u64,
        ops: &[ReplicatedOps],
    ) -> Result<(), RecoveryError> {
        self.horizon.raise_held_floor(ts.saturating_sub(REPLICA_FOLD_SPAN));
        for (obj, payloads) in ops {
            crate::registry::replay_object_ops(obj.as_ref(), txn, ts, payloads)?;
        }
        self.clock.witness(ts);
        Ok(())
    }

    /// Raise the stable watermark to a value proven safe by the
    /// replication protocol: the primary sampled `wm` *before* reading
    /// its last issued ticket, and this follower has applied every
    /// ticket up to that sample's ticket — so every commit with
    /// timestamp `≤ wm` is applied here and `stable_watermark()` may
    /// serve it. Monotone; never lowers the mark.
    ///
    /// A witnessed watermark is also a **standing fold floor**
    /// ([`HorizonPins::hold_floor`]): replicated commits keep landing
    /// *above* it, and with nothing holding them back the newest would
    /// fold the rest into the base version — every read at the replica's
    /// own watermark would then be refused as stale until the next sample
    /// arrived. The floor stands at the watermark, or
    /// `REPLICA_FOLD_SPAN` below the newest applied commit when the
    /// watermark trails further than that
    /// ([`TxnManager::apply_replicated`] raises it), so the unfolded
    /// backlog — and what each replayed operation pays to walk it — stays
    /// bounded on a starved replica. Before the first witness (a fresh or
    /// restarted follower replaying its backlog) there is no floor:
    /// nothing is readable yet, and folding as it goes keeps that
    /// catch-up linear.
    pub fn witness_replicated_watermark(&self, wm: u64) {
        let mut marks = self.read_marks.lock();
        if wm > marks.max_applied {
            marks.max_applied = wm;
            self.horizon.hold_floor(wm);
        }
    }

    /// Pin the fold horizon at the current stable watermark and return
    /// the guard plus the pinned watermark. Watermark selection and
    /// pinning happen under one read-marks acquisition, so no commit can
    /// be allocated-and-retired between choosing `W` and protecting it.
    /// (A `forget` that *already* raced past — loaded the old floor just
    /// before this pin landed — is caught at read time by the object's
    /// folded-watermark check and surfaces as a transient refusal, not a
    /// stale answer.)
    pub fn pin_read_watermark(&self) -> PinGuard {
        let marks = self.read_marks.lock();
        self.horizon.pin(marks.stable())
    }

    /// Pin the fold horizon at a caller-chosen timestamp (time-travel
    /// reads). The caller is responsible for checking `ts` against the
    /// stable watermark and the compaction floor; objects refuse folded
    /// watermarks regardless.
    pub fn pin_read_at(&self, ts: u64) -> PinGuard {
        self.horizon.pin(ts)
    }

    /// The shared horizon-pin registry (diagnostics / tests).
    pub fn horizon(&self) -> &Arc<HorizonPins> {
        &self.horizon
    }

    /// Begin a new transaction.
    pub fn begin(&self) -> Arc<TxnHandle> {
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let h = TxnHandle::new(id);
        self.instruments.begun.inc();
        if let Some(tr) = &self.trace {
            tr.record(id.0, "", "begin", String::new());
        }
        if let Some(store) = &self.store {
            // An I/O error must not fail `begin` — but it is remembered:
            // the commit path retries the Begin record before the commit
            // record, keeping segment pinning and the on-disk history
            // complete.
            if store.log_begin(id.0).is_err() {
                self.begin_unlogged.lock().insert(id.0);
            }
        }
        h
    }

    /// Commit: two-phase atomic commitment across every touched object,
    /// with a timestamp above the transaction's lower bound. On any error
    /// the transaction is aborted everywhere.
    ///
    /// With a durable store attached, the commit record is persisted (group
    /// commit under `Durability::Fsync`) *before* the timestamp is
    /// distributed — the write-ahead discipline: a commit is acknowledged
    /// only once it would survive a crash.
    pub fn commit(&self, txn: Arc<TxnHandle>) -> Result<Timestamp, CommitError> {
        let started = Instant::now();
        if txn.phase() != TxnPhase::Active {
            return Err(CommitError::NotActive);
        }
        if txn.is_doomed() {
            self.do_abort(&txn);
            return Err(CommitError::Doomed);
        }
        let participants = txn.take_participants();
        // Phase 1: collect votes.
        for p in &participants {
            if !p.prepare(&txn) {
                let object = p.object_name().to_string();
                self.abort_at(&txn, &participants);
                return Err(CommitError::PrepareFailed { object });
            }
        }
        // Logging the record and applying it at every object happens under
        // the (shared) commit gate, so checkpoints see log and objects in
        // agreement. Without a log there is no checkpoint to agree with,
        // and the gate would only be a line every committer writes.
        let gate = self.store.as_ref().map(|_| self.commit_gate.read());
        // Generate the commit timestamp above the transaction's bound (the
        // max object clock it observed), guaranteeing precedes ⊆ TS. The
        // allocation is published into the read-marks table *atomically*
        // with drawing it from the clock: a snapshot reader computing the
        // stable watermark under the same lock either sees this timestamp
        // in flight, or runs before it exists (and every timestamp
        // allocated later is strictly larger) — either way the reader's
        // watermark excludes it.
        let ts = {
            let mut marks = self.read_marks.lock();
            let ts = self.clock.timestamp_after(txn.bound());
            marks.inflight.push(ts);
            ts
        };
        if let Some(store) = &self.store {
            // Retry a Begin record that failed at `begin()`. Still
            // failing means the log is unwell — refuse the commit rather
            // than continue over a log that is dropping appends.
            if self.begin_unlogged.lock().contains(&txn.id().0) {
                match store.log_begin(txn.id().0) {
                    Ok(()) => {
                        self.begin_unlogged.lock().remove(&txn.id().0);
                    }
                    Err(e) => {
                        drop(gate);
                        self.retire_inflight(ts, false);
                        self.abort_at(&txn, &participants);
                        self.fatal_commit_trace(txn.id(), &e.to_string());
                        return Err(CommitError::Storage(format!(
                            "begin record could not be logged: {e}"
                        )));
                    }
                }
            }
            // Drain redo payloads whose original append failed (transient
            // I/O at execution time). The write-ahead discipline requires
            // every op record on disk before the commit record; if the log
            // still refuses, the commit is refused too — acknowledging it
            // would lose these effects at recovery.
            let stashed = self.ops_unlogged.lock().remove(&txn.id().0);
            if let Some(stashed) = stashed {
                for (at, (ticket, object, bytes)) in stashed.iter().enumerate() {
                    // Retried under the originally reserved ticket, so the
                    // merged replay order is unchanged by the hiccup.
                    if let Err(e) = store.publish_op(ticket.0, txn.id().0, object, bytes) {
                        // The transaction is aborted below: this op and
                        // the ones behind it will never be logged.
                        for (ticket, ..) in &stashed[at..] {
                            store.void(ticket.0);
                        }
                        drop(gate);
                        self.retire_inflight(ts, false);
                        self.abort_at(&txn, &participants);
                        self.fatal_commit_trace(txn.id(), &e.to_string());
                        return Err(CommitError::Storage(format!(
                            "operation record could not be logged: {e}"
                        )));
                    }
                }
            }
            if let Err(e) = store.log_commit(txn.id().0, ts) {
                drop(gate);
                // The commit frame may have reached disk even though its
                // fsync failed; a *durable* abort record makes recovery's
                // abort-wins rule suppress it. If even that fails, the
                // post-crash outcome of this transaction is indeterminate —
                // say so instead of hiding it.
                let err = match store.log_abort_durable(txn.id().0) {
                    Ok(()) => e.to_string(),
                    Err(abort_err) => format!(
                        "{e}; compensating abort record also failed ({abort_err}): \
                         this transaction's outcome after a crash is indeterminate"
                    ),
                };
                self.retire_inflight(ts, false);
                self.abort_at(&txn, &participants);
                self.fatal_commit_trace(txn.id(), &err);
                return Err(CommitError::Storage(err));
            }
        }
        txn.set_phase(TxnPhase::Committed(ts));
        // Phase 2: distribute the timestamp.
        for p in &participants {
            p.commit_at(txn.id(), ts);
        }
        // Fully applied at every participant: the timestamp becomes
        // readable (it may raise the stable watermark).
        self.retire_inflight(ts, true);
        drop(gate);
        self.instruments.committed.inc();
        self.instruments.commit_nanos.observe_duration(started.elapsed());
        if let Some(tr) = &self.trace {
            tr.record(txn.id().0, "", "commit", format!("ts={ts}"));
        }
        Ok(Timestamp(ts))
    }

    /// A commit failed *fatally* (the log refused it): dump the flight
    /// recorder, if one is running, so the events leading up to the
    /// failure are readable instead of lost.
    fn fatal_commit_trace(&self, txn: TxnId, detail: &str) {
        if let Some(tr) = &self.trace {
            tr.record(txn.0, "", "commit.fail", detail.to_string());
            tr.dump_to_stderr(&format!("commit of txn {} failed fatally: {detail}", txn.0));
        }
    }

    /// Take a **fuzzy checkpoint** of `objects` through the durable
    /// store. Returns `Ok(None)` when the manager has no store.
    ///
    /// The commit gate is held exclusively only for the *begin* instant —
    /// recording the watermark `ts0`, the log's prune cut, and pinning
    /// every object's fold horizon at `ts0`; no I/O, microseconds — and
    /// is then released. Snapshots are taken incrementally, each under
    /// its own object's lock, *at* the watermark
    /// ([`Snapshot::snapshot_at`]), while concurrent commits (all with
    /// `ts > ts0`) keep flowing; recovery replays them over the fuzzy
    /// image in timestamp order. The gate-hold duration is recorded in
    /// the `ckpt.last_gate_nanos` gauge and the `ckpt.gate_nanos`
    /// histogram ([`TxnManager::metrics`]).
    pub fn checkpoint(
        &self,
        objects: &[(&str, &dyn Snapshot)],
    ) -> Result<Option<Checkpoint>, StorageError> {
        let Some(store) = &self.store else { return Ok(None) };
        let started = Instant::now();
        let _serial = self.checkpoint_serial.lock();
        let cursor = {
            let _gate = self.commit_gate.write();
            let held = Instant::now();
            let cursor = store.checkpoint_begin()?;
            for (_, obj) in objects {
                obj.pin_horizon(cursor.last_ts);
            }
            let gate_nanos = held.elapsed().as_nanos() as u64;
            self.instruments.ckpt_gate_nanos.observe(gate_nanos);
            self.instruments.ckpt_last_gate.set(gate_nanos as i64);
            cursor
        };
        let snaps: Vec<(String, Vec<u8>)> = objects
            .iter()
            .map(|(name, obj)| (name.to_string(), obj.snapshot_at(cursor.last_ts)))
            .collect();
        for (_, obj) in objects {
            obj.unpin_horizon();
        }
        let ckpt = store.checkpoint_finish(&cursor, snaps)?;
        self.instruments.ckpt_duration_nanos.observe_duration(started.elapsed());
        Ok(Some(ckpt))
    }

    /// Abort the transaction everywhere.
    pub fn abort(&self, txn: Arc<TxnHandle>) {
        self.do_abort(&txn);
    }

    fn do_abort(&self, txn: &Arc<TxnHandle>) {
        if txn.phase() == TxnPhase::Active {
            self.abort_at(txn, &txn.take_participants());
        }
    }

    /// Abort a still-active transaction at `participants`, its fan-out
    /// set (already taken from the handle by the caller).
    fn abort_at(&self, txn: &Arc<TxnHandle>, participants: &[Arc<dyn TxParticipant>]) {
        let started = Instant::now();
        txn.set_phase(TxnPhase::Aborted);
        for p in participants {
            p.abort_txn(txn.id());
        }
        if let Some(store) = &self.store {
            // Best effort: a missing abort record only delays segment
            // pruning; recovery never replays uncommitted transactions.
            let _ = store.log_abort(txn.id().0);
            self.begin_unlogged.lock().remove(&txn.id().0);
            // Stashed ops will never be logged now: their tickets are void.
            let stashed = self.ops_unlogged.lock().remove(&txn.id().0);
            for (ticket, ..) in stashed.unwrap_or_default() {
                store.void(ticket.0);
            }
        }
        self.instruments.aborted.inc();
        self.instruments.abort_nanos.observe_duration(started.elapsed());
        if let Some(tr) = &self.trace {
            tr.record(txn.id().0, "", "abort", String::new());
        }
    }

    /// Number of transactions committed through this manager.
    pub fn committed_count(&self) -> u64 {
        self.instruments.committed.get()
    }

    /// Number of transactions aborted through this manager.
    pub fn aborted_count(&self) -> u64 {
        self.instruments.aborted.get()
    }
}

/// The manager *is* the redo sink its objects log through: executing a
/// mutating operation on an object built with
/// [`TxnManager::object_options`] lands here. The object reserves the
/// operation's global order ticket under its own lock
/// ([`RedoSink::reserve`] — one atomic bump against the store's ticket
/// counter) and publishes the payload after releasing it, so the log's
/// rotation fsync can never stall the object. An append failure is
/// stashed with its ticket (in execution order) and retried by the
/// commit path under the *same* ticket — and once one payload of a
/// transaction is stashed, all its later payloads are too, so the log
/// can never hold a transaction's ops out of order.
impl RedoSink for TxnManager {
    fn reserve(&self, _txn: TxnId, _object: &str) -> RedoTicket {
        match &self.store {
            Some(store) => RedoTicket(store.reserve_ticket()),
            None => RedoTicket(0),
        }
    }

    fn publish(&self, ticket: RedoTicket, txn: TxnId, object: &str, op: &[u8]) {
        let Some(store) = &self.store else { return };
        let mut stash = self.ops_unlogged.lock();
        if let Some(pending) = stash.get_mut(&txn.0) {
            pending.push((ticket, object.to_string(), op.to_vec()));
            return;
        }
        drop(stash);
        if store.publish_op(ticket.0, txn.0, object, op).is_err() {
            self.ops_unlogged.lock().entry(txn.0).or_default().push((
                ticket,
                object.to_string(),
                op.to_vec(),
            ));
            if let Some(tr) = &self.trace {
                tr.record(txn.0, object, "log.stash", format!("ticket={}", ticket.0));
            }
        } else if let Some(tr) = &self.trace {
            tr.record(txn.0, object, "log.op", format!("ticket={} bytes={}", ticket.0, op.len()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_adts::account::AccountObject;
    use hcc_adts::fifo_queue::QueueObject;
    use hcc_spec::Rational;
    use std::time::Duration;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    #[test]
    fn commit_distributes_one_timestamp_to_all_objects() {
        let mgr = TxnManager::new();
        let a = AccountObject::hybrid("a");
        let q: QueueObject<i64> = QueueObject::hybrid("q");
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        q.enq(&t, 1).unwrap();
        let ts = mgr.commit(t).unwrap();
        assert!(ts.0 > 0);
        assert_eq!(a.committed_balance(), r(5));
        assert_eq!(q.committed_len(), 1);
        assert_eq!(mgr.committed_count(), 1);
    }

    #[test]
    fn abort_is_all_or_nothing() {
        let mgr = TxnManager::new();
        let a = AccountObject::hybrid("a");
        let q: QueueObject<i64> = QueueObject::hybrid("q");
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        q.enq(&t, 1).unwrap();
        mgr.abort(t);
        assert_eq!(a.committed_balance(), r(0));
        assert_eq!(q.committed_len(), 0);
        assert_eq!(mgr.aborted_count(), 1);
    }

    #[test]
    fn doomed_transaction_cannot_commit() {
        let mgr = TxnManager::new();
        let a = AccountObject::hybrid("a");
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        t.doom();
        assert_eq!(mgr.commit(t), Err(CommitError::Doomed));
        assert_eq!(a.committed_balance(), r(0), "aborted everywhere");
    }

    #[test]
    fn commit_twice_is_rejected() {
        let mgr = TxnManager::new();
        let t = mgr.begin();
        let t2 = t.clone();
        mgr.commit(t).unwrap();
        assert_eq!(mgr.commit(t2), Err(CommitError::NotActive));
    }

    #[test]
    fn timestamps_respect_object_clocks() {
        let mgr = TxnManager::new();
        let a = AccountObject::hybrid("a");
        let t1 = mgr.begin();
        a.credit(&t1, r(5)).unwrap();
        let ts1 = mgr.commit(t1).unwrap();
        // t2 runs at `a` after t1 committed there: its timestamp must be
        // later.
        let t2 = mgr.begin();
        a.credit(&t2, r(1)).unwrap();
        assert!(t2.bound() >= ts1.0);
        let ts2 = mgr.commit(t2).unwrap();
        assert!(ts2 > ts1);
    }

    #[test]
    fn deadlock_is_detected_and_a_victim_aborted() {
        let mgr = TxnManager::new();
        let a = Arc::new(AccountObject::with(
            "a",
            Arc::new(hcc_adts::account::AccountHybrid),
            mgr.object_options(),
        ));
        let b = Arc::new(AccountObject::with(
            "b",
            Arc::new(hcc_adts::account::AccountHybrid),
            mgr.object_options(),
        ));
        // Fund both accounts.
        let t0 = mgr.begin();
        a.credit(&t0, r(10)).unwrap();
        b.credit(&t0, r(10)).unwrap();
        mgr.commit(t0).unwrap();
        // t1: debit a then b; t2: debit b then a.
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        assert!(a.debit(&t1, r(1)).unwrap());
        assert!(b.debit(&t2, r(1)).unwrap());
        let mgr2 = mgr.clone();
        let b2 = b.clone();
        let t1c = t1.clone();
        let j1 = std::thread::spawn(move || {
            let res = b2.debit(&t1c, r(1));
            match res {
                Ok(_) => mgr2.commit(t1c).map(|_| ()).map_err(|_| ()),
                Err(_) => {
                    mgr2.abort(t1c);
                    Err(())
                }
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        let res2 = a.debit(&t2, r(1));
        let r2 = match res2 {
            Ok(_) => mgr.commit(t2).map(|_| ()).map_err(|_| ()),
            Err(_) => {
                mgr.abort(t2);
                Err(())
            }
        };
        let r1 = j1.join().unwrap();
        assert!(
            r1.is_ok() != r2.is_ok() || (r1.is_ok() && r2.is_ok()),
            "at least one transaction survives"
        );
        assert!(
            mgr.detector().victims() >= 1 || (r1.is_ok() && r2.is_ok()),
            "either a victim was chosen or no deadlock materialized"
        );
        // Money is conserved: 20 minus 1 per committed debit pair.
        let total = a.committed_balance() + b.committed_balance();
        let committed_debits = mgr.committed_count() as i64 - 1; // minus funding txn
        assert_eq!(total, r(20 - 2 * committed_debits));
    }

    #[test]
    fn stable_watermark_is_the_last_fully_applied_commit_when_idle() {
        let mgr = TxnManager::new();
        assert_eq!(mgr.stable_watermark(), 0, "nothing committed yet");
        let a = Arc::new(AccountObject::with(
            "a",
            Arc::new(hcc_adts::account::AccountHybrid),
            mgr.object_options(),
        ));
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        let ts1 = mgr.commit(t).unwrap();
        assert_eq!(mgr.stable_watermark(), ts1.0);
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        let ts2 = mgr.commit(t).unwrap();
        assert_eq!(mgr.stable_watermark(), ts2.0);
        // A refused commit retires its allocated timestamp too: the
        // watermark keeps advancing instead of wedging below it.
        let t = mgr.begin();
        a.credit(&t, r(1)).unwrap();
        mgr.abort(t);
        assert_eq!(mgr.stable_watermark(), ts2.0);
    }

    #[test]
    fn pinned_watermark_keeps_snapshots_exact_while_commits_flow() {
        let mgr = TxnManager::new();
        let a = Arc::new(AccountObject::with(
            "a",
            Arc::new(hcc_adts::account::AccountHybrid),
            mgr.object_options(),
        ));
        let t = mgr.begin();
        a.credit(&t, r(10)).unwrap();
        mgr.commit(t).unwrap();
        let pin = mgr.pin_read_watermark();
        let w = pin.watermark();
        // Writers keep committing past the pin — none of it may leak into
        // (or fold away under) the pinned snapshot.
        for _ in 0..3 {
            let t = mgr.begin();
            a.credit(&t, r(100)).unwrap();
            mgr.commit(t).unwrap();
        }
        assert_eq!(a.inner().snapshot_read(w).unwrap(), r(10));
        assert_eq!(a.committed_balance(), r(310));
        drop(pin);
        assert_eq!(mgr.horizon().active(), 0, "guard drop released the pin");
    }
}
