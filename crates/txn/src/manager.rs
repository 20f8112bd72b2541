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
use crate::marks::{ReadMarks, SLOTS};
use crate::registry::RecoveryError;
use hcc_core::runtime::{
    CacheAligned, HorizonPins, Participants, PinGuard, RuntimeOptions, TxnHandle, TxnPhase,
};
use hcc_obs::{Counter, FlightRecorder, Gauge, Histogram};
use hcc_spec::{Timestamp, TxnId};
use hcc_storage::{Checkpoint, DurableObject, DurableStore, StorageError};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a commit was refused. In every case the transaction has been
/// aborted at all objects (all-or-nothing).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// Some object voted no in the prepare phase.
    PrepareFailed {
        /// The refusing object's name.
        object: String,
    },
    /// The transaction was doomed — chosen as a deadlock victim, or one
    /// of its log records was lost.
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
            CommitError::Doomed => write!(
                f,
                "commit refused: transaction was doomed (a deadlock victim, or one of its log \
                 records was lost)"
            ),
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
    /// Every `begin` writes it, so it sits on lines of its own rather
    /// than beside the fields every commit only reads.
    next_id: CacheAligned<AtomicU64>,
    /// The durable log, when this manager persists completion records.
    store: Option<Arc<DurableStore>>,
    /// Commits hold this shared around log-write + phase-2 apply.
    /// Checkpoints hold it exclusively only for the *begin* instant of
    /// the fuzzy protocol — establishing the watermark and pinning the
    /// horizon, no I/O — so a watermark can never fall between a
    /// commit's log record and its application at the objects.
    commit_gate: RwLock<()>,
    /// Serializes whole checkpoints against each other (two concurrent
    /// checkpoints would interleave their saves and prunes).
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
    /// Which drawn commit timestamps may still be short of phase 2: one
    /// slot per committer, no lock ([`crate::marks`]). See
    /// [`TxnManager::stable_watermark`].
    marks: ReadMarks,
    /// Set once this manager applies replicated history: from then on its
    /// stable watermark is only what the primary proved (`witnessed`).
    replicated: AtomicBool,
    /// The highest watermark the replication protocol proved applied here
    /// ([`TxnManager::witness_replicated_watermark`]); at build, the
    /// store's recovery watermark.
    witnessed: AtomicU64,
    /// The shared horizon-pin registry every object built from
    /// [`TxnManager::object_options`] consults before folding — the
    /// mechanism that keeps a pinned watermark's snapshot exact across
    /// all objects at once, for snapshot reads and checkpoints alike.
    horizon: Arc<HorizonPins>,
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

    /// A manager whose completion records are persisted through an
    /// already-opened [`DurableStore`] — the commit path group-commits
    /// at the store's durability level, and [`TxnManager::checkpoint`]
    /// bounds recovery time. The clock, transaction ids and metric
    /// registry resume from the store; recovering the image its open
    /// returned is the caller's.
    pub fn with_storage(store: Arc<DurableStore>) -> Arc<TxnManager> {
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
            next_id: CacheAligned(AtomicU64::new(first_id)),
            store,
            commit_gate: RwLock::new(()),
            checkpoint_serial: parking_lot::Mutex::new(()),
            metrics,
            instruments,
            trace: FlightRecorder::from_env().map(Arc::new),
            marks: ReadMarks::new(SLOTS),
            replicated: AtomicBool::new(false),
            // Everything durable is fully applied once recovery
            // materializes it, so the recovered watermark is readable
            // immediately — on a follower too, before its first witness.
            witnessed: AtomicU64::new(recovered_ts),
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
    /// detector as wait observer and — when the manager has a durable
    /// store — the store as the redo sink, so every mutating operation on
    /// an object built with these options serializes and logs itself.
    /// There is no separate logging call for callers to forget. `hcc-db`'s
    /// `Db` builds every object it holds over these options.
    pub fn object_options(&self) -> RuntimeOptions {
        let opts = RuntimeOptions::with_observer(self.detector.clone())
            .with_metrics(self.metrics.clone())
            .with_trace(self.trace.clone())
            .with_horizon(self.horizon.clone());
        match &self.store {
            Some(store) => opts.with_redo(store.clone()),
            None => opts,
        }
    }

    /// The current **stable watermark** `W`: every commit with timestamp
    /// `≤ W` is fully applied at every object it touched, and every
    /// commit still in flight (or future) has a timestamp `> W`. A read
    /// of `snapshot_read(W)` across any set of this manager's
    /// objects therefore observes a *consistent prefix* of the commit
    /// order — never a later transaction without an earlier one.
    ///
    /// It is the clock, lowered below every commit still between drawing
    /// its timestamp and finishing phase 2 — a lock-free scan of the
    /// read marks (`crates/txn/src/marks.rs` has the rule and its
    /// proof). A follower (once it has applied or witnessed replicated
    /// history) answers only the watermark the primary proved:
    /// [`TxnManager::apply_replicated`] explains why its own clock says
    /// nothing.
    pub fn stable_watermark(&self) -> u64 {
        // The clock first, then the scan (an acquire load: a commit whose
        // draw this reads has its claim visible to the scan).
        let now = self.clock.now();
        // Relaxed: `apply_replicated` sets the flag po-before its clock
        // witness (a release RMW), so a `now` read from that witness or
        // co-later makes the flag visible here; a `now` older than every
        // witness is the recovered clock, where the scan is exact.
        if self.replicated.load(Ordering::Relaxed) {
            // Acquire: pairs with the release in
            // `witness_replicated_watermark`, so the applies it proved hb
            // this reader.
            return self.witnessed.load(Ordering::Acquire);
        }
        self.marks.stable(now)
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
        self.mark_replicated();
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
        if wm > self.witnessed.load(Ordering::Relaxed) {
            // The floor stands before the watermark is published, so no
            // reader can choose `wm` while commits above it may still fold.
            self.horizon.hold_floor(wm);
            self.mark_replicated();
            // Release: the applies the sample proved hb this call (the
            // follower applies and witnesses under one lock), so they hb
            // any reader that acquires `wm`.
            self.witnessed.fetch_max(wm, Ordering::Release);
        }
    }

    /// From now on this manager's stable watermark is the witnessed one.
    /// Relaxed: a reader that misses the flag falls back to the clock,
    /// which on a follower only `apply_replicated` moves, and only after
    /// this call. Stored once, not per apply: every read on a follower
    /// loads this line, and a store would take it from every reader's
    /// cache.
    fn mark_replicated(&self) {
        if !self.replicated.load(Ordering::Relaxed) {
            self.replicated.store(true, Ordering::Relaxed);
        }
    }

    /// Pin the fold horizon at the current stable watermark and return
    /// the guard plus the pinned watermark. The watermark is chosen
    /// inside the pin registry's one hold ([`HorizonPins::pin_with`]), so
    /// choosing and pinning are one step against other pins and unpins.
    /// (A `forget` that *already* raced past — loaded the old floor just
    /// before this pin landed — is caught at read time by the object's
    /// folded-watermark check and surfaces as a transient refusal, not a
    /// stale answer.)
    pub fn pin_read_watermark(&self) -> PinGuard {
        self.horizon.pin_with(|| self.stable_watermark())
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

    /// Begin a new transaction. Nothing is logged: a transaction's first
    /// record is its first operation's, and its commit record certifies
    /// itself.
    pub fn begin(&self) -> Arc<TxnHandle> {
        TxnHandle::new(self.next_txn_id())
    }

    /// Begin a transaction whose executions never wait
    /// ([`TxnHandle::no_wait`]): one that would is refused with
    /// `ExecError::WouldBlock`, and the caller aborts it.
    pub fn begin_no_wait(&self) -> Arc<TxnHandle> {
        TxnHandle::no_wait(self.next_txn_id())
    }

    fn next_txn_id(&self) -> TxnId {
        let id = TxnId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.instruments.begun.inc();
        if let Some(tr) = &self.trace {
            tr.record(id.0, "", "begin", String::new());
        }
        id
    }

    /// Commit: two-phase atomic commitment across every touched object,
    /// with a timestamp above the transaction's lower bound. On any error
    /// the transaction is aborted everywhere.
    ///
    /// With a durable store attached, the commit record is persisted (group
    /// commit under `Durability::Fsync`) *before* the timestamp is
    /// distributed — the write-ahead discipline: a commit is acknowledged
    /// only once it would survive a crash. Its op records are already in
    /// the log: one the log lost doomed the transaction, which is refused
    /// here with [`CommitError::Doomed`].
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
        // Claim a read mark *before* drawing, so any reader whose clock
        // load covers this timestamp also sees the mark, and holds its
        // watermark below it until phase 2 is done ([`crate::marks`]).
        let mark = self.marks.claim(&self.clock);
        // Generate the commit timestamp above the transaction's bound (the
        // max object clock it observed), guaranteeing precedes ⊆ TS.
        let ts = self.clock.timestamp_after(txn.bound());
        if let Some(store) = &self.store {
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
                self.abort_at(&txn, &participants);
                // Refused and aborted everywhere: nothing committed at
                // `ts`, so it stops holding the watermark down.
                self.marks.release(mark);
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
        self.marks.release(mark);
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
    /// recording the watermark `ts0` and the log's prune cut, and taking
    /// one pin at `ts0` on the shared horizon registry; no I/O,
    /// microseconds — and is then released. Snapshots are taken
    /// incrementally, each under its own object's lock, *at* the watermark
    /// ([`DurableObject::snapshot_at`]), while concurrent commits (all with
    /// `ts > ts0`) keep flowing; recovery replays them over the fuzzy
    /// image in timestamp order. The pin is a guard, dropped once the
    /// snapshots are taken (or by a panic unwinding out of one). An object
    /// it does not hold — one built over a private registry — may have
    /// folded past `ts0`; its snapshot refuses, and the checkpoint fails
    /// with [`StorageError::Snapshot`] before anything is written or
    /// pruned. The gate-hold duration is recorded in the
    /// `ckpt.last_gate_nanos` gauge and the `ckpt.gate_nanos` histogram
    /// ([`TxnManager::metrics`]).
    ///
    /// **Precondition:** `objects` is every object with logged history.
    /// The finish prunes every segment below the cut, so an object left
    /// out silently loses what those segments held. Over 256-byte
    /// segments, two accounts `a` and `b`, 20 commits crediting both and
    /// then `checkpoint(&[&a])` reopen with `b` at 0, not 20, and no
    /// error anywhere. `hcc-db`'s `Db::checkpoint` passes every open
    /// object and refuses while a logged name is unopened; it is the one
    /// caller outside this crate's tests.
    pub fn checkpoint(
        &self,
        objects: &[&dyn DurableObject],
    ) -> Result<Option<Checkpoint>, StorageError> {
        let Some(store) = &self.store else { return Ok(None) };
        let started = Instant::now();
        let _serial = self.checkpoint_serial.lock();
        let (cursor, pin) = {
            let _gate = self.commit_gate.write();
            let held = Instant::now();
            let cursor = store.checkpoint_begin()?;
            let pin = self.horizon.pin(cursor.last_ts);
            let gate_nanos = held.elapsed().as_nanos() as u64;
            self.instruments.ckpt_gate_nanos.observe(gate_nanos);
            self.instruments.ckpt_last_gate.set(gate_nanos as i64);
            (cursor, pin)
        };
        let snaps = objects
            .iter()
            .map(|obj| Ok((obj.object_name().to_string(), obj.snapshot_at(cursor.last_ts)?)))
            .collect::<Result<Vec<_>, StorageError>>()?;
        drop(pin);
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
    fn abort_at(&self, txn: &Arc<TxnHandle>, participants: &Participants) {
        let started = Instant::now();
        txn.set_phase(TxnPhase::Aborted);
        for p in participants {
            p.abort_txn(txn.id());
        }
        if let Some(store) = &self.store {
            // Best effort: a missing abort record only delays segment
            // pruning; recovery never replays uncommitted transactions.
            let _ = store.log_abort(txn.id().0);
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

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_adts::account::AccountObject;
    use hcc_adts::fifo_queue::QueueObject;
    use hcc_core::runtime::TxParticipant;
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
        let a = Arc::new(AccountObject::with_options("a", mgr.object_options()));
        let b = Arc::new(AccountObject::with_options("b", mgr.object_options()));
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

    /// Commits that land while a checkpoint snapshots stay out of its
    /// image and unfolded: its one pin on the shared registry holds
    /// them, and is gone when it returns. An object on a private
    /// registry, which the pin does not hold, folds past the watermark
    /// and makes the checkpoint refuse before anything is saved.
    #[test]
    fn a_checkpoint_pin_holds_commits_landing_during_its_snapshots() {
        use hcc_core::runtime::ReplayError;
        use hcc_storage::{DurableObject, SnapshotError};

        /// An account that commits two credits through the manager just
        /// before it takes its snapshot.
        struct Busy<'m> {
            mgr: &'m TxnManager,
            acct: AccountObject,
        }
        impl DurableObject for Busy<'_> {
            fn object_name(&self) -> &str {
                self.acct.object_name()
            }
            fn snapshot_at(&self, watermark: u64) -> Result<Vec<u8>, SnapshotError> {
                for _ in 0..2 {
                    let t = self.mgr.begin();
                    self.acct.credit(&t, r(1)).unwrap();
                    self.mgr.commit(t).unwrap();
                }
                self.acct.snapshot_at(watermark)
            }
            fn restore(&self, bytes: &[u8], ts: u64) -> Result<(), SnapshotError> {
                self.acct.restore(bytes, ts)
            }
            fn replay_op(&self, txn: &Arc<TxnHandle>, op: &[u8]) -> Result<(), ReplayError> {
                self.acct.replay_op(txn, op)
            }
        }

        let dir = std::env::temp_dir().join(format!("hcc-txn-ckpt-pin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = TxnManager::with_storage(DurableStore::open(&dir, Default::default()).unwrap().0);
        let shared =
            Busy { mgr: &mgr, acct: AccountObject::with_options("s", mgr.object_options()) };
        let t = mgr.begin();
        shared.acct.credit(&t, r(10)).unwrap();
        mgr.commit(t).unwrap();
        let ckpt = mgr.checkpoint(&[&shared]).unwrap().expect("store attached");
        assert_eq!(ckpt.objects[0].1, br#"{"num":10,"den":1}"#, "the fold at the watermark");
        assert_eq!(mgr.horizon().active(), 0, "the guard dropped");
        assert_eq!(shared.acct.inner().retained_committed(), 3, "the pin folded nothing");
        assert_eq!(shared.acct.committed_balance(), r(12));

        let own = mgr.object_options().with_horizon(Arc::new(HorizonPins::new()));
        let private = Busy { mgr: &mgr, acct: AccountObject::with_options("p", own) };
        match mgr.checkpoint(&[&shared, &private]) {
            Err(StorageError::Snapshot(e)) => assert!(e.0.contains("stale"), "{e}"),
            other => panic!("expected a refused snapshot, got {other:?}"),
        }
        assert_eq!(mgr.metrics().counter("ckpt.count").get(), 1, "nothing saved");
        assert_eq!(mgr.horizon().active(), 0, "the guard dropped on the refusal too");
        drop((shared, private));
        drop(mgr);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A durable manager that rotates on every append, so renaming its
    /// stream directory away makes the next append fail.
    fn rotating_store(name: &str) -> (std::path::PathBuf, Arc<TxnManager>) {
        use hcc_storage::{CompactionPolicy, Durability, StorageOptions};
        let dir = std::env::temp_dir().join(format!("hcc-txn-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StorageOptions {
            segment_max_bytes: 1, // every append rotates
            durability: Durability::Buffered,
            policy: CompactionPolicy::never(),
        };
        let mgr = TxnManager::with_storage(DurableStore::open(&dir, opts).unwrap().0);
        (dir, mgr)
    }

    #[test]
    fn stable_watermark_is_the_last_fully_applied_commit_when_idle() {
        let (dir, mgr) = rotating_store("refused-commit");
        assert_eq!(mgr.stable_watermark(), 0, "nothing committed yet");
        let a = Arc::new(AccountObject::with_options("a", mgr.object_options()));
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        let ts1 = mgr.commit(t).unwrap();
        assert_eq!(mgr.stable_watermark(), ts1.0);
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        let ts2 = mgr.commit(t).unwrap();
        assert_eq!(mgr.stable_watermark(), ts2.0);

        // A commit whose commit record the log refuses: it drew a
        // timestamp and claimed a read mark, then failed.
        let t = mgr.begin();
        a.credit(&t, r(1)).unwrap();
        let stream = dir.join(hcc_storage::wal::STREAM_DIR);
        let away = dir.join("moved-away");
        std::fs::rename(&stream, &away).unwrap();
        let refused = mgr.commit(t);
        std::fs::rename(&away, &stream).unwrap();
        assert!(matches!(refused, Err(CommitError::Storage(_))), "{refused:?}");
        let refused_ts = mgr.clock().now();
        assert!(refused_ts > ts2.0, "the refused commit drew a timestamp");
        assert_eq!(a.committed_balance(), r(10), "and applied nowhere");

        // The next commit carries the watermark past the refused one: the
        // failure path cleared its mark instead of wedging the watermark
        // at `refused_ts - 1`.
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        let ts3 = mgr.commit(t).unwrap();
        assert!(ts3.0 > refused_ts);
        assert_eq!(mgr.stable_watermark(), ts3.0);
        drop((a, mgr));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A participant that reports its phase 2 and then holds it until
    /// told to go on.
    struct PausedCommit {
        entered: std::sync::Mutex<std::sync::mpsc::Sender<u64>>,
        resume: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl TxParticipant for PausedCommit {
        fn object_name(&self) -> &str {
            "paused"
        }
        fn prepare(&self, _: &TxnHandle) -> bool {
            true
        }
        fn commit_at(&self, _: TxnId, ts: u64) {
            self.entered.lock().unwrap().send(ts).unwrap();
            self.resume.lock().unwrap().recv().unwrap();
        }
        fn abort_txn(&self, _: TxnId) {}
    }

    #[test]
    fn a_paused_commit_holds_the_watermark_below_itself() {
        let mgr = TxnManager::new();
        let a = AccountObject::hybrid("a");
        let (entered, entered_rx) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel();
        let paused = Arc::new(PausedCommit {
            entered: std::sync::Mutex::new(entered),
            resume: std::sync::Mutex::new(resume_rx),
        });
        let t = mgr.begin();
        t.register(&paused);
        let committer = {
            let mgr = mgr.clone();
            std::thread::spawn(move || mgr.commit(t).unwrap())
        };
        let paused_ts = entered_rx.recv().unwrap();

        // A later commit on another object completes meanwhile, but the
        // watermark stays below the paused commit's timestamp.
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        let later = mgr.commit(t).unwrap();
        assert!(later.0 > paused_ts);
        assert_eq!(mgr.stable_watermark(), paused_ts - 1);
        assert_eq!(mgr.pin_read_watermark().watermark(), paused_ts - 1);

        resume.send(()).unwrap();
        assert_eq!(committer.join().unwrap().0, paused_ts);
        assert_eq!(mgr.stable_watermark(), later.0, "released: the later commit is readable");
    }

    #[test]
    fn pinned_watermark_keeps_snapshots_exact_while_commits_flow() {
        let mgr = TxnManager::new();
        let a = Arc::new(AccountObject::with_options("a", mgr.object_options()));
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

    /// A redo record the log cannot take — here the rotation it needs
    /// finds no directory to create its segment in — dooms exactly its
    /// own transaction: the commit is refused as `Doomed`, nothing of it
    /// recovers, a live tailer passes its void ticket, and the next
    /// transaction commits as usual.
    #[test]
    fn a_lost_op_record_dooms_exactly_its_transaction() {
        use hcc_core::runtime::ExecError;

        let (dir, mgr) = rotating_store("lost-op");
        let store = mgr.storage().unwrap().clone();
        let a = AccountObject::with_options("a", mgr.object_options());
        let t = mgr.begin();
        a.credit(&t, r(5)).unwrap();
        mgr.commit(t).unwrap();
        let mut tailer = store.tail(0);

        let stream = dir.join(hcc_storage::wal::STREAM_DIR);
        let away = dir.join("moved-away");
        std::fs::rename(&stream, &away).unwrap();
        let lost = mgr.begin();
        let lost_ticket = store.last_issued_ticket() + 1;
        a.credit(&lost, r(100)).unwrap();
        std::fs::rename(&away, &stream).unwrap();
        assert!(lost.is_doomed(), "the credit ran, but its record is not in the log");
        assert_eq!(a.credit(&lost, r(1)), Err(ExecError::Doomed));
        let lost_id = lost.id().0;
        assert_eq!(mgr.commit(lost), Err(CommitError::Doomed));

        let t = mgr.begin();
        a.credit(&t, r(7)).unwrap();
        mgr.commit(t).unwrap();
        assert_eq!(a.committed_balance(), r(12));

        let mut shipped = Vec::new();
        loop {
            let batch = tailer.poll().unwrap();
            if batch.is_empty() {
                break;
            }
            shipped.extend(batch.into_iter().map(|(ticket, _)| ticket));
        }
        let everything_else: Vec<u64> =
            (1..=store.last_issued_ticket()).filter(|&t| t != lost_ticket).collect();
        assert_eq!(shipped, everything_else, "the void ticket is passed, not waited on");

        drop((a, store, mgr));
        let recovered = DurableStore::recover(&dir).unwrap();
        let txns: Vec<u64> = recovered.committed.iter().map(|c| c.txn).collect();
        assert_eq!(txns.len(), 2);
        assert!(!txns.contains(&lost_id));
        assert!(recovered.in_doubt.is_empty() && recovered.incomplete.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
