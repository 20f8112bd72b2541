//! The generic hybrid-atomic object: versions, intents, implicit locks,
//! `when`-style blocking, and horizon-based forgetting.

use super::adt::{Classified, RedoDecodeError, RuntimeAdt};
use super::handle::{TxnHandle, TxnPhase};
use super::options::RuntimeOptions;
use super::spec_adt::SpecLock;
use hcc_obs::{Counter, Histogram};
use hcc_relations::relation::ClassId;
use hcc_spec::TxnId;
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// How many times a refused execution re-reads the object's completion
/// count before it parks: about 1.5 µs of spinning (one `spin_loop`
/// hint measured ≈24 ns on a 2-vCPU x86-64 guest), which is what an
/// uncontended lock holder still has to live, where parking a thread
/// and waking it again costs ten to twenty. Deliberately no longer. On
/// two cores sharing three hot objects a commit made while the other
/// thread is also running costs 2.5 times one made alone (every cache
/// line of the object changes hands), so a waiter that keeps spinning
/// until a *contended* holder finishes (2–3 µs) holds both threads in
/// that regime: measured at 256 iterations, the median commit took
/// 2.4 µs against 1.1 µs here, at the same rate of commits.
///
/// Re-swept once the latch's hold was shortened (`hot_adts`, three 8 s
/// runs per bound on that guest, medians): 0, 64, 512 and 4096
/// iterations gave 423, 484, 459 and 479 k commits/s — within the
/// runs' spread — and a median commit of 2.0, 2.2, 3.5 and 3.5 µs;
/// waits per 1 000 commits rose with the bound (≈60, 80, 115, 125).
/// No bound beat 64.
const SPIN_BOUND: u32 = 64;

/// Why a blocking execution gave up.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The transaction was doomed — chosen as a deadlock victim, or one
    /// of its log records was lost; the caller must abort it.
    Doomed,
    /// The block policy's timeout elapsed.
    Timeout,
    /// The transaction is not active (already committed or aborted).
    NotActive,
    /// A no-wait transaction ([`TxnHandle::no_wait`]) would have had to
    /// wait: a held operation conflicts, or the operation is undefined
    /// in the current view. Nothing was executed; the caller must abort
    /// the transaction.
    WouldBlock,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Doomed => write!(
                f,
                "execution refused: transaction was doomed (a deadlock victim, or one of its \
                 log records was lost)"
            ),
            ExecError::Timeout => {
                write!(f, "execution refused: lock-wait timeout elapsed while blocked")
            }
            ExecError::NotActive => {
                write!(
                    f,
                    "execution refused: transaction is not active (already committed or aborted)"
                )
            }
            ExecError::WouldBlock => {
                write!(f, "execution refused: a no-wait transaction would have had to wait")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Why replaying a logged operation onto an object failed. Any of these
/// during recovery means the log and the object disagree — corruption or a
/// replay-order bug — and recovery must stop rather than guess.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The redo payload could not be decoded.
    Decode(RedoDecodeError),
    /// The replayed execution was refused (conflict/timeout against replay
    /// state — should be impossible in a quiesced recovery).
    Exec(ExecError),
    /// The operation executed, but no candidate reproduced the logged
    /// response.
    Diverged {
        /// The logged response (debug form).
        expected: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Decode(e) => write!(f, "replay: {e}"),
            ReplayError::Exec(e) => write!(f, "replay execution refused: {e}"),
            ReplayError::Diverged { expected } => {
                write!(f, "replay diverged: no candidate reproduced logged response {expected}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Refusal from [`TxObject::install_version`]: the object is not fresh
/// — it already holds committed history or active transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NotFresh;

impl std::fmt::Display for NotFresh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot install a recovered version: the object already has history")
    }
}

impl std::error::Error for NotFresh {}

/// Refusal from [`TxObject::snapshot_read`]: a commit with timestamp
/// above the requested watermark has already been folded into the
/// compacted version, so the watermark image can no longer be
/// reconstructed here. Readers that pinned the horizon *before* picking
/// their watermark only hit this in the benign race where a fold
/// completed between watermark selection and the pin landing — the read
/// layer treats it as transient and retries at a fresh watermark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotStale {
    /// The highest commit timestamp folded into the base version.
    pub folded: u64,
    /// The watermark the reader asked for.
    pub watermark: u64,
}

impl std::fmt::Display for SnapshotStale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot at timestamp {} is stale: commits up to {} are already \
             compacted into the base version",
            self.watermark, self.folded
        )
    }
}

impl std::error::Error for SnapshotStale {}

/// Outcome of a single non-blocking execution attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TryExecOutcome<R> {
    /// Lock granted; operation executed with this response.
    Executed(R),
    /// Refused: conflicting operations held by these active transactions.
    Conflict(Vec<TxnId>),
    /// The operation is not defined in the current view (partial op).
    Undefined,
}

/// Commit/abort interface used by the transaction manager for fan-out; a
/// type-erased view of [`TxObject`].
pub trait TxParticipant: Send + Sync {
    /// The object's name.
    fn object_name(&self) -> &str;
    /// Phase-1 vote: can this transaction still commit here?
    fn prepare(&self, txn: &TxnHandle) -> bool;
    /// Phase 2: the transaction committed with timestamp `ts`.
    fn commit_at(&self, txn: TxnId, ts: u64);
    /// The transaction aborted; discard its intent and release its locks.
    fn abort_txn(&self, txn: TxnId);
}

/// Aggregate contention statistics for one object.
#[derive(Clone, Copy, Debug, Default)]
pub struct ObjectStats {
    /// Operations executed (locks granted).
    pub executed: u64,
    /// Lock requests refused.
    pub conflicts: u64,
    /// Blocking executions that had to wait (each counted once, however
    /// many completions it took to let them through).
    pub waits: u64,
    /// Committed transactions folded into the version by `forget()`.
    pub forgotten: u64,
}

/// An active transaction's entry: its intent, its executed operations
/// (its locks) and its lower bound. An operation is held as its class and
/// key, filed once when it executed: all a lock test reads of it.
struct TxnRec<A: RuntimeAdt> {
    intent: A::Intent,
    ops: Vec<Classified<A::Key>>,
    /// The object clock at the transaction's latest execution here — its
    /// entry in the appendix's bound table, a lower bound on its eventual
    /// commit timestamp.
    bound: u64,
}

/// How many cleared op lists an object keeps for the next transactions
/// to execute here. About as many transactions run at one object at
/// once; a completion past this bound frees its list.
const SPARE_OPS: usize = 4;

struct ObjState<A: RuntimeAdt> {
    /// Compacted committed state (`s.version` / the appendix's `bal`).
    version: A::Version,
    /// Committed but unforgotten intents with their commit timestamps,
    /// in timestamp order (the appendix's `committed` id-heap plus
    /// `intentions`). A ring: a commit appends at the back (or, arriving
    /// out of timestamp order, is inserted in place) and `forget()` pops
    /// from the front, so once it has grown to its usual length of one
    /// or two nothing here allocates. A committed transaction's locks
    /// are gone; only its intent is kept.
    committed: VecDeque<(u64, A::Intent)>,
    /// Active transactions' intents, executed operations and lower
    /// bounds (the intent and bound tables; the lock table is implicit
    /// in `ops`). Unordered, found by scan: every lock test walks all of
    /// them anyway, and there are as many as transactions active *here*.
    active: Vec<(TxnId, TxnRec<A>)>,
    /// Op lists of completed transactions, cleared, at most
    /// [`SPARE_OPS`]: the next transaction to execute here takes one
    /// instead of allocating its own.
    spare_ops: Vec<Vec<Classified<A::Key>>>,
    /// The one candidate buffer every attempt here fills
    /// ([`RuntimeAdt::candidates`]), drains and hands back empty with
    /// its capacity, all under the latch.
    candidates: Vec<(A::Res, A::Intent)>,
    /// Latest observed commit timestamp (0 = none; real timestamps are
    /// positive).
    clock: u64,
    /// The checkpoint's fold bound ([`TxObject::pin_horizon`]): one more
    /// lower bound beside the active transactions'.
    pin: Option<u64>,
    /// Highest commit timestamp ever folded into `version` (0 = none):
    /// the compaction watermark below which per-timestamp images are
    /// gone. [`TxObject::snapshot_read`] refuses watermarks below this
    /// instead of serving the folded state as if it were the older image.
    folded: u64,
    /// Transactions whose `when` condition was false here and that have
    /// not been woken since. Written under the same hold of the latch
    /// that evaluated the condition, drained by the next completion.
    waiters: Vec<Arc<TxnHandle>>,
    /// Operations executed (locks granted), replays included.
    executed: u64,
    /// Committed transactions folded into `version` by `forget()`.
    forgotten: u64,
    /// Grant counters by [`ClassId`], each resolved at its class's first
    /// grant — kept under the latch so that a grant writes no shared
    /// memory besides the latch and this state: the counters themselves
    /// are sharded per thread.
    grants: Vec<Option<Arc<Counter>>>,
}

/// How many committed intents a view lends the type from the stack; a
/// longer backlog is collected into a `Vec`. Views hold about one.
const VIEW_INLINE: usize = 8;

impl<A: RuntimeAdt> ObjState<A> {
    /// Fill `out` with the type's candidates for `inv` in `txn`'s view —
    /// the version, the committed intents in timestamp order, then its
    /// own intent — lent to the type in place: nothing is cloned, and the
    /// intents are gathered on the stack unless there are more than
    /// [`VIEW_INLINE`].
    fn fill_candidates(
        &self,
        adt: &A,
        txn: TxnId,
        inv: &A::Inv,
        out: &mut Vec<(A::Res, A::Intent)>,
    ) {
        let none;
        let own = match self.active.iter().find(|(t, _)| *t == txn) {
            Some((_, rec)) => &rec.intent,
            None => {
                none = A::Intent::default();
                &none
            }
        };
        let intents = self.committed.iter().map(|(_, intent)| intent);
        let n = self.committed.len();
        if n > VIEW_INLINE {
            let spilled: Vec<&A::Intent> = intents.collect();
            return adt.candidates(&self.version, &spilled, own, inv, out);
        }
        let mut inline = [own; VIEW_INLINE];
        for (slot, intent) in inline.iter_mut().zip(intents) {
            *slot = intent;
        }
        adt.candidates(&self.version, &inline[..n], own, inv, out)
    }

    /// `txn`'s active entry, made on its first execution here with a
    /// spare op list when there is one.
    fn active_rec(&mut self, txn: TxnId) -> &mut TxnRec<A> {
        let at = match self.active.iter().position(|(t, _)| *t == txn) {
            Some(at) => at,
            None => {
                let ops = self.spare_ops.pop().unwrap_or_default();
                self.active.push((txn, TxnRec { intent: A::Intent::default(), ops, bound: 0 }));
                self.active.len() - 1
            }
        };
        &mut self.active[at].1
    }

    /// Remove `txn`'s active entry, keeping its cleared op list as a
    /// spare; its intent, if it executed here.
    fn retire(&mut self, txn: TxnId) -> Option<A::Intent> {
        let at = self.active.iter().position(|(t, _)| *t == txn)?;
        let (_, TxnRec { intent, mut ops, .. }) = self.active.swap_remove(at);
        if self.spare_ops.len() < SPARE_OPS {
            ops.clear();
            self.spare_ops.push(ops);
        }
        Some(intent)
    }

    /// File a committed intent under its timestamp: at the back, where
    /// commits almost always land, else in its place.
    fn push_committed(&mut self, ts: u64, intent: A::Intent) {
        if self.committed.back().is_none_or(|(last, _)| *last < ts) {
            self.committed.push_back((ts, intent));
        } else {
            let at = self.committed.partition_point(|(t, _)| *t < ts);
            self.committed.insert(at, (ts, intent));
        }
    }

    /// The committed state as of `watermark`: the version with every
    /// unforgotten intent at or below it applied.
    fn image_at(&self, adt: &A, watermark: u64) -> A::Version {
        let mut v = self.version.clone();
        for (_, intent) in self.committed.iter().take_while(|(ts, _)| *ts <= watermark) {
            adt.apply(&mut v, intent);
        }
        v
    }
}

/// What one evaluation of the `when` condition found.
enum Attempt<A: RuntimeAdt> {
    /// No held operation conflicts: the operation is executed.
    Granted(A::Res),
    /// Every candidate conflicts with an operation of one of `holders`;
    /// `pair` is the first `(requested, held)` class pair found.
    Conflict { holders: Vec<TxnId>, pair: (ClassId, ClassId) },
    /// The operation is not defined in the current view (partial op).
    Undefined,
}

/// The counters of one `(requested, held)` conflict-class pair.
#[derive(Clone)]
struct PairCounters {
    refusals: Arc<Counter>,
    waits: Arc<Counter>,
}

/// A value on 128-byte-aligned lines of its own: nothing else shares a
/// cache line with it (64-byte lines; 128 covers adjacent-line
/// prefetchers).
#[repr(align(128))]
pub struct CacheAligned<T>(pub T);

impl<T> Deref for CacheAligned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The counters only the contended path touches: the completion count a
/// refused execution spins on, and the refusal and wait tallies.
#[derive(Default)]
struct Tallies {
    /// Completions (commit, abort, unpin) that found waiters here.
    /// Written under the latch; a refused execution spins on it before
    /// parking. It publishes nothing — a spinner that sees it move only
    /// re-takes the latch, which orders everything else — hence
    /// `Relaxed` throughout.
    completions: AtomicU64,
    conflicts: AtomicU64,
    waits: AtomicU64,
}

/// A thread-safe transactional object running one data type under one
/// concurrency-control scheme.
///
/// The latch with the state it guards and the contended-path tallies
/// each sit on cache lines of their own, away from the read-mostly
/// header (`name`, `adt`, `locks`, `opts`) and the `Arc` counts: a
/// thread writing them does not take from the other thread the lines
/// it reads on every operation (`layout_keeps_the_latch_on_its_own_lines`
/// holds this).
pub struct TxObject<A: RuntimeAdt> {
    inner: CacheAligned<Mutex<ObjState<A>>>,
    tallies: CacheAligned<Tallies>,
    name: String,
    adt: A,
    locks: SpecLock<A>,
    opts: RuntimeOptions,
    /// Refusal and wait counters by `(requested, held)` class pair, one
    /// cell per pair of the relation's vocabulary (`requested * n +
    /// held`), made at the object's first refusal and each resolved at
    /// its pair's first: a refusal costs an index, not two label
    /// allocations and two registry lookups.
    pairs: OnceLock<Box<[OnceLock<PairCounters>]>>,
    /// `lock.waits.{TYPE}.undefined`: waits on a partial operation, which
    /// have no conflict pair. Resolved at the first such wait.
    undefined_waits: OnceLock<Arc<Counter>>,
    /// `lock.wait_nanos.{TYPE}`, resolved at the first wait.
    wait_nanos: OnceLock<Arc<Histogram>>,
    /// `lock.view.intents`, resolved at the first attempt.
    view_intents: OnceLock<Arc<Counter>>,
}

impl<A: RuntimeAdt> TxObject<A> {
    /// Create an object with the given data type, lock scheme and options.
    pub fn new(
        name: impl Into<String>,
        adt: A,
        locks: SpecLock<A>,
        opts: RuntimeOptions,
    ) -> Arc<TxObject<A>> {
        let version = adt.initial();
        Arc::new(TxObject {
            inner: CacheAligned(Mutex::new(ObjState {
                version,
                committed: VecDeque::new(),
                active: Vec::new(),
                spare_ops: Vec::new(),
                candidates: Vec::new(),
                clock: 0,
                pin: None,
                folded: 0,
                waiters: Vec::new(),
                executed: 0,
                forgotten: 0,
                grants: Vec::new(),
            })),
            tallies: CacheAligned(Tallies::default()),
            name: name.into(),
            adt,
            locks,
            opts,
            pairs: OnceLock::new(),
            undefined_waits: OnceLock::new(),
            wait_nanos: OnceLock::new(),
            view_intents: OnceLock::new(),
        })
    }

    /// The object's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The data type this object runs.
    pub fn adt(&self) -> &A {
        &self.adt
    }

    /// The lock scheme's name (for experiment output).
    pub fn scheme(&self) -> &'static str {
        self.locks.name()
    }

    /// One non-blocking execution attempt (the body of the appendix's
    /// `when` condition plus its critical section).
    pub fn try_execute(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        inv: &A::Inv,
    ) -> Result<TryExecOutcome<A::Res>, ExecError> {
        Self::check_runnable(txn)?;
        let mut st = self.inner.lock();
        Ok(match self.attempt(&mut st, txn, inv) {
            Attempt::Granted(res) => TryExecOutcome::Executed(self.granted(st, txn, inv, res)),
            Attempt::Conflict { holders, pair } => {
                drop(st);
                self.refused(txn, pair);
                TryExecOutcome::Conflict(holders)
            }
            Attempt::Undefined => TryExecOutcome::Undefined,
        })
    }

    fn check_runnable(txn: &TxnHandle) -> Result<(), ExecError> {
        if txn.is_doomed() {
            return Err(ExecError::Doomed);
        }
        if txn.phase() != TxnPhase::Active {
            return Err(ExecError::NotActive);
        }
        Ok(())
    }

    /// The rest of a granted execution, entered with the latch still
    /// held by the attempt that granted it.
    fn granted(
        self: &Arc<Self>,
        mut st: MutexGuard<'_, ObjState<A>>,
        txn: &Arc<TxnHandle>,
        inv: &A::Inv,
        res: A::Res,
    ) -> A::Res {
        txn.observe_clock(st.clock);
        st.executed += 1;
        // Self-logging, two-phase: serializing the redo payload is an
        // intrinsic effect of executing, not a caller obligation. The
        // order slot (ticket) is *reserved* while the object lock is
        // still held — so the ticket order of this object's ops can
        // never diverge from their execution order, and recovery
        // replays in ticket order — but the append itself is
        // *published* after the lock drops, so the log's
        // rotation fsync can no longer stall every transaction
        // queued on a hot object. Replay handles re-install history
        // that is already durable, so they skip the sink entirely.
        let mut pending = None;
        if !txn.is_replay() {
            if let Some(sink) = &self.opts.redo {
                if let Some(bytes) = self.adt.redo(inv, &res) {
                    pending = Some((sink, sink.reserve(txn.id(), &self.name), bytes));
                }
            }
        }
        drop(st);
        if let Some((sink, ticket, bytes)) = pending {
            let logged = sink.publish(ticket, txn.id(), &self.name, &bytes);
            // A record the log could not take dooms its transaction: it
            // may run on, but it can never commit.
            if !logged {
                txn.doom();
            }
            if let Some(tr) = &self.opts.trace {
                let (event, detail) = if logged {
                    ("log.op", format!("ticket={} bytes={}", ticket.0, bytes.len()))
                } else {
                    ("log.lost", format!("ticket={}", ticket.0))
                };
                tr.record(txn.id().0, &self.name, event, detail);
            }
        }
        txn.register(self);
        if let (Some(tr), false) = (&self.opts.trace, txn.is_replay()) {
            let class = A::classify(self.locks.relation(), inv, &res).class;
            tr.record(txn.id().0, &self.name, "grant", self.locks.class_name(class).0);
        }
        res
    }

    /// Count a refusal under its conflict-class pair — the live view of
    /// the paper's conflict tables — and hand back the pair's wait
    /// counter.
    fn refused(&self, txn: &TxnHandle, pair: (ClassId, ClassId)) -> &Counter {
        self.tallies.conflicts.fetch_add(1, Ordering::Relaxed);
        let counters = self.pair_counters(pair);
        counters.refusals.inc();
        if let Some(tr) = &self.opts.trace {
            tr.record(txn.id().0, &self.name, "refuse", self.pair_label(pair));
        }
        &counters.waits
    }

    fn pair_label(&self, (requested, held): (ClassId, ClassId)) -> String {
        format!("{}|{}", self.locks.class_name(requested), self.locks.class_name(held))
    }

    /// The refusal and wait counters for this class pair (see the `pairs`
    /// field). Only a pair the matrix relates is ever refused, and both
    /// its classes are in the vocabulary.
    fn pair_counters(&self, pair: (ClassId, ClassId)) -> &PairCounters {
        let n = self.locks.relation().classes().len();
        let pairs = self.pairs.get_or_init(|| (0..n * n).map(|_| OnceLock::new()).collect());
        pairs[usize::from(pair.0 .0) * n + usize::from(pair.1 .0)].get_or_init(|| {
            let (ty, label) = (self.adt.type_name(), self.pair_label(pair));
            PairCounters {
                refusals: self.opts.metrics.counter(&format!("lock.refusals.{ty}.{label}")),
                waits: self.opts.metrics.counter(&format!("lock.waits.{ty}.{label}")),
            }
        })
    }

    /// Count a grant under its class (see the `grants` field).
    fn count_grant(&self, st: &mut ObjState<A>, class: ClassId) {
        let at = usize::from(class.0);
        if st.grants.len() <= at {
            st.grants.resize(at + 1, None);
        }
        st.grants[at]
            .get_or_insert_with(|| {
                let name = format!(
                    "lock.grants.{}.{}",
                    self.adt.type_name(),
                    self.locks.class_name(class)
                );
                self.opts.metrics.counter(&name)
            })
            .inc();
    }

    /// Replay one executed operation with its logged response: like a
    /// normal execution, but only a candidate whose response equals
    /// `expected` is eligible — nondeterministic operations (a semiqueue
    /// `rem`) are pinned to the choice the original execution made, and a
    /// deterministic operation whose outcome changed (a logged successful
    /// debit that would now overdraft) is reported as divergence instead
    /// of silently rewriting history.
    pub fn replay_executed(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        inv: A::Inv,
        expected: A::Res,
    ) -> Result<(), ReplayError> {
        if txn.phase() != TxnPhase::Active {
            return Err(ReplayError::Exec(ExecError::NotActive));
        }
        let mut st = self.inner.lock();
        let mut candidates = std::mem::take(&mut st.candidates);
        st.fill_candidates(&self.adt, txn.id(), &inv, &mut candidates);
        let found = candidates.drain(..).find(|(res, _)| *res == expected);
        st.candidates = candidates;
        let Some((res, intent)) = found else {
            return Err(ReplayError::Diverged { expected: format!("{expected:?}") });
        };
        // Recovery replays into quiesced objects: lock conflicts cannot
        // arise (the only active transactions are replay transactions,
        // which committed without conflicting in the original history), so
        // the operation is installed directly.
        let clock = st.clock;
        let rec = st.active_rec(txn.id());
        rec.intent = intent;
        let class = A::classify(self.locks.relation(), &inv, &res);
        rec.ops.push(class);
        rec.bound = clock;
        st.executed += 1;
        txn.observe_clock(clock);
        drop(st);
        txn.register(self);
        Ok(())
    }

    /// Decode a redo payload (produced by the type's
    /// [`RuntimeAdt::redo`]) and replay it via
    /// [`TxObject::replay_executed`].
    pub fn replay_redo(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        bytes: &[u8],
    ) -> Result<(), ReplayError> {
        let (inv, expected) = self.adt.decode_redo(bytes).map_err(ReplayError::Decode)?;
        self.replay_executed(txn, inv, expected)
    }

    /// Execute with blocking — the appendix's atomic `when (condition)
    /// { … }`: the condition (is there a candidate no held operation
    /// conflicts with?) is tested and, when false, the caller recorded as
    /// a waiter under **one** hold of the object's latch, so no commit or
    /// abort can fall between the test and the wait. After that only
    /// events resume it: a completion at this object wakes every
    /// recorded waiter, and a doom wakes the victim through its own wake
    /// token. Both are sticky, so the bookkeeping between releasing the
    /// latch and parking (counters, the deadlock observer) cannot lose
    /// one. Returns when the lock is granted, the policy's timeout
    /// passes, or the transaction is doomed — or, for a no-wait handle,
    /// at the first refusal with [`ExecError::WouldBlock`], before any
    /// of the waiting above (the refusal itself is still counted).
    pub fn execute(
        self: &Arc<Self>,
        txn: &Arc<TxnHandle>,
        inv: A::Inv,
    ) -> Result<A::Res, ExecError> {
        // From the first refusal on: when the wait began and, under a
        // timeout, when it must end.
        let mut blocked: Option<(Instant, Option<Instant>)> = None;
        let outcome = loop {
            if let Err(e) = Self::check_runnable(txn) {
                break Err(e);
            }
            let mut st = self.inner.lock();
            let refusal = match self.attempt(&mut st, txn, &inv) {
                Attempt::Granted(res) => break Ok(self.granted(st, txn, &inv, res)),
                refusal => refusal,
            };
            if txn.is_no_wait() {
                drop(st);
                if let Attempt::Conflict { pair, .. } = refusal {
                    self.refused(txn, pair);
                }
                break Err(ExecError::WouldBlock);
            }
            // A wake-up still pending from an earlier wait would make the
            // park below return for nothing; one owed to *this*
            // registration cannot have been sent yet (see `reset_wake`,
            // whose doom check is the first thing `spin_for_completion`
            // does).
            txn.reset_wake();
            if !st.waiters.iter().any(|w| Arc::ptr_eq(w, txn)) {
                st.waiters.push(txn.clone());
            }
            let seen = self.tallies.completions.load(Ordering::Relaxed);
            drop(st);

            let (holders, wait_counter) = match refusal {
                Attempt::Conflict { holders, pair } => (holders, self.refused(txn, pair)),
                // Partial operation: wait for the state to change. There
                // is no conflict pair; label the wait so.
                _ => (Vec::new(), self.undefined_wait_counter()),
            };
            let now = Instant::now();
            let (_, deadline) = *blocked.get_or_insert_with(|| {
                self.tallies.waits.fetch_add(1, Ordering::Relaxed);
                wait_counter.inc();
                (now, self.opts.block.timeout.map(|t| now + t))
            });
            if deadline.is_some_and(|d| now >= d) {
                break Err(ExecError::Timeout);
            }
            if let Some(tr) = &self.opts.trace {
                tr.record(txn.id().0, &self.name, "wait", String::new());
            }
            self.opts.observer.on_block(txn, &holders);
            if !self.spin_for_completion(seen, txn) && !txn.park(deadline) {
                break Err(ExecError::Timeout);
            }
        };
        if let Some((since, _)) = blocked {
            if outcome.is_err() {
                // A completion would have removed the registration; a
                // timeout or a doom leaves it behind.
                self.inner.lock().waiters.retain(|w| !Arc::ptr_eq(w, txn));
            }
            self.opts.observer.on_unblock(txn.id());
            self.wait_nanos_histogram().observe_duration(since.elapsed());
        }
        outcome
    }

    /// Has something completed here since `seen` was read, or was `txn`
    /// doomed? Re-checked up to [`SPIN_BOUND`] times.
    fn spin_for_completion(&self, seen: u64, txn: &TxnHandle) -> bool {
        let resumed =
            || self.tallies.completions.load(Ordering::Relaxed) != seen || txn.is_doomed();
        for _ in 0..SPIN_BOUND {
            if resumed() {
                return true;
            }
            std::hint::spin_loop();
        }
        resumed()
    }

    fn undefined_wait_counter(&self) -> &Counter {
        self.undefined_waits.get_or_init(|| {
            let name = format!("lock.waits.{}.undefined", self.adt.type_name());
            self.opts.metrics.counter(&name)
        })
    }

    fn wait_nanos_histogram(&self) -> &Histogram {
        self.wait_nanos.get_or_init(|| {
            self.opts.metrics.histogram(&format!("lock.wait_nanos.{}", self.adt.type_name()))
        })
    }

    /// End a completion's hold on the latch: fold what the horizon now
    /// allows and wake every waiter recorded here. The waiters re-test
    /// their conditions themselves; which of them can now proceed is the
    /// conflict table's business, not the waker's.
    fn complete(&self, mut st: MutexGuard<'_, ObjState<A>>) {
        self.forget(&mut st);
        if st.waiters.is_empty() {
            return;
        }
        let waiters = std::mem::take(&mut st.waiters);
        self.tallies.completions.fetch_add(1, Ordering::Relaxed);
        drop(st);
        for waiter in waiters {
            waiter.wake();
        }
    }

    fn attempt(&self, st: &mut ObjState<A>, txn: &TxnHandle, inv: &A::Inv) -> Attempt<A> {
        let view_intents =
            self.view_intents.get_or_init(|| self.opts.metrics.counter("lock.view.intents"));
        view_intents.add(st.committed.len() as u64);
        // The buffer leaves the state while the candidates are tested
        // against it, and comes back empty with its capacity.
        let mut candidates = std::mem::take(&mut st.candidates);
        st.fill_candidates(&self.adt, txn.id(), inv, &mut candidates);
        let attempt = self.first_grantable(st, txn, inv, candidates.drain(..));
        st.candidates = candidates;
        attempt
    }

    /// Grant the first of `candidates` that no other active
    /// transaction's held operation conflicts with.
    fn first_grantable(
        &self,
        st: &mut ObjState<A>,
        txn: &TxnHandle,
        inv: &A::Inv,
        candidates: impl ExactSizeIterator<Item = (A::Res, A::Intent)>,
    ) -> Attempt<A> {
        if candidates.len() == 0 {
            return Attempt::Undefined;
        }
        let mut blockers: Vec<TxnId> = Vec::new();
        let mut first_pair: Option<(ClassId, ClassId)> = None;
        for (res, intent) in candidates {
            // Classify the requested op once per candidate; every held
            // op was classified at its own execution.
            let class = A::classify(self.locks.relation(), inv, &res);
            let mut holders: Vec<TxnId> = Vec::new();
            for (p, rec) in st.active.iter() {
                let p = *p;
                if p == txn.id() {
                    continue;
                }
                if let Some(q) = rec.ops.iter().find(|q| self.locks.conflicts_classified(q, &class))
                {
                    // Remember the first refusing pair: it labels the
                    // refusal/wait counters with the class pair that
                    // actually blocked the caller.
                    first_pair.get_or_insert((class.class, q.class));
                    holders.push(p);
                }
            }
            if holders.is_empty() {
                // Replay executions re-install history the lock manager
                // already admitted in a previous incarnation; counting
                // them again would make a restored store's grant totals
                // drift from the live run's.
                if !txn.is_replay() {
                    self.count_grant(st, class.class);
                }
                let clock = st.clock;
                let rec = st.active_rec(txn.id());
                rec.intent = intent;
                rec.bound = clock;
                rec.ops.push(class);
                return Attempt::Granted(res);
            }
            blockers.append(&mut holders);
        }
        blockers.sort();
        blockers.dedup();
        let pair = first_pair.expect("every candidate was refused by some held operation");
        Attempt::Conflict { holders: blockers, pair }
    }

    /// The horizon time (Definition 20) and folding of committed intents
    /// (the appendix's `forget()`).
    ///
    /// The horizon is bounded by three forces: the oldest active
    /// transaction's lower bound (the bound table), the per-object
    /// checkpoint pin ([`TxObject::pin_horizon`]), and the shared
    /// snapshot-read floor
    /// (`RuntimeOptions::horizon`): a live read pin at watermark `w`
    /// keeps every commit with `ts > w` unfolded at every object sharing
    /// the registry, so `committed_snapshot_at(w)` stays exact for the
    /// pin's lifetime. (`floor() = u64::MAX` when nothing is pinned, so
    /// the read path costs one relaxed atomic load here.)
    fn forget(&self, st: &mut ObjState<A>) {
        let Some(&(max_committed, _)) = st.committed.back() else { return };
        let bounds = st.active.iter().map(|(_, rec)| rec.bound).chain(st.pin);
        let horizon = bounds.fold(self.opts.horizon.floor().min(max_committed), u64::min);
        while st.committed.front().is_some_and(|(ts, _)| *ts < horizon) {
            let (ts, intent) = st.committed.pop_front().expect("the front was just seen");
            self.adt.apply(&mut st.version, &intent);
            st.folded = st.folded.max(ts);
            st.forgotten += 1;
        }
    }

    /// Number of committed-but-unforgotten transactions (Section-6
    /// experiments).
    pub fn retained_committed(&self) -> usize {
        self.inner.lock().committed.len()
    }

    /// Number of active transactions holding locks here.
    pub fn active_txns(&self) -> usize {
        self.inner.lock().active.len()
    }

    /// A snapshot of the compacted version (testing).
    pub fn version_snapshot(&self) -> A::Version {
        self.inner.lock().version.clone()
    }

    /// A snapshot of the state a brand-new read-only observer would see:
    /// version with all committed intents applied.
    pub fn committed_snapshot(&self) -> A::Version {
        self.committed_snapshot_at(u64::MAX)
    }

    /// The committed state **as of commit timestamp `watermark`**: the
    /// compacted version plus every committed-but-unforgotten intent with
    /// `ts ≤ watermark`. Exact only while commits above the watermark are
    /// prevented from folding into the version — either because the
    /// caller quiesced commits, or because it holds a
    /// [`TxObject::pin_horizon`] at the watermark (the fuzzy-checkpoint
    /// protocol).
    pub fn committed_snapshot_at(&self, watermark: u64) -> A::Version {
        self.inner.lock().image_at(&self.adt, watermark)
    }

    /// The committed state as of `watermark`, **checked**: refused with
    /// [`SnapshotStale`] when a commit above the watermark has already
    /// been folded into the base version (so the watermark image is
    /// unrecoverable here), instead of silently returning the folded
    /// state as [`TxObject::committed_snapshot_at`] would.
    ///
    /// This is the read-only transaction path's accessor. It takes the
    /// object's internal mutex — a short latch over in-memory state, the
    /// same one every accessor uses — but no *transactional* lock: no
    /// conflict test runs, no lock-table entry is written, no writer is
    /// ever blocked by it or blocks on it. The staleness check is sound
    /// under that latch: any in-progress fold completed before we
    /// acquired it, so `folded` reflects every fold that could race the
    /// caller's pin.
    pub fn snapshot_read(&self, watermark: u64) -> Result<A::Version, SnapshotStale> {
        let st = self.inner.lock();
        if st.folded > watermark {
            return Err(SnapshotStale { folded: st.folded, watermark });
        }
        Ok(st.image_at(&self.adt, watermark))
    }

    /// Forbid `forget()` from folding commits with `ts > watermark` into
    /// the compacted version until [`TxObject::unpin_horizon`] — the
    /// object-side half of a fuzzy checkpoint. To the horizon computation
    /// (Definition 20) the pin is just one more active lower bound.
    pub fn pin_horizon(&self, watermark: u64) {
        self.inner.lock().pin = Some(watermark);
    }

    /// Release the pin installed by [`TxObject::pin_horizon`] and fold
    /// whatever it was holding back.
    pub fn unpin_horizon(&self) {
        let mut st = self.inner.lock();
        st.pin = None;
        self.complete(st);
    }

    /// Install a recovered base version into this **fresh** object as
    /// the committed state at timestamp `ts` — the one
    /// checkpoint-restore path, for every type: the decoded image
    /// becomes the version directly; no operation is re-executed and no
    /// lock is taken. The object's clock advances to `ts`, so tail
    /// replay (at strictly greater timestamps) observes a well-formed
    /// history.
    ///
    /// Refused with [`NotFresh`] when the object already has history or
    /// active transactions — installing over existing state would
    /// silently drop or double effects. (An attach of a used object is
    /// the reachable case; the error flows back as a failed
    /// materialization, not a crash.)
    pub fn install_version(&self, version: A::Version, ts: u64) -> Result<(), NotFresh> {
        let mut st = self.inner.lock();
        if st.clock != 0 || !st.committed.is_empty() || !st.active.is_empty() {
            return Err(NotFresh);
        }
        st.version = version;
        st.clock = ts;
        // The installed image *is* a fold of everything at or below `ts`:
        // snapshot reads below the restore point must be refused, not
        // served the checkpoint image as if it were an older state.
        st.folded = ts;
        Ok(())
    }

    /// Contention statistics.
    pub fn stats(&self) -> ObjectStats {
        let st = self.inner.lock();
        ObjectStats {
            executed: st.executed,
            conflicts: self.tallies.conflicts.load(Ordering::Relaxed),
            waits: self.tallies.waits.load(Ordering::Relaxed),
            forgotten: st.forgotten,
        }
    }
}

impl<A: RuntimeAdt> TxParticipant for TxObject<A> {
    fn object_name(&self) -> &str {
        &self.name
    }

    fn prepare(&self, txn: &TxnHandle) -> bool {
        !txn.is_doomed() && txn.phase() == TxnPhase::Active
    }

    fn commit_at(&self, txn: TxnId, ts: u64) {
        let mut st = self.inner.lock();
        st.clock = st.clock.max(ts);
        if let Some(intent) = st.retire(txn) {
            st.push_committed(ts, intent);
        }
        self.complete(st);
    }

    fn abort_txn(&self, txn: TxnId) {
        let mut st = self.inner.lock();
        st.retire(txn);
        self.complete(st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_relations::relation::Relation;
    use std::time::Duration;

    /// A register (File) runtime type for in-crate tests: version = value,
    /// intent = Option<last written value>.
    struct Register;

    #[derive(Clone, Debug, PartialEq)]
    enum RegInv {
        Read,
        Write(i64),
    }

    impl RuntimeAdt for Register {
        type Version = i64;
        type Intent = Option<i64>;
        type Inv = RegInv;
        type Res = i64;

        fn initial(&self) -> i64 {
            0
        }

        fn candidates(
            &self,
            version: &i64,
            committed: &[&Option<i64>],
            own: &Option<i64>,
            inv: &RegInv,
            out: &mut Vec<(i64, Option<i64>)>,
        ) {
            out.push(match inv {
                RegInv::Write(v) => (0, Some(*v)),
                RegInv::Read => {
                    let mut cur = *version;
                    for v in committed.iter().copied().flatten() {
                        cur = *v;
                    }
                    if let Some(v) = own {
                        cur = *v;
                    }
                    (cur, *own)
                }
            });
        }

        fn apply(&self, version: &mut i64, intent: &Option<i64>) {
            if let Some(v) = intent {
                *version = *v;
            }
        }

        fn redo(&self, inv: &RegInv, _res: &i64) -> Option<Vec<u8>> {
            match inv {
                RegInv::Write(v) => Some(v.to_le_bytes().to_vec()),
                RegInv::Read => None,
            }
        }

        fn decode_redo(&self, bytes: &[u8]) -> Result<(RegInv, i64), RedoDecodeError> {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| RedoDecodeError::new("register redo payload is 8 bytes"))?;
            Ok((RegInv::Write(i64::from_le_bytes(arr)), 0))
        }

        fn type_name(&self) -> &'static str {
            "Register"
        }

        type Key = i64;
        const CLASSES: &'static [&'static str] = &["Read", "Write"];

        fn classify(_: &Relation, inv: &RegInv, res: &i64) -> Classified<i64> {
            match inv {
                RegInv::Read => Classified { class: ClassId(0), key: Some(*res) },
                RegInv::Write(v) => Classified { class: ClassId(1), key: Some(*v) },
            }
        }
    }

    /// Table-I conflicts: a read conflicts with a write of a different
    /// value (generalized Thomas Write Rule: writes never conflict).
    fn hybrid() -> SpecLock<Register> {
        use hcc_relations::tables::{paper_table_i, AdtConfig};
        SpecLock::new("hybrid", AdtConfig::file().relation(paper_table_i()))
    }

    fn obj() -> Arc<TxObject<Register>> {
        TxObject::new("reg", Register, hybrid(), RuntimeOptions::default())
    }

    fn h(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }

    #[test]
    fn blind_writes_run_concurrently_thomas_write_rule() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        o.execute(&t2, RegInv::Write(20)).unwrap(); // no conflict!
                                                    // t2 commits later => later value wins regardless of execution
                                                    // order.
        o.commit_at(t1.id(), 5);
        o.commit_at(t2.id(), 3);
        assert_eq!(o.committed_snapshot(), 10, "ts 5 overwrote ts 3");
    }

    #[test]
    fn read_blocks_on_concurrent_conflicting_write() {
        let o = TxObject::new(
            "reg",
            Register,
            hybrid(),
            RuntimeOptions::with_timeout(Some(Duration::from_millis(30))),
        );
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        // Reader sees committed state 0; conflicts with t1's write(10).
        assert_eq!(o.execute(&t2, RegInv::Read), Err(ExecError::Timeout));
    }

    #[test]
    fn read_does_not_conflict_with_same_valued_write() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(0)).unwrap(); // writes the initial value
        assert_eq!(o.execute(&t2, RegInv::Read).unwrap(), 0);
    }

    #[test]
    fn own_writes_are_visible() {
        let o = obj();
        let t1 = h(1);
        o.execute(&t1, RegInv::Write(42)).unwrap();
        assert_eq!(o.execute(&t1, RegInv::Read).unwrap(), 42);
    }

    #[test]
    fn abort_discards_intent_and_unblocks() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        let o2 = o.clone();
        let t2c = t2.clone();
        let j = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        o.abort_txn(t1.id());
        assert_eq!(j.join().unwrap(), 0, "reader sees pre-abort state");
        assert_eq!(o.active_txns(), 1);
    }

    #[test]
    fn blocked_writer_wakes_on_commit() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        assert_eq!(o.execute(&t1, RegInv::Read).unwrap(), 0);
        // A write of a different value conflicts with the read lock.
        let o2 = o.clone();
        let t2c = t2.clone();
        let j = std::thread::spawn(move || o2.execute(&t2c, RegInv::Write(7)).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        o.commit_at(t1.id(), 1);
        j.join().unwrap();
        o.commit_at(t2.id(), 2);
        assert_eq!(o.committed_snapshot(), 7);
    }

    #[test]
    fn doomed_transaction_errors_out() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        let o2 = o.clone();
        let t2c = t2.clone();
        let j = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read));
        std::thread::sleep(Duration::from_millis(10));
        t2.doom();
        assert_eq!(j.join().unwrap(), Err(ExecError::Doomed));
    }

    // ---- The wait protocol. Every test below blocks with
    // `timeout: None`, so no timer can rescue a lost wake-up; the
    // watchdog turns the hang that would follow into a failure.

    /// Run `f` on its own thread; fail if it has not finished in 30 s.
    fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (done, finished) = channel();
        let body = std::thread::spawn(move || done.send(f()));
        match finished.recv_timeout(Duration::from_secs(30)) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("a blocked execution was never woken"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(body.join().expect_err("the body dropped its sender"))
            }
        }
    }

    /// An observer that reports each block and then holds the waiter —
    /// between releasing the latch and parking — until told to go on.
    struct Pause {
        blocked: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
        resume: std::sync::Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl super::super::WaitObserver for Pause {
        fn on_block(&self, _: &Arc<TxnHandle>, _: &[TxnId]) {
            self.blocked.lock().unwrap().send(()).unwrap();
            self.resume.lock().unwrap().recv().unwrap();
        }
        fn on_unblock(&self, _: TxnId) {}
    }

    /// A register that never times out, its `Pause` channels: `blocked`
    /// yields once per refusal, `resume` releases the paused waiter.
    #[allow(clippy::type_complexity)]
    fn paused_obj(
    ) -> (Arc<TxObject<Register>>, std::sync::mpsc::Receiver<()>, std::sync::mpsc::Sender<()>) {
        let (blocked_tx, blocked) = std::sync::mpsc::channel();
        let (resume, resume_rx) = std::sync::mpsc::channel();
        let observer = Arc::new(Pause {
            blocked: std::sync::Mutex::new(blocked_tx),
            resume: std::sync::Mutex::new(resume_rx),
        });
        let opts = RuntimeOptions {
            block: super::super::BlockPolicy { timeout: None },
            ..RuntimeOptions::with_observer(observer)
        };
        (TxObject::new("reg", Register, hybrid(), opts), blocked, resume)
    }

    #[test]
    fn commit_between_refusal_and_park_is_not_lost() {
        within_watchdog(|| {
            let (o, blocked, resume) = paused_obj();
            let (t1, t2) = (h(1), h(2));
            o.execute(&t1, RegInv::Write(10)).unwrap();
            let (o2, t2c) = (o.clone(), t2.clone());
            let reader = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read));
            // The reader was refused and has released the latch, but is
            // held short of waiting. The holder's whole commit lands in
            // that window; there will never be another completion.
            blocked.recv().unwrap();
            o.commit_at(t1.id(), 1);
            resume.send(()).unwrap();
            assert_eq!(reader.join().unwrap(), Ok(10));
            assert_eq!(o.stats().waits, 1);
        });
    }

    #[test]
    fn doom_between_refusal_and_park_is_not_lost() {
        within_watchdog(|| {
            let (o, blocked, resume) = paused_obj();
            let (t1, t2) = (h(1), h(2));
            o.execute(&t1, RegInv::Write(10)).unwrap();
            let (o2, t2c) = (o.clone(), t2.clone());
            let reader = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read));
            blocked.recv().unwrap();
            t2.doom();
            resume.send(()).unwrap();
            assert_eq!(reader.join().unwrap(), Err(ExecError::Doomed));
            assert_eq!(Arc::strong_count(&t2), 1, "the object forgot its doomed waiter");
        });
    }

    #[test]
    fn doom_wakes_a_parked_victim() {
        within_watchdog(|| {
            let (o, blocked, resume) = paused_obj();
            let (t1, t2) = (h(1), h(2));
            o.execute(&t1, RegInv::Write(10)).unwrap();
            let (o2, t2c) = (o.clone(), t2.clone());
            let reader = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read));
            blocked.recv().unwrap();
            resume.send(()).unwrap();
            // Whether the reader is still spinning or already asleep when
            // this lands, nothing but the doom can end its wait.
            t2.doom();
            assert_eq!(reader.join().unwrap(), Err(ExecError::Doomed));
        });
    }

    /// A no-wait handle refused by a held write gives up at once: no
    /// waiter is recorded, and the observer — which would hold it here
    /// for good, since nothing is sent on `resume` — never hears of it.
    /// The refusal is still counted, and an ordinary handle on the same
    /// object still blocks and is woken.
    #[test]
    fn no_wait_handle_is_refused_without_waiting() {
        within_watchdog(|| {
            let (o, blocked, resume) = paused_obj();
            let (t1, quick, t3) = (h(1), TxnHandle::no_wait(TxnId(2)), h(3));
            o.execute(&t1, RegInv::Write(10)).unwrap();
            assert_eq!(o.execute(&quick, RegInv::Read), Err(ExecError::WouldBlock));
            assert!(o.inner.lock().waiters.is_empty(), "no registration left behind");
            assert_eq!(Arc::strong_count(&quick), 1, "the object kept no reference to it");
            assert!(blocked.try_recv().is_err(), "the observer never heard of it");
            let s = o.stats();
            assert_eq!((s.conflicts, s.waits), (1, 0), "refused once, waited never");
            assert_eq!(o.active_txns(), 1, "the refused read holds nothing here");

            let (o2, t3c) = (o.clone(), t3.clone());
            let reader = std::thread::spawn(move || o2.execute(&t3c, RegInv::Read));
            blocked.recv().unwrap();
            resume.send(()).unwrap();
            o.commit_at(t1.id(), 1);
            assert_eq!(reader.join().unwrap(), Ok(10));
            assert_eq!(o.stats().waits, 1);
        });
    }

    #[test]
    fn unpin_horizon_wakes_waiters() {
        within_watchdog(|| {
            let (o, blocked, resume) = paused_obj();
            let (t1, t2) = (h(1), h(2));
            o.execute(&t1, RegInv::Write(10)).unwrap();
            o.pin_horizon(0);
            let (o2, t2c) = (o.clone(), t2.clone());
            let reader = std::thread::spawn(move || o2.execute(&t2c, RegInv::Read));
            blocked.recv().unwrap();
            resume.send(()).unwrap();
            // The unpin wakes the reader; the write is still held, so it
            // is refused a second time — which is how we see it woke.
            o.unpin_horizon();
            blocked.recv().unwrap();
            resume.send(()).unwrap();
            o.commit_at(t1.id(), 1);
            assert_eq!(reader.join().unwrap(), Ok(10));
            assert_eq!(o.stats().waits, 1, "one blocked execution, however often refused");
        });
    }

    #[test]
    fn timeout_is_one_deadline_no_earlier_than_asked() {
        let o = TxObject::new(
            "reg",
            Register,
            hybrid(),
            RuntimeOptions::with_timeout(Some(Duration::from_millis(50))),
        );
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        let started = Instant::now();
        assert_eq!(o.execute(&t2, RegInv::Read), Err(ExecError::Timeout));
        assert!(started.elapsed() >= Duration::from_millis(50), "{:?}", started.elapsed());
        assert_eq!(Arc::strong_count(&t2), 1, "the object forgot its timed-out waiter");
    }

    /// Two threads, 50 000 single-operation transactions each, every one
    /// in conflict with whatever the other thread holds: each wait must
    /// be ended by the other thread's commit, whenever it lands.
    #[test]
    fn conflicting_single_op_transactions_never_lose_a_wake_up() {
        const PER_THREAD: u64 = 50_000;
        within_watchdog(|| {
            let o = TxObject::new("reg", Register, hybrid(), RuntimeOptions::with_timeout(None));
            let ts = Arc::new(AtomicU64::new(0));
            std::thread::scope(|s| {
                for worker in 0..2u64 {
                    let (o, ts) = (o.clone(), ts.clone());
                    s.spawn(move || {
                        for i in 0..PER_THREAD {
                            let t = h(1 + worker * PER_THREAD + i);
                            // A write of a fresh value conflicts with a
                            // held read, a read with a held write.
                            let inv = if worker == 0 {
                                RegInv::Write(1 + i as i64)
                            } else {
                                RegInv::Read
                            };
                            o.execute(&t, inv).unwrap();
                            o.commit_at(t.id(), 1 + ts.fetch_add(1, Ordering::Relaxed));
                        }
                    });
                }
            });
            assert_eq!(o.stats().executed, 2 * PER_THREAD);
            assert_eq!(o.active_txns(), 0);
        });
    }

    #[test]
    fn forget_folds_committed_intents() {
        let o = obj();
        for i in 1..=5u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        // No active txns: horizon = max committed (5); ts 1..4 folded.
        assert_eq!(o.retained_committed(), 1);
        assert_eq!(o.stats().forgotten, 4);
        assert_eq!(o.committed_snapshot(), 5);
    }

    #[test]
    fn active_bound_pins_the_horizon() {
        let o = obj();
        let t1 = h(1);
        o.execute(&t1, RegInv::Write(1)).unwrap();
        o.commit_at(t1.id(), 1);
        // t2 executes now: bound = 1.
        let t2 = h(2);
        o.execute(&t2, RegInv::Write(2)).unwrap();
        for i in 3..=6u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        // Horizon = min(bound(t2)=1, max=6) = 1: nothing foldable except
        // timestamps < 1.
        assert_eq!(o.retained_committed(), 5);
        o.commit_at(t2.id(), 7);
        // Now everything below 7 folds.
        assert_eq!(o.retained_committed(), 1);
    }

    #[test]
    fn participant_interface() {
        let o = obj();
        let t1 = h(1);
        assert!(o.prepare(&t1));
        t1.doom();
        assert!(!o.prepare(&t1));
        let t2 = h(2);
        t2.set_phase(TxnPhase::Aborted);
        assert!(!o.prepare(&t2));
        assert_eq!(o.object_name(), "reg");
    }

    #[test]
    fn stats_count_conflicts() {
        let o = TxObject::new(
            "reg",
            Register,
            hybrid(),
            RuntimeOptions::with_timeout(Some(Duration::from_millis(20))),
        );
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        let _ = o.execute(&t2, RegInv::Read);
        let s = o.stats();
        assert_eq!(s.executed, 1);
        assert!(s.conflicts >= 1);
        assert!(s.waits >= 1);
    }

    #[test]
    fn try_execute_reports_holders() {
        let o = obj();
        let (t1, t2) = (h(1), h(2));
        o.execute(&t1, RegInv::Write(10)).unwrap();
        match o.try_execute(&t2, &RegInv::Read).unwrap() {
            TryExecOutcome::Conflict(holders) => assert_eq!(holders, vec![TxnId(1)]),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    /// The fuzzy-checkpoint contract: with a horizon pin at `w`, commits
    /// above `w` keep flowing but can neither fold into the version nor
    /// leak into `committed_snapshot_at(w)`.
    #[test]
    fn horizon_pin_keeps_snapshot_at_watermark_exact() {
        let o = obj();
        for i in 1..=3u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        o.pin_horizon(3);
        // Commits above the watermark land while the pin is held.
        for i in 4..=6u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64 * 10)).unwrap();
            o.commit_at(t.id(), i);
        }
        assert_eq!(o.committed_snapshot_at(3), 3, "watermark image excludes later commits");
        assert_eq!(o.committed_snapshot(), 60, "live frontier sees everything");
        assert!(
            o.retained_committed() >= 3,
            "pinned commits stay unfolded: {}",
            o.retained_committed()
        );
        o.unpin_horizon();
        // The pin released: folding catches up.
        assert_eq!(o.retained_committed(), 1);
        assert_eq!(o.committed_snapshot(), 60);
    }

    /// Tickets are reserved under the object lock in execution order even
    /// though publishing happens outside it; a ticket the sink cannot
    /// publish dooms exactly its own transaction.
    #[test]
    fn redo_tickets_are_reserved_in_execution_order() {
        use super::super::options::{RedoSink, RedoTicket};
        use std::sync::Mutex as StdMutex;

        /// Publishes every ticket except `lost`.
        #[derive(Default)]
        struct ProbeSink {
            next: AtomicU64,
            lost: u64,
            published: StdMutex<Vec<(u64, TxnId)>>,
        }
        impl RedoSink for ProbeSink {
            fn reserve(&self, _txn: TxnId, _object: &str) -> RedoTicket {
                RedoTicket(self.next.fetch_add(1, Ordering::Relaxed) + 1)
            }
            fn publish(&self, ticket: RedoTicket, txn: TxnId, _object: &str, _op: &[u8]) -> bool {
                if ticket.0 == self.lost {
                    return false;
                }
                self.published.lock().unwrap().push((ticket.0, txn));
                true
            }
        }

        let sink = Arc::new(ProbeSink { lost: 6, ..ProbeSink::default() });
        let o = TxObject::new(
            "reg",
            Register,
            hybrid(),
            RuntimeOptions::default().with_redo(sink.clone()),
        );
        for i in 1..=5u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        let published = sink.published.lock().unwrap();
        let tickets: Vec<u64> = published.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, vec![1, 2, 3, 4, 5], "execution order == ticket order");
        // Replay handles bypass the sink entirely.
        drop(published);
        let replay = TxnHandle::replay(TxnId(99));
        o.execute(&replay, RegInv::Write(7)).unwrap();
        assert_eq!(sink.published.lock().unwrap().len(), 5, "replay did not log");
        o.commit_at(replay.id(), 6);

        // Ticket 6 is lost: the write it recorded still ran, but its
        // transaction is doomed — its next operation is refused and it
        // votes no. The next transaction is untouched.
        let (lost, next) = (h(6), h(7));
        o.execute(&lost, RegInv::Write(60)).unwrap();
        assert!(lost.is_doomed());
        assert_eq!(o.execute(&lost, RegInv::Write(61)), Err(ExecError::Doomed));
        assert!(!o.prepare(&lost));
        o.abort_txn(lost.id());
        o.execute(&next, RegInv::Write(70)).unwrap();
        assert!(!next.is_doomed() && o.prepare(&next));
        let tickets: Vec<u64> = sink.published.lock().unwrap().iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, vec![1, 2, 3, 4, 5, 7]);
    }

    /// The shared-registry pin is the read path's fuzzy-checkpoint
    /// analogue: while a `PinGuard` at `w` lives, commits above `w` stay
    /// unfolded at every object carrying the registry, `snapshot_read(w)`
    /// stays exact, and dropping the guard lets the next commit's
    /// `forget` fold everything — after which `snapshot_read(w)` refuses
    /// with a typed [`SnapshotStale`] instead of serving the folded
    /// state.
    #[test]
    fn shared_pin_bounds_folding_until_guard_drops() {
        let pins = Arc::new(super::super::HorizonPins::new());
        let o = TxObject::new(
            "reg",
            Register,
            hybrid(),
            RuntimeOptions::default().with_horizon(pins.clone()),
        );
        for i in 1..=3u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64)).unwrap();
            o.commit_at(t.id(), i);
        }
        let guard = pins.pin(3);
        for i in 4..=6u64 {
            let t = h(i);
            o.execute(&t, RegInv::Write(i as i64 * 10)).unwrap();
            o.commit_at(t.id(), i);
        }
        assert_eq!(o.snapshot_read(3), Ok(3), "pinned watermark image is exact");
        assert_eq!(o.committed_snapshot(), 60, "live frontier sees everything");
        assert!(o.retained_committed() >= 3, "pinned commits stay unfolded");
        drop(guard);
        // Folding is lazy: the next completion at the object catches up.
        let t = h(7);
        o.execute(&t, RegInv::Write(70)).unwrap();
        o.commit_at(t.id(), 7);
        assert_eq!(o.retained_committed(), 1);
        let err = o.snapshot_read(3).unwrap_err();
        assert!(err.folded > 3, "staleness names the fold watermark: {err:?}");
        assert_eq!(err.watermark, 3);
    }

    /// A restored checkpoint image is a fold of everything at or below
    /// the restore timestamp: snapshot reads below it are refused.
    #[test]
    fn snapshot_read_refuses_watermarks_below_an_installed_version() {
        let o = obj();
        o.install_version(42, 10).unwrap();
        assert_eq!(o.snapshot_read(9), Err(SnapshotStale { folded: 10, watermark: 9 }));
        assert_eq!(o.snapshot_read(10), Ok(42));
    }

    /// The latch and the tallies each sit on 128-byte lines of their own:
    /// none of the read-mostly header's bytes, and neither of the `Arc`'s
    /// counts, falls on one of their lines.
    #[test]
    fn layout_keeps_the_latch_on_its_own_lines() {
        const LINE: usize = 128;
        fn lines<T: ?Sized>(field: &T) -> Option<(usize, usize)> {
            let (at, len) = (field as *const T as *const u8 as usize, std::mem::size_of_val(field));
            // A zero-sized field has no bytes to share a line with.
            (len > 0).then(|| (at / LINE, (at + len - 1) / LINE))
        }
        let overlap = |a: (usize, usize), b: (usize, usize)| a.0 <= b.1 && b.0 <= a.1;

        let o = obj();
        let latch: &Mutex<ObjState<Register>> = &o.inner;
        let tallies: &Tallies = &o.tallies;
        for (what, at) in
            [("latch", latch as *const _ as usize), ("tallies", tallies as *const _ as usize)]
        {
            assert_eq!(at % LINE, 0, "the {what} starts a line");
        }
        // `Arc` keeps its strong and weak counts, two words, right before
        // the value at the value's alignment.
        let counts_at = Arc::as_ptr(&o) as usize
            - (2 * std::mem::size_of::<usize>())
                .next_multiple_of(std::mem::align_of::<TxObject<Register>>());
        let counts = (counts_at / LINE, (counts_at + 2 * std::mem::size_of::<usize>() - 1) / LINE);
        let header = [
            ("name", lines(&o.name)),
            ("adt", lines(&o.adt)),
            ("locks", lines(&o.locks)),
            ("opts", lines(&o.opts)),
            ("arc counts", Some(counts)),
        ];
        let latch_lines = lines(latch).expect("the latch has bytes");
        let tally_lines = lines(tallies).expect("the tallies have bytes");
        assert!(!overlap(latch_lines, tally_lines), "the latch and the tallies share a line");
        for (what, field) in header {
            let Some(field) = field else { continue };
            assert!(!overlap(latch_lines, field), "the latch shares a line with {what}");
            assert!(!overlap(tally_lines, field), "the tallies share a line with {what}");
        }
    }

    /// A view lends the type every committed intent, in timestamp
    /// order, whether they fit the stack buffer or spill past it, and
    /// `lock.view.intents` counts them once per attempt.
    #[test]
    fn views_hold_every_committed_intent_past_the_inline_buffer() {
        let o = obj();
        o.pin_horizon(0);
        let mut counted = 0;
        for k in 1..=VIEW_INLINE as u64 + 3 {
            let writer = h(2 * k);
            counted += o.retained_committed() as u64;
            o.execute(&writer, RegInv::Write(k as i64)).unwrap();
            o.commit_at(writer.id(), k);
            let reader = h(2 * k + 1);
            counted += o.retained_committed() as u64;
            assert_eq!(o.execute(&reader, RegInv::Read), Ok(k as i64), "{k} committed intents");
            o.abort_txn(reader.id());
        }
        assert_eq!(o.retained_committed(), VIEW_INLINE + 3, "the pin folded nothing");
        assert_eq!(o.opts.metrics.snapshot().counter("lock.view.intents"), counted);
    }

    /// Two commits reach the object in reverse timestamp order, as two
    /// sites' phase-2 messages may: the ring files the later arrival in
    /// front, every watermark's image is exact, and `forget` folds the
    /// earlier timestamp first.
    #[test]
    fn commits_arriving_out_of_timestamp_order_are_filed_in_it() {
        let o = obj();
        o.pin_horizon(0);
        let (early, late) = (h(1), h(2));
        o.execute(&early, RegInv::Write(10)).unwrap();
        o.execute(&late, RegInv::Write(20)).unwrap();
        o.commit_at(late.id(), 5);
        o.commit_at(early.id(), 3);
        for w in 0..=7 {
            let image = match w {
                0..=2 => 0,
                3..=4 => 10,
                _ => 20,
            };
            assert_eq!(o.committed_snapshot_at(w), image, "watermark {w}");
            assert_eq!(o.snapshot_read(w), Ok(image), "watermark {w}");
        }
        // The horizon is the latest commit, 5: only ts 3 folds.
        o.unpin_horizon();
        assert_eq!((o.retained_committed(), o.version_snapshot()), (1, 10));
        assert_eq!(o.snapshot_read(2), Err(SnapshotStale { folded: 3, watermark: 2 }));
        assert_eq!(o.snapshot_read(4), Ok(10));
        let next = h(3);
        o.execute(&next, RegInv::Write(30)).unwrap();
        o.commit_at(next.id(), 7);
        assert_eq!((o.retained_committed(), o.version_snapshot()), (1, 20), "ts 5 folded last");
        assert_eq!(o.stats().forgotten, 2);
    }

    /// The committed ring against a timestamp-keyed reference model.
    mod ring_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// What the object should hold: the folded version, the
        /// unforgotten commits by timestamp, the fold watermark.
        #[derive(Default)]
        struct Model {
            version: i64,
            committed: BTreeMap<u64, i64>,
            folded: u64,
        }

        impl Model {
            fn image_at(&self, w: u64) -> i64 {
                self.committed.range(..=w).next_back().map_or(self.version, |(_, v)| *v)
            }

            /// Definition 20's horizon over the model, then the fold.
            fn forget(&mut self, bounds: impl Iterator<Item = u64>, pin: Option<u64>) {
                let Some(&max) = self.committed.keys().next_back() else { return };
                let horizon = bounds.chain(pin).fold(max, u64::min);
                while let Some(oldest) = self.committed.first_entry() {
                    if *oldest.key() >= horizon {
                        break;
                    }
                    let (ts, v) = oldest.remove_entry();
                    self.version = v;
                    self.folded = self.folded.max(ts);
                }
            }
        }

        fn agree(o: &TxObject<Register>, m: &Model, top: u64) {
            assert_eq!(o.retained_committed(), m.committed.len());
            assert_eq!(o.version_snapshot(), m.version);
            for w in 0..=top {
                assert_eq!(o.committed_snapshot_at(w), m.image_at(w), "committed_snapshot_at({w})");
                let read = if w < m.folded {
                    Err(SnapshotStale { folded: m.folded, watermark: w })
                } else {
                    Ok(m.image_at(w))
                };
                assert_eq!(o.snapshot_read(w), read, "snapshot_read({w})");
            }
        }

        proptest! {
            /// Writers commit one per step in the plan's order. Writer
            /// `k` executes `start % (k + 1)` steps in (so earlier
            /// arrivals can carry later timestamps than it) and draws its
            /// timestamp above the clock it saw there, `gap` further on,
            /// as the manager does. An optional checkpoint pin holds the
            /// horizon throughout and is released at the end.
            #[test]
            fn the_ring_agrees_with_a_timestamp_keyed_model(
                plan in prop::collection::vec((0usize..8, 0u64..12), 1..9),
                pin in (0u64..3, 0u64..60),
            ) {
                let pin = (pin.0 > 0).then_some(pin.1);
                let o = obj();
                if let Some(p) = pin {
                    o.pin_horizon(p);
                }
                let writers: Vec<_> = (0..plan.len() as u64).map(|k| h(k + 1)).collect();
                let mut m = Model::default();
                let (mut clock, mut top) = (0u64, 0u64);
                let mut ts = vec![0u64; plan.len()];
                let mut active: BTreeMap<usize, u64> = BTreeMap::new();
                for step in 0..plan.len() {
                    for (k, &(start, gap)) in plan.iter().enumerate().skip(step) {
                        if start % (k + 1) != step {
                            continue;
                        }
                        o.execute(&writers[k], RegInv::Write(100 + k as i64)).unwrap();
                        let mut t = clock + 1 + gap;
                        while ts.contains(&t) {
                            t += 1;
                        }
                        ts[k] = t;
                        top = top.max(t + 1);
                        active.insert(k, clock);
                    }
                    // Writer `step` executed at this step or before it.
                    active.remove(&step);
                    o.commit_at(writers[step].id(), ts[step]);
                    clock = clock.max(ts[step]);
                    m.committed.insert(ts[step], 100 + step as i64);
                    m.forget(active.values().copied(), pin);
                    agree(&o, &m, top);
                }
                if pin.is_some() {
                    o.unpin_horizon();
                    m.forget(std::iter::empty(), None);
                    agree(&o, &m, top);
                }
            }
        }
    }

    #[test]
    fn registration_is_idempotent() {
        let o = obj();
        let t1 = h(1);
        o.execute(&t1, RegInv::Write(1)).unwrap();
        o.execute(&t1, RegInv::Write(2)).unwrap();
        assert_eq!(t1.participants().len(), 1);
    }
}
