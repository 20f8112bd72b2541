//! The [`Db`] session facade: one front door to the transaction manager
//! and the durable store, and the workspace's only recovery front end —
//! nothing else restores a checkpoint image or replays a recovered
//! transaction into a live object.
//!
//! `Db::open` constructs the store, scans the log, and readies recovery
//! in one call; [`Db::object`] (the type's canonical relation) and
//! [`Db::object_with`] (a stated one) are the one way in: the `Db`
//! builds every object it holds over its own options, registers it and
//! installs its durable history; [`Db::transact`] scopes
//! transactions to a closure and retries transient failures under a
//! bounded-backoff [`RetryPolicy`]. The low-level `TxnManager` stays
//! reachable through [`Db::manager`] as the documented escape hatch.

use crate::error::HccError;
use crate::handle::DbObject;
use crate::read::ReadInstruments;
use crate::tx::{RetryPolicy, Tx};
use hcc_adts::{Object, ObjectAdt};
use hcc_core::runtime::{ExecError, RuntimeOptions, SpecLock, TxnHandle};
use hcc_obs::{Counter, FlightRecorder, Histogram};
use hcc_spec::Timestamp;
use hcc_storage::{
    durability_env_override, Checkpoint, CommittedTxn, CompactionPolicy, Durability, DurableObject,
    DurableStore, OpenImage, Recovered, StorageOptions,
};
use hcc_txn::manager::CommitError;
use hcc_txn::registry::{self, Decisions, RecoveryReport};
use hcc_txn::TxnManager;
use parking_lot::RwLock;
use std::any::Any;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Configures and opens a [`Db`]. Obtained from [`Db::builder`].
#[derive(Clone, Debug, Default)]
pub struct DbBuilder {
    storage: StorageOptions,
    lock_timeout: Option<Duration>,
    retry: RetryPolicy,
    decisions: Decisions,
}

impl DbBuilder {
    /// Durability of acknowledged commits (default [`Durability::Fsync`]).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.storage.durability = durability;
        self
    }

    /// Segment rotation threshold in bytes.
    pub fn segment_max_bytes(mut self, bytes: u64) -> Self {
        self.storage.segment_max_bytes = bytes;
        self
    }

    /// When to checkpoint and prune dead segments.
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
        self.storage.policy = policy;
        self
    }

    /// Give up on a blocked lock request after `timeout` (the default
    /// keeps the runtime's own policy; the deadlock detector dooms
    /// victims regardless).
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = Some(timeout);
        self
    }

    /// The transient-failure retry policy for [`Db::transact`].
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Coordinator commit decisions (`txn → ts`) for recovering a 2PC
    /// *participant* site: in-doubt transactions with a decision replay
    /// as committed; undecided ones stay dropped (no decision means
    /// abort).
    pub fn decisions(mut self, decisions: Decisions) -> Self {
        self.decisions = decisions;
        self
    }

    /// Apply the CI environment override (`HCC_DURABILITY`) on top of
    /// the configured options.
    pub fn env_overrides(mut self) -> Self {
        if let Some(durability) = durability_env_override() {
            self.storage.durability = durability;
        }
        self
    }

    /// Open (creating if absent) the durable database rooted at `dir`:
    /// the store opened, the manager built over it, and the image the
    /// store's one pass read assembled and sliced by name — handles from
    /// [`Db::object`] come back holding their recovered state.
    pub fn open(self, dir: impl AsRef<Path>) -> Result<Db, HccError> {
        let (store, image) = DurableStore::open(dir, self.storage)?;
        let mgr = TxnManager::with_storage(store.clone());
        let (recovered, resolved) = read_log_image(image, &store, &self.decisions)
            .inspect_err(|e| dump_refused_recovery(mgr.flight_recorder(), e))?;

        // Slice the image by object name once, so each handle
        // materializes from (and frees) exactly its own share. The
        // resolve *moved* every payload into its name's slice; nothing
        // is copied.
        let checkpoint_ts = recovered.checkpoint.as_ref().map_or(0, |c| c.last_ts);
        let report = RecoveryReport {
            checkpoint_ts,
            replayed: resolved.len(),
            torn_tail: recovered.torn_tail,
        };
        let mut shares: HashMap<String, Share> = HashMap::new();
        if let Some(ckpt) = recovered.checkpoint {
            for (name, image) in ckpt.objects {
                shares.entry(name).or_default().image = Some(image);
            }
        }
        for c in resolved {
            // The resolved list is in timestamp order, so each per-name
            // slice stays in replay order.
            let (txn, ts) = (c.txn, c.ts);
            for (name, ops) in c.by_object() {
                shares.entry(name).or_default().tail.push((txn, ts, ops));
            }
        }
        if shares.is_empty() {
            store.mark_state_absorbed();
        }
        let objects = Objects {
            unopened: shares.len(),
            slots: shares.into_iter().map(|(name, share)| (name, Slot::Logged(share))).collect(),
        };
        Ok(Db::assemble(mgr, &self, objects, report))
    }

    /// A purely in-memory database (no durable store, as in the paper's
    /// model): same typed handles and scoped transactions, nothing
    /// written to disk.
    pub fn in_memory(self) -> Db {
        Db::assemble(TxnManager::new(), &self, Objects::default(), RecoveryReport::default())
    }
}

/// What the log holds, for [`DbBuilder::open`] to slice: the image the
/// store's open already decoded (one scan serves clock/id seeding and
/// this materialization), with decided in-doubt transactions (2PC
/// participant recovery) merged into the committed tail by the
/// `resolve_committed` rule, including its DecisionBelowCheckpoint
/// refusal.
fn read_log_image(
    image: OpenImage,
    store: &DurableStore,
    decisions: &Decisions,
) -> Result<(Recovered, Vec<CommittedTxn>), HccError> {
    let mut recovered = image.recover(store)?;
    let resolved = registry::resolve_committed(&mut recovered, decisions)?;
    Ok((recovered, resolved))
}

/// Recovery refused the log — at open, or as a handle materialized: dump
/// the flight recorder, if one is running (`HCC_TRACE`), so the refusal
/// is readable where it actually happened.
fn dump_refused_recovery(trace: Option<&Arc<FlightRecorder>>, err: &HccError) {
    if let Some(tr) = trace {
        tr.record(0, "", "recovery.fail", err.to_string());
        tr.dump_to_stderr(&format!("recovery refused the log: {err}"));
    }
}

/// One object's slice of one recovered transaction: `(txn, ts, op
/// payloads in execution order)`.
type TailTxn = (u64, u64, Vec<Vec<u8>>);

/// Aborts one `transact` attempt's transaction when dropped — the
/// scope's abort path, covering both `Err` returns and panics
/// unwinding out of the closure (a leaked active transaction would
/// hold its locks at every touched object forever). A no-op once the
/// transaction committed or was already aborted.
struct AbortOnDrop<'a> {
    mgr: &'a Arc<TxnManager>,
    txn: Arc<TxnHandle>,
}

impl Drop for AbortOnDrop<'_> {
    fn drop(&mut self) {
        self.mgr.abort(self.txn.clone());
    }
}

/// Every name this `Db` knows, logged or open — the one table behind
/// [`Db::object`], [`Db::object_with`], [`Db::checkpoint`] and
/// [`Db::unopened_objects`].
#[derive(Default)]
struct Objects {
    slots: HashMap<String, Slot>,
    /// How many slots are still [`Slot::Logged`]. The store refuses
    /// checkpoints until the last one opens: a checkpoint taken earlier
    /// would claim coverage of history its snapshots lack, then prune
    /// it.
    unopened: usize,
}

/// One name's place in the table.
enum Slot {
    /// The log holds state under the name and no live object has
    /// absorbed it yet.
    Logged(Share),
    /// The live object: the typed handle callers get back, and the same
    /// object as the checkpoint walks it.
    Open { typed: Arc<dyn Any + Send + Sync>, durable: Arc<dyn DurableObject> },
}

/// One name's share of the recovered image, consumed (and freed) when
/// the name opens.
#[derive(Default)]
struct Share {
    /// The name's checkpoint image.
    image: Option<Vec<u8>>,
    /// The name's slice of the committed tail, in replay order.
    tail: Vec<TailTxn>,
}

impl Share {
    /// Install this share into `obj`: checkpoint image first (taken at
    /// `checkpoint_ts`), then the tail slice in replay order, each
    /// replayed operation pinned to its logged response.
    fn install(&self, obj: &dyn DurableObject, checkpoint_ts: u64) -> Result<(), HccError> {
        if let Some(image) = &self.image {
            obj.restore(image, checkpoint_ts)?;
        }
        for (txn, ts, ops) in &self.tail {
            registry::replay_object_ops(obj, *txn, *ts, ops)?;
        }
        Ok(())
    }
}

/// An open slot's handle as `T`, or [`HccError::TypeMismatch`].
fn downcast<T: DbObject>(
    name: &str,
    typed: &Arc<dyn Any + Send + Sync>,
) -> Result<Arc<T>, HccError> {
    typed.clone().downcast::<T>().map_err(|_| HccError::TypeMismatch {
        object: name.to_string(),
        requested: std::any::type_name::<T>(),
    })
}

/// The session facade: typed durable handles and scoped, retrying
/// transactions over one transaction manager.
///
/// ```
/// use hcc_db::Db;
/// use hcc_adts::account::AccountObject;
///
/// let db = Db::in_memory();
/// let acct = db.object::<AccountObject>("checking").unwrap();
/// db.transact(|tx| {
///     acct.credit(tx, 100.into())?;
///     Ok(())
/// })
/// .unwrap();
/// assert_eq!(acct.committed_balance(), 100.into());
/// ```
pub struct Db {
    mgr: Arc<TxnManager>,
    retry: RetryPolicy,
    lock_timeout: Option<Duration>,
    /// Every logged or open name. Looking up an open name takes the read
    /// side; opening one takes the write side; a checkpoint holds the
    /// read side throughout, so no object opens under its feet.
    objects: RwLock<Objects>,
    report: RecoveryReport,
    /// `db.transact.attempts` — attempts each `transact` call took (1 =
    /// first try committed). Resolved once at construction.
    transact_attempts: Arc<Histogram>,
    /// `db.transact.backoff_nanos` — total backoff slept between retries.
    transact_backoff_nanos: Arc<Counter>,
    /// `txn.read_only.*` — the read-path counters and latency histogram
    /// (resolved once; `begin_read` never touches the registry's name
    /// map).
    read_instruments: ReadInstruments,
}

impl Db {
    /// The one constructor behind both builder paths.
    fn assemble(
        mgr: Arc<TxnManager>,
        opts: &DbBuilder,
        objects: Objects,
        report: RecoveryReport,
    ) -> Db {
        Db {
            transact_attempts: mgr.metrics().histogram("db.transact.attempts"),
            transact_backoff_nanos: mgr.metrics().counter("db.transact.backoff_nanos"),
            read_instruments: ReadInstruments::resolve(mgr.metrics()),
            mgr,
            retry: opts.retry,
            lock_timeout: opts.lock_timeout,
            objects: RwLock::new(objects),
            report,
        }
    }

    /// Configure a database.
    pub fn builder() -> DbBuilder {
        DbBuilder::default()
    }

    /// [`DbBuilder::open`] with default options: fsync durability,
    /// default compaction, default retry policy.
    pub fn open(dir: impl AsRef<Path>) -> Result<Db, HccError> {
        Db::builder().open(dir)
    }

    /// [`DbBuilder::in_memory`] with default options.
    pub fn in_memory() -> Db {
        Db::builder().in_memory()
    }

    /// The typed handle named `name`.
    ///
    /// First call constructs the object (hybrid conflict relation, the
    /// database's runtime options), installs whatever state the log
    /// holds under that name (checkpoint snapshot + committed tail, in
    /// timestamp order), and enters it in this database's object table,
    /// which checkpoints walk; it self-logs through the redo sink. Later
    /// calls return the *same* instance — never a blank twin — or
    /// [`HccError::TypeMismatch`] if asked for it as a different type.
    /// Looking up an already-open name takes only the table's read side.
    pub fn object<T: DbObject>(&self, name: &str) -> Result<Arc<T>, HccError> {
        self.lookup(name).unwrap_or_else(|| self.open_slot(name, T::fresh))
    }

    /// The object named `name` under the stated conflict relation
    /// `locks` — a Section-7 rival, a stated table — instead of the
    /// type's canonical one. The `Db` builds it over its own runtime
    /// options, exactly as [`Db::object`] does, so it self-logs through
    /// the store and shares the manager's horizon registry with every
    /// reader and checkpoint.
    ///
    /// A name already open as `Object<A>` under a relation of the same
    /// name ([`SpecLock::name`]) comes back as that same instance; one
    /// open as another type is refused with [`HccError::TypeMismatch`],
    /// and one open under another relation with
    /// [`HccError::DuplicateObject`].
    pub fn object_with<A: ObjectAdt>(
        &self,
        name: &str,
        locks: SpecLock<A>,
    ) -> Result<Arc<Object<A>>, HccError> {
        let scheme = locks.name();
        let obj = self.lookup(name).unwrap_or_else(|| {
            self.open_slot(name, |name, opts| Arc::new(Object::with(name, locks, opts)))
        })?;
        if obj.inner().scheme() != scheme {
            return Err(HccError::DuplicateObject { object: name.to_string() });
        }
        Ok(obj)
    }

    /// An open name's handle as `T`, under the table's read side alone;
    /// `None` while the name is not open.
    fn lookup<T: DbObject>(&self, name: &str) -> Option<Result<Arc<T>, HccError>> {
        match self.objects.read().slots.get(name)? {
            Slot::Open { typed, .. } => Some(downcast(name, typed)),
            Slot::Logged(_) => None,
        }
    }

    /// Open `name`: build the object over this database's options
    /// *before* taking the table — a first open derives the type's
    /// relation or runs a defined type's `conflict_spec`, which must not
    /// stall every lookup of every open name — then, in one write hold,
    /// install the name's logged share, flip the slot to open, and — if
    /// that was the last logged slot — attest absorption to the store, so
    /// checkpointing becomes legal only once every logged name is in the
    /// table as an open object. A slot another thread opened meanwhile
    /// wins, and the spare is dropped.
    ///
    /// The share is consumed only on success: a failed materialization
    /// (wrong type asked for the name, replay divergence) discards the
    /// partially-mutated instance and leaves the share logged, so a later
    /// open retries the recovery into a fresh one instead of minting a
    /// blank twin.
    fn open_slot<T: DbObject>(
        &self,
        name: &str,
        build: impl FnOnce(&str, RuntimeOptions) -> Arc<T>,
    ) -> Result<Arc<T>, HccError> {
        let obj = build(name, self.object_options());
        debug_assert_eq!(obj.object_name(), name, "an object is built under its own name");
        let mut objects = self.objects.write();
        let objects = &mut *objects;
        let Some(slot) = objects.slots.get_mut(name) else {
            let open = Slot::Open { typed: obj.clone(), durable: obj.clone() };
            objects.slots.insert(name.to_string(), open);
            return Ok(obj);
        };
        let share = match slot {
            Slot::Open { typed, .. } => return downcast(name, typed),
            Slot::Logged(share) => share,
        };
        if let Err(e) = share.install(obj.as_ref(), self.report.checkpoint_ts) {
            dump_refused_recovery(self.mgr.flight_recorder(), &e);
            return Err(e);
        }
        *slot = Slot::Open { typed: obj.clone(), durable: obj.clone() };
        objects.unopened -= 1;
        if objects.unopened == 0 {
            if let Some(store) = self.mgr.storage() {
                store.mark_state_absorbed();
            }
        }
        Ok(obj)
    }

    /// Run `f` as one transaction: commit on `Ok`, abort on `Err`, and
    /// transparently abort-and-retry (fresh transaction, bounded
    /// backoff) when the failure is transient per
    /// [`HccError::is_transient`] — a deadlock doom, a lock timeout, a
    /// refused prepare vote. The first retry after a deadlock doom
    /// starts at once; every other retry backs off first. Fatal
    /// errors surface immediately; a transient failure that outlives the
    /// retry budget surfaces as [`HccError::RetriesExhausted`].
    ///
    /// Effects apply **exactly once**: they become visible only through
    /// the single successful commit; every failed attempt was aborted at
    /// all objects before the next began. The closure may run several
    /// times and must not carry side effects outside its transaction.
    pub fn transact<T>(
        &self,
        mut f: impl FnMut(&Tx) -> Result<T, HccError>,
    ) -> Result<T, HccError> {
        self.transact_ts(&mut f).map(|(v, _)| v)
    }

    /// [`Db::transact`], also returning the commit timestamp.
    pub fn transact_ts<T>(
        &self,
        mut f: impl FnMut(&Tx) -> Result<T, HccError>,
    ) -> Result<(T, Timestamp), HccError> {
        let mut attempt: u32 = 0;
        let mut pauses: u32 = 0;
        loop {
            let err = match self.run_once(self.mgr.begin(), &mut f) {
                Ok(done) => {
                    self.transact_attempts.observe(u64::from(attempt) + 1);
                    return Ok(done);
                }
                Err(e) => e, // already aborted everywhere
            };
            if !err.is_transient() {
                self.transact_attempts.observe(u64::from(attempt) + 1);
                return Err(err);
            }
            if attempt >= self.retry.max_retries {
                self.transact_attempts.observe(u64::from(attempt) + 1);
                return Err(HccError::RetriesExhausted {
                    attempts: attempt + 1,
                    last: Box::new(err),
                });
            }
            // A deadlock victim's first retry starts at once, under a
            // younger id. It does not necessarily queue behind the
            // survivor: it waits only where its operations conflict with
            // held ones, and the operation that opened the cycle may not.
            // A queue's enq+deq takes its Enq again beside the survivor's
            // (Enq does not conflict with Enq) and can deadlock again at
            // Deq. Every other transient failure, and a second doom in a
            // row, backs off — on the exponential schedule, which starts
            // with the first pause.
            let doomed = matches!(
                err,
                HccError::Exec(ExecError::Doomed) | HccError::Commit(CommitError::Doomed)
            );
            if !(doomed && attempt == 0) {
                let backoff = self.retry.backoff(pauses);
                pauses += 1;
                self.transact_backoff_nanos.add(backoff.as_nanos() as u64);
                std::thread::sleep(backoff);
            }
            attempt += 1;
        }
    }

    /// One attempt of `f` that never waits on a lock: the transaction
    /// runs under a no-wait handle, so an operation that a held one
    /// conflicts with, or one undefined in the current view, fails the
    /// attempt at once (`ExecError::WouldBlock`) instead of parking.
    ///
    /// `Ok(None)`: the attempt would have waited, or failed in some other
    /// transient way ([`HccError::is_transient`]). It is already aborted
    /// at every object, so running the same closure under
    /// [`Db::transact_ts`] applies its effects exactly once. There is no
    /// retry and no backoff here. Fatal errors surface as they do from
    /// `transact_ts`.
    ///
    /// This is the server's inline fast path: a session reader runs a
    /// request itself only if it cannot block, and hands it to the
    /// worker pool otherwise.
    pub fn try_transact_ts<T>(
        &self,
        f: impl FnOnce(&Tx) -> Result<T, HccError>,
    ) -> Result<Option<(T, Timestamp)>, HccError> {
        match self.run_once(self.mgr.begin_no_wait(), f) {
            Err(e) if e.is_transient() => Ok(None),
            outcome => {
                self.transact_attempts.observe(1);
                outcome.map(Some)
            }
        }
    }

    /// Run `f` once as the transaction `txn`: commit on `Ok`, abort on
    /// `Err`. Every `Err` leaves the transaction aborted everywhere.
    fn run_once<T>(
        &self,
        txn: Arc<TxnHandle>,
        f: impl FnOnce(&Tx) -> Result<T, HccError>,
    ) -> Result<(T, Timestamp), HccError> {
        let tx = Tx::new(txn);
        // The guard is the abort path: it fires when the scope ends — on
        // an `Err` return, and on a panic unwinding out of the closure,
        // which must not leak the attempt's held locks. Once the
        // transaction committed (or `commit` aborted it), the abort is a
        // no-op.
        let _guard = AbortOnDrop { mgr: &self.mgr, txn: tx.handle().clone() };
        let v = f(&tx)?;
        let ts = self.mgr.commit(tx.handle().clone())?;
        Ok((v, ts))
    }

    /// Take a fuzzy checkpoint of every object this `Db` has handed out.
    /// `Ok(None)` for an in-memory database. Refused with
    /// `StorageError::UnabsorbedHistory` while logged names remain
    /// unopened — a checkpoint then would claim coverage of state no
    /// live object holds.
    pub fn checkpoint(&self) -> Result<Option<Checkpoint>, HccError> {
        let objects = self.objects.read();
        let mut open: Vec<&dyn DurableObject> = objects
            .slots
            .values()
            .filter_map(|slot| match slot {
                Slot::Open { durable, .. } => Some(durable.as_ref()),
                Slot::Logged(_) => None,
            })
            .collect();
        open.sort_unstable_by(|a, b| a.object_name().cmp(b.object_name()));
        self.mgr.checkpoint(&open).map_err(Into::into)
    }

    /// [`Db::checkpoint`] iff the store's compaction policy asks for it.
    pub fn maybe_checkpoint(&self) -> Result<Option<Checkpoint>, HccError> {
        match self.mgr.storage() {
            Some(store) if store.should_checkpoint() => self.checkpoint(),
            _ => Ok(None),
        }
    }

    /// What opening this database recovered: checkpoint watermark,
    /// committed tail size, torn-tail flag.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.report
    }

    /// Durable names recovered from the log that no [`Db::object`] /
    /// [`Db::object_with`] call has opened yet. Until this is empty,
    /// checkpoints are refused.
    pub fn unopened_objects(&self) -> Vec<String> {
        let objects = self.objects.read();
        let mut names: Vec<String> = objects
            .slots
            .iter()
            .filter(|(_, slot)| matches!(slot, Slot::Logged(_)))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// The runtime options this database builds every object with:
    /// deadlock observer, the redo sink, the manager's horizon registry,
    /// and the configured lock timeout.
    fn object_options(&self) -> RuntimeOptions {
        let mut opts = self.mgr.object_options();
        if let Some(timeout) = self.lock_timeout {
            opts.block.timeout = Some(timeout);
        }
        opts
    }

    /// **Escape hatch**: the underlying transaction manager, for
    /// hand-interleaved `begin`/`commit` (several transactions open in one
    /// thread, a driver's own retry loop such as `hcc-workload`'s
    /// `scheme::run`). Objects still come from [`Db::object`] and
    /// [`Db::object_with`], and checkpoints from [`Db::checkpoint`]; see
    /// `docs/API.md` — everything routed through it still self-logs and
    /// recovers through this `Db`.
    pub fn manager(&self) -> &Arc<TxnManager> {
        &self.mgr
    }

    /// The durable store, when this database has one.
    pub fn storage(&self) -> Option<&Arc<DurableStore>> {
        self.mgr.storage()
    }

    /// The current stable watermark: the highest timestamp `W` such that
    /// every commit with `ts ≤ W` is fully applied at every object it
    /// touched. [`Db::begin_read`] and [`Db::transact_read`] serve
    /// snapshots at this mark; on a replication follower it is the
    /// replicated watermark the primary proved safe. Served over the wire
    /// by the `Stats` request, so clients can watch a replica's lag.
    pub fn stable_watermark(&self) -> u64 {
        self.mgr.stable_watermark()
    }

    /// Transactions committed through this database.
    pub fn committed_count(&self) -> u64 {
        self.mgr.committed_count()
    }

    /// Transactions aborted through this database (including retried
    /// `transact` attempts).
    pub fn aborted_count(&self) -> u64 {
        self.mgr.aborted_count()
    }

    /// A point-in-time snapshot of every metric this database's layers
    /// recorded: lock grants/refusals/waits per ADT type and conflict
    /// class (the paper's conflict tables, live), transaction counts and
    /// latency histograms, `transact` retry attempts, WAL appends /
    /// group-commit batches / fsync latency, checkpoint and recovery
    /// totals. Diff two snapshots with [`hcc_obs::Snapshot::delta`].
    pub fn stats(&self) -> hcc_obs::Snapshot {
        self.mgr.metrics().snapshot()
    }

    /// The live metric registry, shared by the store, the WAL, the
    /// manager, and every object this database built.
    pub fn metrics(&self) -> &Arc<hcc_obs::Registry> {
        self.mgr.metrics()
    }

    /// The read-path instruments (`crate::read` is a sibling module).
    pub(crate) fn read_instruments(&self) -> &ReadInstruments {
        &self.read_instruments
    }

    /// The transient-failure retry policy (shared by `transact` and
    /// `transact_read`).
    pub(crate) fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }
}

impl Drop for Db {
    /// Honor `HCC_METRICS=dump|json`: print a final metrics snapshot to
    /// stderr when the session ends — the zero-code observability hook
    /// (`dump` renders the aligned table; `json` one machine-readable
    /// line for CI schema checks).
    fn drop(&mut self) {
        if let Some(mode) = hcc_obs::dump_mode_from_env() {
            let snap = self.mgr.metrics().snapshot();
            match mode {
                hcc_obs::DumpMode::Table => eprintln!("{}", snap.render_table()),
                hcc_obs::DumpMode::Json => eprintln!("{}", snap.render_json()),
            }
        }
    }
}
