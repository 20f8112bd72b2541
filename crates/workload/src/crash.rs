//! Crash-recovery scenarios: a randomized bank + queue workload logged
//! through the durable store, killed at an injected crash point, recovered
//! from checkpoint + WAL tail, and verified three ways:
//!
//! 1. the recovered objects match an independently tracked oracle of the
//!    committed effects that survived the crash;
//! 2. the surviving commit set is a timestamp-prefix of what was committed
//!    (durability is monotone in commit order);
//! 3. the recovered history, rebuilt as formal events, satisfies
//!    `hcc-verify`'s hybrid atomicity check.
//!
//! The workload performs **no explicit logging, registration, or
//! recovery wiring**: it opens a [`Db`], attaches its objects (every
//! mutating operation then serializes its own redo record — self-
//! logging), and recovery is `Db::open` plus two typed-handle lookups.
//!
//! The "crash" is simulated by closing the store and truncating an
//! arbitrary number of bytes off the final WAL segment — exactly what a
//! power failure does to a log whose tail had not finished reaching disk.

use hcc_adts::account::{self, AccountAdt, AccountInv, AccountObject, AccountRes};
use hcc_adts::fifo_queue::{self, QueueAdt, QueueInv, QueueObject, QueueRes};
use hcc_adts::ObjectAdt;
use hcc_core::runtime::{RuntimeAdt, RuntimeOptions};
use hcc_db::{Db, HccError};
use hcc_spec::history::HistoryBuilder;
use hcc_spec::specs::{AccountSpec, QueueSpec};
use hcc_spec::{ObjectId, Operation, Rational, Value};
use hcc_storage::{CompactionPolicy, Durability, DurableStore, StorageOptions};
use hcc_verify::{hybrid_atomic, SystemSpecs};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// One committed effect, as the oracle tracks it.
#[derive(Clone, Debug, PartialEq)]
pub enum Effect {
    /// `credit(v)` on the account.
    Credit(i64),
    /// `debit(v)` that succeeded.
    DebitOk(i64),
    /// `debit(v)` refused (overdraft); no state change, but the response
    /// matters to the verifier.
    DebitOver(i64),
    /// `enq(v)` on the queue.
    Enq(i64),
    /// `deq()` that returned `v`.
    Deq(i64),
}

/// What the workload committed before the crash, keyed by commit
/// timestamp.
pub type Oracle = BTreeMap<u64, Vec<Effect>>;

/// Options for one crash-recovery run.
#[derive(Clone, Copy, Debug)]
pub struct CrashScenarioOptions {
    /// RNG seed (the whole run is deterministic given the seed).
    pub seed: u64,
    /// Transactions to attempt.
    pub txns: usize,
    /// Open transactions interleaved at any moment.
    pub interleave: usize,
    /// Checkpoint every N commits (`None` = never).
    pub checkpoint_every: Option<u64>,
    /// Durability of the run.
    pub durability: Durability,
}

impl Default for CrashScenarioOptions {
    fn default() -> Self {
        CrashScenarioOptions {
            seed: 0xC4A5,
            txns: 120,
            interleave: 3,
            checkpoint_every: None,
            durability: Durability::Buffered,
        }
    }
}

impl CrashScenarioOptions {
    /// Override the durability level from the `HCC_DURABILITY` environment
    /// variable (`buffered` / `fsync`, case-insensitive) — how
    /// CI runs the recovery suite as a durability matrix. Unset or
    /// unrecognized values keep the current level.
    pub fn env_overrides(mut self) -> Self {
        if let Some(d) = hcc_storage::durability_env_override() {
            self.durability = d;
        }
        self
    }
}

/// Result of the workload phase.
#[derive(Debug)]
pub struct CrashWorkload {
    /// Committed effects by timestamp.
    pub oracle: Oracle,
    /// Transactions committed (== `oracle.len()`).
    pub committed: usize,
    /// Transactions aborted by conflicts/timeouts.
    pub aborted: usize,
    /// Checkpoints taken during the run.
    pub checkpoints: u64,
}

/// State rebuilt by recovery.
#[derive(Debug, PartialEq)]
pub struct RecoveredState {
    /// Account balance.
    pub balance: Rational,
    /// Queue contents, front first.
    pub queue: Vec<i64>,
    /// The checkpoint's watermark (0 when recovery started from scratch):
    /// every commit at or below it is folded into the snapshot.
    pub checkpoint_ts: u64,
    /// Timestamps of the replayed tail commits, ascending.
    pub tail_ts: Vec<u64>,
    /// Snapshot bytes of every recovered object, by name.
    pub snapshots: Vec<(String, Vec<u8>)>,
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// Run the randomized workload, logging through a [`Db`] opened at
/// `dir`, and close the database (an orderly close; combine with
/// [`truncate_tail`] to simulate the crash).
///
/// The interleaved transaction loop runs on `db.manager()` — the
/// documented low-level escape hatch — because keeping several
/// transactions open at once *from one thread* is exactly what
/// closure-scoped `transact` cannot express, and mixed op records of
/// concurrent transactions are the log shapes under test.
pub fn run_crash_workload(
    dir: &Path,
    opts: CrashScenarioOptions,
) -> Result<CrashWorkload, HccError> {
    let storage = StorageOptions {
        segment_max_bytes: 2048, // small segments: rotation + pruning exercised
        durability: opts.durability,
        policy: match opts.checkpoint_every {
            Some(n) => CompactionPolicy::every_n(n),
            None => CompactionPolicy::never(),
        },
    };
    let db = Db::builder().storage_options(storage).open(dir)?;
    let mgr = db.manager().clone();
    // Short timeouts: a conflicting interleaving aborts quickly and the
    // abort path gets logged coverage — so the objects are attached with
    // their own options rather than taken from `db.object`.
    let timeout = Some(std::time::Duration::from_millis(20));
    let store = db.storage().expect("a durable db has a store").clone();
    let obj_opts = RuntimeOptions::with_timeout(timeout).with_redo(store);
    let acct = db.attach(Arc::new(AccountObject::with_options("acct", obj_opts.clone())))?;
    let queue = db.attach(Arc::new(QueueObject::<i64>::with_options("q", obj_opts)))?;

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut oracle = Oracle::new();
    let mut aborted = 0usize;

    // `interleave` transactions stay open at once; each step extends one of
    // them or commits it, so op records of different transactions mix in
    // the log.
    struct Open {
        txn: std::sync::Arc<hcc_core::runtime::TxnHandle>,
        effects: Vec<Effect>,
        failed: bool,
    }
    let mut open: Vec<Open> = Vec::new();
    let mut started = 0usize;

    while started < opts.txns || !open.is_empty() {
        while open.len() < opts.interleave && started < opts.txns {
            open.push(Open { txn: mgr.begin(), effects: Vec::new(), failed: false });
            started += 1;
        }
        let slot = rng.gen_range(0..open.len());
        let finish =
            open[slot].failed || open[slot].effects.len() >= 4 || rng.gen_range(0..100u32) < 30;
        if finish {
            let o = open.swap_remove(slot);
            if o.failed || o.effects.is_empty() {
                mgr.abort(o.txn);
                aborted += 1;
            } else {
                match mgr.commit(o.txn) {
                    Ok(ts) => {
                        oracle.insert(ts.0, o.effects);
                        if opts.checkpoint_every.is_some() {
                            db.maybe_checkpoint()?;
                        }
                    }
                    Err(_) => aborted += 1,
                }
            }
            continue;
        }
        let o = &mut open[slot];
        let dice = rng.gen_range(0..100u32);
        let result: Result<Option<Effect>, hcc_core::runtime::ExecError> = if dice < 40 {
            let v = rng.gen_range(1..50i64);
            acct.credit(&o.txn, money(v)).map(|_| Some(Effect::Credit(v)))
        } else if dice < 60 {
            let v = rng.gen_range(1..80i64);
            acct.debit(&o.txn, money(v))
                .map(|ok| Some(if ok { Effect::DebitOk(v) } else { Effect::DebitOver(v) }))
        } else if dice < 90 || queue.committed_len() == 0 {
            let v = rng.gen_range(1..1000i64);
            queue.enq(&o.txn, v).map(|_| Some(Effect::Enq(v)))
        } else {
            queue.deq(&o.txn).map(|v| Some(Effect::Deq(v)))
        };
        match result {
            Ok(Some(effect)) => o.effects.push(effect),
            Ok(None) => {}
            Err(_) => o.failed = true, // conflict/timeout: abort on finish
        }
    }

    let checkpoints = db.storage().map(|s| s.checkpoints_taken()).unwrap_or(0);
    Ok(CrashWorkload { committed: oracle.len(), oracle, aborted, checkpoints })
}

/// The `(object, redo payload)` record self-logging must have written
/// for this effect, synthesized through the ADT's own `redo` encoder (no
/// hand-maintained JSON shadow format to drift) — what the oracle-vs-log
/// test holds each recovered commit's records against.
pub fn effect_redo(e: &Effect) -> (&'static str, Vec<u8>) {
    let queue: QueueAdt<i64> = QueueAdt::default();
    match e {
        Effect::Credit(v) => (
            "acct",
            AccountAdt
                .redo(&AccountInv::Credit(money(*v)), &AccountRes::Ok)
                .expect("credit is mutating"),
        ),
        Effect::DebitOk(v) => (
            "acct",
            AccountAdt
                .redo(&AccountInv::Debit(money(*v)), &AccountRes::Debited)
                .expect("debit is mutating"),
        ),
        Effect::DebitOver(v) => (
            "acct",
            AccountAdt
                .redo(&AccountInv::Debit(money(*v)), &AccountRes::Overdraft)
                .expect("overdraft is logged"),
        ),
        Effect::Enq(v) => {
            ("q", queue.redo(&QueueInv::Enq(*v), &QueueRes::Ok).expect("enq is mutating"))
        }
        Effect::Deq(v) => {
            ("q", queue.redo(&QueueInv::Deq, &QueueRes::Item(*v)).expect("deq is mutating"))
        }
    }
}

/// Decode one logged `(object, redo payload)` through its type's own
/// codec: the object's index in the formal history (account 0, queue 1),
/// the formal operation the verifier checks, and the oracle's effect.
fn decode_logged(object: &str, bytes: &[u8]) -> (u64, Operation, Effect) {
    let int = |r: Rational| {
        assert!(r.is_integer(), "workload amounts are integers");
        i64::try_from(r.numerator()).expect("workload amounts fit i64")
    };
    match object {
        "acct" => {
            let (inv, res) = AccountAdt.decode_redo(bytes).expect("account redo decodes");
            let effect = match (&inv, &res) {
                (AccountInv::Credit(v), _) => Effect::Credit(int(*v)),
                (AccountInv::Debit(v), AccountRes::Debited) => Effect::DebitOk(int(*v)),
                (AccountInv::Debit(v), _) => Effect::DebitOver(int(*v)),
                (AccountInv::Post(_), _) => panic!("the bank + queue workloads never post"),
            };
            (0, account::to_spec_op(&inv, &res), effect)
        }
        "q" => {
            let (inv, res) =
                QueueAdt::<i64>::default().decode_redo(bytes).expect("queue redo decodes");
            let effect = match (&inv, &res) {
                (QueueInv::Enq(v), _) => Effect::Enq(*v),
                (QueueInv::Deq, QueueRes::Item(v)) => Effect::Deq(*v),
                (QueueInv::Deq, QueueRes::Ok) => unreachable!("deq returns an item"),
            };
            (1, fifo_queue::to_spec_op(&inv, &res), effect)
        }
        other => panic!("the bank + queue workloads only log acct/q, the log names {other}"),
    }
}

/// Rebuild the commit oracle (timestamp → effects) from the log at
/// `dir` — the store's own record of what it holds, independent of any
/// in-memory state.
pub fn oracle_from_log(dir: &Path) -> Result<Oracle, HccError> {
    let recovered = DurableStore::recover(dir)?;
    Ok(recovered
        .committed
        .iter()
        .map(|c| (c.ts, c.ops.iter().map(|(o, bytes)| decode_logged(o, bytes).2).collect()))
        .collect())
}

/// Chop `bytes` off the end of the final WAL segment — the injected
/// crash point (exactly what a power failure does to the log's unflushed
/// tail). Returns how many bytes were removed.
pub fn truncate_tail(dir: &Path, bytes: u64) -> Result<u64, HccError> {
    let segments = hcc_storage::wal::segments(dir)?;
    let Some((_, last)) = segments.last() else { return Ok(0) };
    let len = std::fs::metadata(last)?.len();
    let cut = bytes.min(len);
    let file = std::fs::OpenOptions::new().write(true).open(last)?;
    file.set_len(len - cut)?;
    file.sync_data()?;
    Ok(cut)
}

/// Recover the store at `dir` through the [`Db`] facade alone — open
/// the database, ask for the typed handles, and the recovered state is
/// simply *there* (each object decodes and replays its own redo
/// payloads, pinning every logged response) — while independently
/// rebuilding the formal history from the raw log image and checking it
/// hybrid atomic with `hcc-verify`. Returns the reconstructed state.
pub fn recover_and_verify(dir: &Path) -> Result<RecoveredState, HccError> {
    use hcc_storage::Snapshot as _;

    // The raw image feeds the verifier; reading it first keeps this scan
    // independent of anything the facade's open does.
    let recovered = DurableStore::recover(dir)?;
    // The whole recovery path under test is these three calls: the
    // caller builds no object directory, runs no replay loop and
    // dispatches no checkpoint.
    let db = Db::open(dir)?;
    let acct = db.object::<AccountObject>("acct")?;
    let queue = db.object::<QueueObject<i64>>("q")?;
    let ckpt_ts = db.recovery_report().checkpoint_ts;
    let mut tail_ts = Vec::new();

    // Rebuild the formal history for the verifier (account = object 0,
    // queue = 1). `Snapshot::restore` installs the checkpoint image as
    // state; the formal history models it as one bootstrap transaction
    // committed at the checkpoint timestamp — without it, a tail `deq` of
    // an item enqueued before the checkpoint would be illegal from the
    // initial state. The bootstrap state is decoded straight from the
    // checkpoint image (the live objects already hold checkpoint *plus*
    // tail).
    let mut hb = HistoryBuilder::new();
    if let Some(ckpt) = &recovered.checkpoint {
        let boot = hcc_adts::snapshot::BOOTSTRAP_TXN;
        let mut touched_queue = false;
        for (name, bytes) in &ckpt.objects {
            match name.as_str() {
                "acct" => {
                    let balance = AccountAdt.decode_version(bytes).expect("account image decodes");
                    hb = hb.op(0, boot, AccountSpec::credit(balance), Value::Unit);
                }
                "q" => {
                    let items = QueueAdt::<i64>::default()
                        .decode_version(bytes)
                        .expect("queue image decodes");
                    for item in items {
                        hb = hb.op(1, boot, QueueSpec::enq(item), Value::Unit);
                        touched_queue = true;
                    }
                }
                other => panic!("unexpected checkpointed object {other}"),
            }
        }
        hb = hb.commit(0, boot, ckpt.last_ts);
        if touched_queue {
            hb = hb.commit(1, boot, ckpt.last_ts);
        }
    }
    for committed in &recovered.committed {
        assert!(committed.ts > ckpt_ts, "tail commits lie above the checkpoint");
        // The recovered timestamp enters the history verbatim: commit
        // events only at the objects the transaction touched. (The live
        // replay already happened inside `db.object`, response-pinned.)
        let mut touched = [false; 2];
        for (object, bytes) in &committed.ops {
            let (x, op, _) = decode_logged(object, bytes);
            hb = hb.op(x, committed.txn, op.inv, op.res);
            touched[x as usize] = true;
        }
        for (x, _) in touched.iter().enumerate().filter(|(_, t)| **t) {
            hb = hb.commit(x as u64, committed.txn, committed.ts);
        }
        tail_ts.push(committed.ts);
    }

    let history = hb.build();
    history.well_formed().expect("recovered history is well formed");
    let specs =
        SystemSpecs::new().with(ObjectId(0), account::spec()).with(ObjectId(1), fifo_queue::spec());
    assert!(
        hybrid_atomic(&history, &specs),
        "recovered history must be hybrid atomic:\n{history:?}"
    );

    // Surface what this recovery did, from the registry the open
    // populated (the registry is born at open, so the snapshot *is* the
    // recovery delta — nothing else has run yet).
    let snap = db.stats();
    eprintln!(
        "recovery: segments_scanned={} commits_replayed={} records_replayed={} \
         commits_dropped={} in_doubt={} torn_tails_repaired={}",
        snap.counter("recovery.segments_scanned"),
        snap.counter("recovery.commits_replayed"),
        snap.counter("recovery.records_replayed"),
        snap.counter("recovery.commits_dropped"),
        snap.counter("recovery.commits_in_doubt"),
        snap.counter("recovery.torn_tails_repaired"),
    );

    let queue_items: Vec<i64> = queue.inner().committed_snapshot().into_iter().collect();
    Ok(RecoveredState {
        balance: acct.committed_balance(),
        queue: queue_items,
        checkpoint_ts: ckpt_ts,
        tail_ts,
        snapshots: vec![("acct".to_string(), acct.snapshot()), ("q".to_string(), queue.snapshot())],
    })
}

/// Fold the oracle over the timestamp set `S` (ascending) into the state
/// the objects should hold.
pub fn fold_oracle(oracle: &Oracle, upto_inclusive: &[u64]) -> (Rational, Vec<i64>) {
    let mut balance = Rational::ZERO;
    let mut queue: std::collections::VecDeque<i64> = Default::default();
    for ts in upto_inclusive {
        for effect in oracle.get(ts).into_iter().flatten() {
            match effect {
                Effect::Credit(v) => balance += money(*v),
                Effect::DebitOk(v) => balance -= money(*v),
                Effect::DebitOver(_) => {}
                Effect::Enq(v) => queue.push_back(*v),
                Effect::Deq(v) => {
                    let head = queue.pop_front();
                    assert_eq!(head, Some(*v), "oracle queue disagrees with logged deq");
                }
            }
        }
    }
    (balance, queue.into_iter().collect())
}

/// End-to-end property: run, crash at `cut_bytes` off the tail, recover,
/// verify state equals the oracle folded over the surviving prefix.
/// Returns `(committed before crash, surviving commits)`.
pub fn crash_point_holds(
    dir: &Path,
    opts: CrashScenarioOptions,
    cut_bytes: u64,
) -> Result<(usize, usize), HccError> {
    let workload = run_crash_workload(dir, opts)?;
    truncate_tail(dir, cut_bytes)?;
    let state = recover_and_verify(dir)?;

    // The covered set is everything inside the checkpoint plus the
    // replayed tail.
    let all_ts: Vec<u64> = workload.oracle.keys().copied().collect();
    let mut covered: Vec<u64> = all_ts
        .iter()
        .copied()
        .filter(|t| *t <= state.checkpoint_ts)
        .chain(state.tail_ts.iter().copied())
        .collect();
    covered.sort();
    covered.dedup();
    // The log is one stream and the driver commits in timestamp order,
    // so truncating its tail can only drop a timestamp-suffix: survivors
    // form a global timestamp prefix.
    let expected_prefix: Vec<u64> = match covered.last() {
        Some(&max) => all_ts.iter().copied().filter(|t| *t <= max).collect(),
        None => Vec::new(),
    };
    assert_eq!(covered, expected_prefix, "survivors must form a timestamp prefix");

    let (balance, queue) = fold_oracle(&workload.oracle, &covered);
    assert_eq!(state.balance, balance, "recovered balance diverges from the oracle");
    assert_eq!(state.queue, queue, "recovered queue diverges from the oracle");
    Ok((workload.committed, covered.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-crash-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn clean_shutdown_recovers_everything() {
        let dir = tmp("clean");
        let (committed, survived) =
            crash_point_holds(&dir, CrashScenarioOptions::default().env_overrides(), 0).unwrap();
        assert!(committed > 30, "workload committed too little: {committed}");
        assert_eq!(survived, committed, "no crash, nothing lost");
    }

    #[test]
    fn mid_log_crash_recovers_a_prefix() {
        let dir = tmp("cut");
        let (committed, survived) =
            crash_point_holds(&dir, CrashScenarioOptions::default().env_overrides(), 700).unwrap();
        assert!(survived <= committed);
    }

    #[test]
    fn checkpointed_run_recovers_from_checkpoint_plus_tail() {
        let dir = tmp("ckpt");
        let opts =
            CrashScenarioOptions { checkpoint_every: Some(15), ..CrashScenarioOptions::default() }
                .env_overrides();
        let (committed, survived) = crash_point_holds(&dir, opts, 0).unwrap();
        assert_eq!(survived, committed);
    }

    #[test]
    fn fsync_run_with_group_commit_loses_nothing_on_clean_close() {
        let dir = tmp("fsync");
        let opts = CrashScenarioOptions {
            durability: Durability::Fsync,
            txns: 40,
            ..CrashScenarioOptions::default()
        };
        let (committed, survived) = crash_point_holds(&dir, opts, 0).unwrap();
        assert_eq!(survived, committed);
    }
}
