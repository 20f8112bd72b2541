//! End-to-end durable banking throughput: `Db`, self-logging objects,
//! and the WAL together — the whole write path, parameterised over
//! Fsync/Buffered × thread counts.
//!
//! Unlike `bank::account_mix` (pure in-memory concurrency-control cost),
//! every mutating operation here serializes its redo record into the WAL
//! and every commit pays the configured durability. Each worker thread
//! drives its own account (thread-affine, `accounts ≥ threads`), so the
//! measured contention is the *log's* — the append mutex, group-commit
//! batching, fsync scheduling — not lock conflicts at one hot object.
//!
//! The optional mid-run fuzzy checkpoint measures the checkpoint stall:
//! how long the commit gate was held exclusively (the
//! `ckpt.last_gate_nanos` gauge in the system's metric registry) and the
//! longest gap any worker saw between consecutive commit completions
//! while the checkpoint was in flight.

use hcc_adts::account::AccountObject;
use hcc_adts::counter::{CounterAdt, CounterDef, CounterInv};
use hcc_adts::set::{SetAdt, SetDef, SetInv};
use hcc_adts::{Object, ObjectAdt};
use hcc_core::runtime::{Durability, SpecAdt};
use hcc_db::Db;
use hcc_spec::Rational;
use hcc_storage::{CompactionPolicy, StorageOptions};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Options for one [`durable_account_mix`] run.
#[derive(Clone, Copy, Debug)]
pub struct DurableMixOptions {
    /// Worker threads.
    pub threads: usize,
    /// Transactions per worker.
    pub txns_per_thread: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Account objects (clamped up to `threads` so each worker has its
    /// own).
    pub accounts: usize,
    /// Commit durability.
    pub durability: Durability,
    /// Issue one fuzzy checkpoint when roughly half the commits are in.
    pub checkpoint_mid_run: bool,
}

impl Default for DurableMixOptions {
    fn default() -> Self {
        DurableMixOptions {
            threads: 8,
            txns_per_thread: 200,
            ops_per_txn: 4,
            accounts: 16,
            durability: Durability::Fsync,
            checkpoint_mid_run: false,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug)]
pub struct DurableMixReport {
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted (conflicts/timeouts — near zero by design).
    pub aborted: u64,
    /// Wall-clock time of the commit phase.
    pub elapsed: Duration,
    /// Committed transactions per second.
    pub commits_per_sec: f64,
    /// Nanoseconds the mid-run checkpoint held the commit gate
    /// exclusively (0 when no checkpoint ran).
    pub checkpoint_gate_nanos: u64,
    /// Longest gap between two consecutive commit completions observed
    /// by any worker while the checkpoint was in flight (0 when no
    /// checkpoint ran).
    pub checkpoint_max_commit_gap_nanos: u64,
    /// Final committed balance per account (the recovery oracle).
    pub final_balances: Vec<Rational>,
}

/// One transaction's operations.
fn txn_ops(
    acct: &AccountObject,
    t: &Arc<hcc_core::runtime::TxnHandle>,
    w: usize,
    i: usize,
    ops_per_txn: usize,
) -> Result<(), hcc_core::runtime::ExecError> {
    for k in 0..ops_per_txn {
        let v = Rational::from_int(((w + i + k) % 40 + 1) as i64);
        if k % 4 == 3 {
            acct.debit(t, v)?;
        } else {
            acct.credit(t, v)?;
        }
    }
    Ok(())
}

/// The measurement harness every mix runs under: barrier start,
/// per-worker commit-gap tracking, optional mid-run checkpoint thread.
/// `run_txn(worker, i)` commits one transaction and reports success;
/// `checkpoint()` takes the mid-run checkpoint.
fn drive_mix(
    opts: &DurableMixOptions,
    run_txn: impl Fn(usize, usize) -> bool + Sync,
    checkpoint: impl FnOnce() + Send,
) -> (Duration, u64, u64) {
    let aborted = AtomicU64::new(0);
    let committed_so_far = AtomicU64::new(0);
    let ckpt_running = AtomicBool::new(false);
    let max_gap_in_ckpt = AtomicU64::new(0);
    let barrier = Barrier::new(opts.threads + usize::from(opts.checkpoint_mid_run));
    let total_target = (opts.threads * opts.txns_per_thread) as u64;

    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..opts.threads {
            let (run_txn, barrier) = (&run_txn, &barrier);
            let (aborted, committed_so_far) = (&aborted, &committed_so_far);
            let (ckpt_running, max_gap_in_ckpt) = (&ckpt_running, &max_gap_in_ckpt);
            s.spawn(move || {
                barrier.wait();
                let mut last_commit = Instant::now();
                for i in 0..opts.txns_per_thread {
                    if run_txn(w, i) {
                        committed_so_far.fetch_add(1, Ordering::Relaxed);
                        let now = Instant::now();
                        if ckpt_running.load(Ordering::Relaxed) {
                            let gap = now.duration_since(last_commit).as_nanos() as u64;
                            max_gap_in_ckpt.fetch_max(gap, Ordering::Relaxed);
                        }
                        last_commit = now;
                    } else {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        if opts.checkpoint_mid_run {
            let (barrier, committed_so_far, ckpt_running) =
                (&barrier, &committed_so_far, &ckpt_running);
            s.spawn(move || {
                barrier.wait();
                while committed_so_far.load(Ordering::Relaxed) < total_target / 2 {
                    std::thread::yield_now();
                }
                ckpt_running.store(true, Ordering::Relaxed);
                checkpoint();
                ckpt_running.store(false, Ordering::Relaxed);
            });
        }
    });
    (start.elapsed(), aborted.load(Ordering::Relaxed), max_gap_in_ckpt.load(Ordering::Relaxed))
}

/// Drive the workload against a fresh store at `dir` and report:
/// `Db::open`, typed handles, `Db::transact` scopes.
pub fn durable_account_mix(dir: &Path, opts: DurableMixOptions) -> DurableMixReport {
    let accounts = opts.accounts.max(opts.threads);
    let storage = StorageOptions {
        durability: opts.durability,
        policy: CompactionPolicy::never(), // the mid-run checkpoint is explicit
        ..StorageOptions::default()
    };
    let db = Db::builder().storage_options(storage).open(dir).expect("open database");
    let accts: Vec<Arc<AccountObject>> = (0..accounts)
        .map(|i| db.object::<AccountObject>(&format!("acct-{i}")).expect("typed handle"))
        .collect();

    let (elapsed, aborted, max_gap) = drive_mix(
        &opts,
        |w, i| {
            let acct = &accts[w % accounts];
            db.transact(|tx| txn_ops(acct, tx, w, i, opts.ops_per_txn).map_err(Into::into)).is_ok()
        },
        || {
            db.checkpoint().expect("mid-run checkpoint").expect("store");
        },
    );

    let committed = db.committed_count();
    DurableMixReport {
        committed,
        aborted,
        elapsed,
        commits_per_sec: committed as f64 / elapsed.as_secs_f64(),
        checkpoint_gate_nanos: if opts.checkpoint_mid_run {
            db.stats().gauge("ckpt.last_gate_nanos") as u64
        } else {
            0
        },
        checkpoint_max_commit_gap_nanos: max_gap,
        final_balances: accts.iter().map(|a| a.committed_balance()).collect(),
    }
}

/// Which ADT implementation flavor [`defined_adt_mix`] drives — the
/// declarative-surface overhead comparison: the same Counter + Set
/// workload through the hand-written twins (tuned `RuntimeAdt` +
/// pattern-matched `LockSpec`) or through the generic
/// `SpecObject<CounterDef>` / `SpecObject<SetDef>` path (view
/// materialization by replay, lock tests through the derived class
/// table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixAdts {
    /// `CounterObject` / `SetObject` — the hand-written baseline.
    HandWritten,
    /// The ported `AdtDef` definitions under the derived lock relation.
    Defined,
}

/// What one [`defined_adt_mix`] run measured.
#[derive(Clone, Debug)]
pub struct DefinedMixReport {
    /// Transactions committed.
    pub committed: u64,
    /// Wall-clock time of the commit phase.
    pub elapsed: Duration,
    /// Committed transactions per second.
    pub commits_per_sec: f64,
    /// Final committed counter value per worker (the recovery oracle —
    /// identical across flavors for identical options).
    pub counter_totals: Vec<i64>,
}

/// Drive a Counter + Set workload (thread-affine object pairs, identical
/// op script) through either ADT flavor against a fresh store at `dir`.
/// Only `threads`, `txns_per_thread`, `ops_per_txn` and `durability` of
/// `opts` apply.
pub fn defined_adt_mix(dir: &Path, opts: DurableMixOptions, flavor: MixAdts) -> DefinedMixReport {
    match flavor {
        MixAdts::HandWritten => counter_set_mix::<CounterAdt, SetAdt<i64>>(dir, opts),
        MixAdts::Defined => counter_set_mix::<SpecAdt<CounterDef>, SpecAdt<SetDef<i64>>>(dir, opts),
    }
}

/// [`defined_adt_mix`] over whichever Counter and Set implementations `C`
/// and `S` name: both flavors are `Object<_>`s taking the same
/// invocations, so one driver serves them.
fn counter_set_mix<C, S>(dir: &Path, opts: DurableMixOptions) -> DefinedMixReport
where
    C: ObjectAdt<Inv = CounterInv, Version = i64>,
    S: ObjectAdt<Inv = SetInv<i64>>,
{
    let storage = StorageOptions {
        durability: opts.durability,
        policy: CompactionPolicy::never(),
        ..StorageOptions::default()
    };
    let db = Db::builder().storage_options(storage).open(dir).expect("open database");
    let pairs: Vec<_> = (0..opts.threads)
        .map(|w| {
            (
                db.object::<Object<C>>(&format!("cnt-{w}")).expect("counter handle"),
                db.object::<Object<S>>(&format!("set-{w}")).expect("set handle"),
            )
        })
        .collect();

    let (elapsed, _aborted, _gap) = drive_mix(
        &DurableMixOptions { checkpoint_mid_run: false, ..opts },
        |w, i| {
            let (c, s) = &pairs[w];
            db.transact(|tx| {
                for k in 0..opts.ops_per_txn {
                    let v = ((w + i + k) % 40 + 1) as i64;
                    let c_inv = if k % 4 == 3 { CounterInv::Dec(v) } else { CounterInv::Inc(v) };
                    let s_inv =
                        if k % 2 == 0 { SetInv::Add(v % 16) } else { SetInv::Remove(v % 16) };
                    c.execute(tx, c_inv)?;
                    s.execute(tx, s_inv)?;
                }
                Ok(())
            })
            .is_ok()
        },
        || {},
    );

    let committed = db.committed_count();
    DefinedMixReport {
        committed,
        elapsed,
        commits_per_sec: committed as f64 / elapsed.as_secs_f64(),
        counter_totals: pairs.iter().map(|(c, _)| c.committed_state()).collect(),
    }
}

/// Options for one [`read_heavy_mix`] run: a skewed 95/5 read/write
/// workload over a shared account population, followed by a pure-read
/// phase that proves the read path never touches the lock manager.
#[derive(Clone, Copy, Debug)]
pub struct ReadHeavyOptions {
    /// Worker threads (readers and writers are the same workers — each
    /// op flips a biased coin).
    pub threads: usize,
    /// Mixed-phase operations per worker.
    pub ops_per_thread: usize,
    /// Pure-read-phase snapshot reads per worker.
    pub pure_reads_per_thread: usize,
    /// Account objects; access is zipfian-skewed, so a handful are hot.
    pub accounts: usize,
    /// Probability an op is a snapshot read (the "95" in 95/5).
    pub read_fraction: f64,
    /// Zipf exponent of the access skew (1.0 ≈ classic web-style skew).
    pub zipf_exponent: f64,
    /// Commit durability for the write slice.
    pub durability: Durability,
}

impl Default for ReadHeavyOptions {
    fn default() -> Self {
        ReadHeavyOptions {
            threads: 8,
            ops_per_thread: 400,
            pure_reads_per_thread: 200,
            accounts: 64,
            read_fraction: 0.95,
            zipf_exponent: 1.0,
            durability: Durability::Fsync,
        }
    }
}

/// What one [`read_heavy_mix`] run measured.
#[derive(Clone, Debug)]
pub struct ReadHeavyReport {
    /// Snapshot reads completed in the mixed phase.
    pub reads: u64,
    /// Write transactions committed in the mixed phase.
    pub writes_committed: u64,
    /// Wall-clock time of the mixed phase.
    pub elapsed: Duration,
    /// Mixed-phase operations (reads + writes) per second.
    pub ops_per_sec: f64,
    /// Snapshot reads completed in the pure-read phase.
    pub pure_reads: u64,
    /// Wall-clock time of the pure-read phase.
    pub pure_read_elapsed: Duration,
    /// Pure-read-phase reads per second — the headline the Fsync vs
    /// Buffered comparison runs on (durability should not move it).
    pub pure_reads_per_sec: f64,
    /// Sum of all `lock.grants.*` + `lock.refusals.*` + `lock.waits.*`
    /// counter deltas across the pure-read phase. The wait-free-read
    /// guarantee is exactly: this is zero.
    pub pure_read_lock_delta: u64,
}

/// Deterministic splitmix-style generator so runs are reproducible
/// without an RNG dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Precomputed zipfian CDF over `n` ranks with exponent `s` — sampling
/// is then one uniform draw plus a binary search, cheap enough that the
/// generator never shows up next to a WAL append.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0;
    for rank in 1..=n {
        total += 1.0 / (rank as f64).powf(s);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

fn zipf_pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Drive a zipfian-skewed 95/5 read/write mix through the facade against
/// a fresh store at `dir`, then a pure-read phase bracketed by metric
/// snapshots.
///
/// The mixed phase is the decoupling measurement: snapshot reads ride
/// [`Db::transact_read`] while the 5% write slice pays the configured
/// durability, so read throughput under `Fsync` and `Buffered` should be
/// within noise of each other. The pure-read phase is the proof: its
/// reported `pure_read_lock_delta` sums every lock-manager counter
/// movement while only readers run, and the wait-free guarantee is that
/// it is exactly zero.
pub fn read_heavy_mix(dir: &Path, opts: ReadHeavyOptions) -> ReadHeavyReport {
    let storage = StorageOptions {
        durability: opts.durability,
        policy: CompactionPolicy::never(),
        ..StorageOptions::default()
    };
    let db = Db::builder().storage_options(storage).open(dir).expect("open database");
    let accts: Vec<Arc<AccountObject>> = (0..opts.accounts)
        .map(|i| db.object::<AccountObject>(&format!("acct-{i}")).expect("typed handle"))
        .collect();
    // Seed every account so the hottest ranks have committed history to
    // read before the first write of the run lands.
    for (i, a) in accts.iter().enumerate() {
        db.transact(|tx| a.credit(tx, Rational::from_int((i % 7 + 1) as i64)).map_err(Into::into))
            .expect("seed credit");
    }

    let cdf = zipf_cdf(opts.accounts, opts.zipf_exponent);
    let reads = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let barrier = Barrier::new(opts.threads);
    let mixed_start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..opts.threads {
            let (db, accts, cdf, barrier) = (&db, &accts, &cdf, &barrier);
            let (reads, writes) = (&reads, &writes);
            s.spawn(move || {
                let mut rng = Rng(0x5eed ^ (w as u64));
                barrier.wait();
                for _ in 0..opts.ops_per_thread {
                    let acct = &accts[zipf_pick(cdf, rng.next_f64())];
                    if rng.next_f64() < opts.read_fraction {
                        let balance = db
                            .transact_read(|rtx| rtx.view_of(acct.as_ref()))
                            .expect("snapshot read");
                        assert!(balance >= Rational::from_int(0), "negative committed balance");
                        reads.fetch_add(1, Ordering::Relaxed);
                    } else if db
                        .transact(|tx| acct.credit(tx, Rational::from_int(1)).map_err(Into::into))
                        .is_ok()
                    {
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let elapsed = mixed_start.elapsed();

    let before = db.stats();
    let pure_start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..opts.threads {
            let (db, accts, cdf, barrier) = (&db, &accts, &cdf, &barrier);
            s.spawn(move || {
                let mut rng = Rng(0xfeed ^ (w as u64));
                barrier.wait();
                for _ in 0..opts.pure_reads_per_thread {
                    let acct = &accts[zipf_pick(cdf, rng.next_f64())];
                    db.transact_read(|rtx| rtx.view_of(acct.as_ref())).expect("pure read");
                }
            });
        }
    });
    let pure_read_elapsed = pure_start.elapsed();
    let delta = db.stats().delta(&before);
    let pure_read_lock_delta = delta.sum_prefix("lock.grants")
        + delta.sum_prefix("lock.refusals")
        + delta.sum_prefix("lock.waits");

    let reads = reads.load(Ordering::Relaxed);
    let pure_reads = (opts.threads * opts.pure_reads_per_thread) as u64;
    ReadHeavyReport {
        reads,
        writes_committed: writes.load(Ordering::Relaxed),
        elapsed,
        ops_per_sec: (opts.threads * opts.ops_per_thread) as f64 / elapsed.as_secs_f64(),
        pure_reads,
        pure_read_elapsed,
        pure_reads_per_sec: pure_reads as f64 / pure_read_elapsed.as_secs_f64(),
        pure_read_lock_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-durablemix-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn durable_mix_commits_everything() {
        let dir = tmp("mix");
        let report = durable_account_mix(
            &dir,
            DurableMixOptions {
                threads: 4,
                txns_per_thread: 30,
                durability: Durability::Buffered,
                checkpoint_mid_run: false,
                ..Default::default()
            },
        );
        assert_eq!(report.committed, 120);
        assert_eq!(report.aborted, 0, "thread-affine accounts should not conflict");
    }

    #[test]
    fn mid_run_checkpoint_does_not_stall_or_lose_commits() {
        let dir = tmp("ckpt");
        let report = durable_account_mix(
            &dir,
            DurableMixOptions {
                threads: 4,
                txns_per_thread: 60,
                durability: Durability::Fsync,
                checkpoint_mid_run: true,
                ..Default::default()
            },
        );
        assert_eq!(report.committed, 240);
        assert!(report.checkpoint_gate_nanos > 0, "checkpoint ran");
        // The fuzzy gate holds no I/O: generously, under 50ms even on a
        // loaded CI box (the old stop-the-world path held it across
        // rotation fsyncs plus every snapshot).
        assert!(
            report.checkpoint_gate_nanos < 50_000_000,
            "gate held {} ns",
            report.checkpoint_gate_nanos
        );
    }

    /// A bare `Db::open` + typed handles recovers the mix's exact final
    /// state — no registry wiring, no replay loop.
    #[test]
    fn facade_mix_commits_and_recovers_through_db_open_alone() {
        let dir = tmp("facade");
        let opts = DurableMixOptions {
            threads: 4,
            txns_per_thread: 30,
            durability: Durability::Buffered,
            ..Default::default()
        };
        let report = durable_account_mix(&dir, opts);
        assert_eq!(report.committed, 120);
        assert_eq!(report.aborted, 0, "thread-affine accounts should not conflict");

        let db = Db::open(&dir).expect("reopen");
        for (i, expected) in report.final_balances.iter().enumerate() {
            let acct = db.object::<AccountObject>(&format!("acct-{i}")).expect("handle");
            assert_eq!(acct.committed_balance(), *expected, "account {i} diverged");
        }
    }

    /// Both ADT flavors of the defined-mix commit everything, agree on
    /// final state, and the defined flavor recovers through `Db::open`
    /// alone.
    #[test]
    fn defined_mix_flavors_agree_and_recover() {
        let opts = DurableMixOptions {
            threads: 4,
            txns_per_thread: 25,
            durability: Durability::Buffered,
            ..Default::default()
        };
        let dir_h = tmp("mix-hand");
        let hand = defined_adt_mix(&dir_h, opts, MixAdts::HandWritten);
        let dir_d = tmp("mix-defined");
        let defined = defined_adt_mix(&dir_d, opts, MixAdts::Defined);
        assert_eq!(hand.committed, 100);
        assert_eq!(defined.committed, 100);
        assert_eq!(hand.counter_totals, defined.counter_totals, "flavors agree on state");

        let db = Db::open(&dir_d).expect("reopen defined store");
        for (w, expected) in defined.counter_totals.iter().enumerate() {
            let c =
                db.object::<hcc_adts::SpecObject<CounterDef>>(&format!("cnt-{w}")).expect("handle");
            assert_eq!(c.committed_state(), *expected, "worker {w} counter diverged");
        }
    }

    /// The read-heavy mix's pure-read phase never touches the lock
    /// manager: every `lock.grants.*` / `lock.refusals.*` /
    /// `lock.waits.*` counter is flat while only readers run — the
    /// wait-free-read guarantee, asserted on live metrics rather than
    /// code inspection.
    #[test]
    fn read_heavy_mix_pure_read_phase_takes_zero_locks() {
        let dir = tmp("readheavy");
        let report = read_heavy_mix(
            &dir,
            ReadHeavyOptions {
                threads: 4,
                ops_per_thread: 80,
                pure_reads_per_thread: 60,
                accounts: 16,
                durability: Durability::Buffered,
                ..Default::default()
            },
        );
        assert_eq!(report.pure_read_lock_delta, 0, "pure-read phase moved a lock-manager counter");
        assert_eq!(report.pure_reads, 240);
        assert!(report.reads > 0, "mixed phase read nothing");
        assert!(report.writes_committed > 0, "mixed phase wrote nothing");
        // The deterministic generator makes the split reproducible: with
        // read_fraction 0.95 the write slice stays a small minority.
        assert!(
            report.reads > report.writes_committed * 5,
            "skew inverted: {} reads vs {} writes",
            report.reads,
            report.writes_committed
        );
    }

    /// Every commit acknowledged during a fuzz-checkpointed,
    /// multi-threaded run is recoverable: fresh objects rebuilt from the
    /// checkpoint + ticket-sorted tail match the live final balances
    /// (replay pins every logged response, so divergence would panic).
    #[test]
    fn checkpointed_run_recovers_every_commit() {
        let dir = tmp("recover");
        let report = durable_account_mix(
            &dir,
            DurableMixOptions {
                threads: 4,
                txns_per_thread: 40,
                durability: Durability::Buffered,
                checkpoint_mid_run: true,
                ..Default::default()
            },
        );
        assert_eq!(report.committed, 160);
        let recovered = hcc_storage::DurableStore::recover(&dir).unwrap();
        let ckpt = recovered.checkpoint.as_ref().expect("mid-run checkpoint present");
        assert!(ckpt.last_ts > 0);
        assert!(recovered.incomplete.is_empty(), "clean close loses nothing");

        let db = Db::open(&dir).expect("fuzzy image + tail reopens");
        assert_eq!(db.recovery_report().checkpoint_ts, ckpt.last_ts);
        let fresh: Vec<Arc<AccountObject>> = (0..report.final_balances.len())
            .map(|i| db.object(&format!("acct-{i}")).expect("fuzzy image + tail replays"))
            .collect();
        for (i, a) in fresh.iter().enumerate() {
            assert_eq!(
                a.committed_balance(),
                report.final_balances[i],
                "account {i} diverged after recovery"
            );
        }
    }
}
