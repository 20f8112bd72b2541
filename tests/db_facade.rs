//! The `Db` facade, end to end: scoped transactions retry *transient*
//! failures (deadlock dooms, refused votes, lock timeouts) and apply
//! their effects exactly once; fatal failures surface immediately; and
//! `Db::open` alone — no object directory, no replay wiring — fully
//! recovers a killed session's durable state.
//!
//! `HCC_DURABILITY` overrides the durability level — CI
//! runs this suite once per level.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::counter::CounterObject;
use hybrid_cc::spec::Rational;
use hybrid_cc::storage::wal::read_records;
use hybrid_cc::storage::{CompactionPolicy, LogRecord, StorageError};
use hybrid_cc::workload::crash::truncate_tail;
use hybrid_cc::{Db, HccError, RetryPolicy};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcc-dbfacade-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// A commit-path transient failure (the transaction doomed as a deadlock
/// victim) is retried by the scope, and the closure's effects land
/// exactly once — not zero times, not twice.
#[test]
fn doomed_commit_is_retried_and_applies_exactly_once() {
    let db = Db::in_memory();
    let c = db.object::<CounterObject>("c").unwrap();
    let mut first = true;
    db.transact(|tx| {
        c.inc(tx, 5)?;
        if first {
            first = false;
            // Mark this attempt a deadlock victim: `commit` will refuse
            // it with `CommitError::Doomed` — classified transient.
            tx.doom();
        }
        Ok(())
    })
    .unwrap();
    assert_eq!(c.committed_value(), 5, "exactly one increment despite the retry");
    assert_eq!(db.committed_count(), 1);
    assert_eq!(db.aborted_count(), 1, "the doomed attempt was aborted, then retried");
}

/// A fatal error is surfaced on the first attempt — never retried — and
/// the transaction's effects are rolled back.
#[test]
fn fatal_storage_error_is_surfaced_not_retried() {
    let db = Db::in_memory();
    let c = db.object::<CounterObject>("c").unwrap();
    let mut attempts = 0u32;
    let res: Result<(), HccError> = db.transact(|tx| {
        attempts += 1;
        c.inc(tx, 1)?;
        Err(HccError::Storage(StorageError::Io(std::io::Error::other("disk gone"))))
    });
    match res {
        Err(HccError::Storage(_)) => {}
        other => panic!("expected the storage error verbatim, got {other:?}"),
    }
    assert_eq!(attempts, 1, "fatal errors must not burn the retry budget");
    assert_eq!(c.committed_value(), 0, "the attempt was aborted");
}

/// Exhausting the retry budget reports how hard it tried and why it
/// last failed.
#[test]
fn transient_error_past_the_budget_reports_exhaustion() {
    let db = Db::builder().retry(RetryPolicy { max_retries: 3, ..Default::default() }).in_memory();
    let mut attempts = 0u32;
    let res: Result<(), HccError> = db.transact(|tx| {
        attempts += 1;
        tx.doom();
        Ok(())
    });
    match res {
        Err(HccError::RetriesExhausted { attempts: reported, last }) => {
            assert_eq!(reported, 4, "initial try + 3 retries");
            assert!(last.is_transient(), "the final failure was still transient");
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    assert_eq!(attempts, 4);
}

/// `try_transact_ts` makes one attempt that never waits: a conflicting
/// held operation, or an operation undefined in the current view (a
/// `deq` of an empty queue), ends it at once with `Ok(None)`, aborted
/// everywhere with nothing applied; a fatal error surfaces as it is; an
/// attempt that needs no wait commits.
#[test]
fn try_transact_gives_up_instead_of_waiting() {
    use hybrid_cc::adts::fifo_queue::QueueObject;
    let db = Db::builder().lock_timeout(Duration::from_secs(30)).in_memory();
    let acct = db.object::<AccountObject>("a").unwrap();
    let queue = db.object::<QueueObject<i64>>("q").unwrap();
    db.transact(|tx| Ok(acct.credit(tx, money(10))?)).unwrap();
    let holder = db.manager().begin();
    assert!(acct.debit(&holder, money(1)).unwrap());

    // Debit-Ok conflicts with the held Debit-Ok; the credit before it
    // was granted and must be undone with the attempt.
    let refused = db.try_transact_ts(|tx| {
        acct.credit(tx, money(5))?;
        Ok(acct.debit(tx, money(1))?)
    });
    assert!(matches!(refused, Ok(None)), "{refused:?}");
    let undefined = db.try_transact_ts(|tx| Ok(queue.deq(tx)?));
    assert!(matches!(undefined, Ok(None)), "{undefined:?}");
    let fatal: Result<Option<((), _)>, HccError> =
        db.try_transact_ts(|_| Err(HccError::rollback("no")));
    assert!(matches!(fatal, Err(HccError::Rollback { .. })), "{fatal:?}");
    assert_eq!(db.aborted_count(), 3);
    let stats = db.stats();
    assert_eq!(stats.counter("lock.refusals.Account.Debit-Ok|Debit-Ok"), 1);
    assert_eq!(stats.counter("deadlock.victims"), 0);

    let (_, ts) = db.try_transact_ts(|tx| Ok(queue.enq(tx, 7)?)).unwrap().unwrap();
    assert!(ts.0 > 0);
    db.manager().abort(holder);
    assert_eq!(acct.committed_balance(), money(10), "the refused attempt left no credit");
    assert_eq!(queue.committed_len(), 1);
    assert_eq!(db.committed_count(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Exactly-once under *real* contention: four workers move money
    /// between two accounts in opposite lock orders (a classic deadlock
    /// recipe) with a short lock timeout, so attempts die of both dooms
    /// and timeouts and get retried by the scope. Every transfer must
    /// land exactly once: with equal traffic in both directions the
    /// balances return to their funding values, and money is conserved
    /// to the cent. A double-applied (or dropped) retry shifts a
    /// balance and fails the invariant.
    #[test]
    fn contended_transfers_apply_exactly_once(per_worker in 4usize..14) {
        let db = Arc::new(
            Db::builder().lock_timeout(Duration::from_millis(10)).in_memory(),
        );
        let a = db.object::<AccountObject>("a").unwrap();
        let b = db.object::<AccountObject>("b").unwrap();
        db.transact(|tx| {
            a.credit(tx, money(1000))?;
            b.credit(tx, money(1000))?;
            Ok(())
        })
        .unwrap();

        std::thread::scope(|s| {
            for w in 0..4usize {
                let db = db.clone();
                let (a, b) = (a.clone(), b.clone());
                s.spawn(move || {
                    for _ in 0..per_worker {
                        // Workers 0/2 move a→b, workers 1/3 move b→a —
                        // opposite traversal orders.
                        let (from, to) = if w % 2 == 0 { (&a, &b) } else { (&b, &a) };
                        db.transact(|tx| {
                            let ok = from.debit(tx, money(1))?;
                            assert!(ok, "both accounts stay well funded");
                            to.credit(tx, money(1))?;
                            Ok(())
                        })
                        .expect("transfers retry past transient contention");
                    }
                });
            }
        });

        // Equal counts in each direction: exactly-once application means
        // both balances are back at 1000 and the total is conserved.
        prop_assert_eq!(a.committed_balance(), money(1000));
        prop_assert_eq!(b.committed_balance(), money(1000));
        prop_assert_eq!(
            db.committed_count(),
            1 + 4 * per_worker as u64,
            "every transfer committed exactly once"
        );
    }
}

/// Satellite regression: `Db::open` alone — no manual `Registry`
/// wiring, no replay loop — fully recovers the `durable_bank` example's
/// state after a kill point. The kill is the same injection the crash
/// suite uses: truncate the WAL tails as a power failure would. The
/// recovered balance must be exactly the sum of a prefix of the
/// acknowledged commits (checkpoints folded in), and a zero-byte cut
/// must lose nothing.
#[test]
fn db_open_alone_recovers_durable_bank_state_after_a_kill_point() {
    const TXNS: i64 = 40;
    for (i, cut) in [0u64, 64, 700, 4096].into_iter().enumerate() {
        let dir = tmp(&format!("bankkill-{i}"));
        let full_balance = {
            // The durable_bank example's run phase, verbatim API.
            let db = Db::builder()
                .segment_max_bytes(2048)
                .compaction(CompactionPolicy::every_n(7))
                .env_overrides()
                .open(&dir)
                .unwrap();
            let acct = db.object::<AccountObject>("acct").unwrap();
            for n in 1..=TXNS {
                db.transact(|tx| acct.credit(tx, money(n)).map_err(Into::into)).unwrap();
                db.maybe_checkpoint().unwrap();
            }
            acct.committed_balance()
        };
        truncate_tail(&dir, cut).unwrap();

        // The recover phase: open and ask. Nothing else.
        let db = Db::builder().env_overrides().open(&dir).unwrap();
        let acct = db.object::<AccountObject>("acct").unwrap();
        let got = acct.committed_balance();

        let prefix_sums: Vec<Rational> = (0..=TXNS)
            .scan(Rational::ZERO, |acc, n| {
                *acc += money(n);
                Some(*acc)
            })
            .collect();
        assert!(
            prefix_sums.contains(&got),
            "recovered balance {got} is not any commit prefix (cut {cut})"
        );
        if cut == 0 {
            assert_eq!(got, full_balance, "clean shutdown loses nothing");
            assert!(!db.recovery_report().torn_tail);
        }
        // The checkpoint policy fired during the run; everything it
        // covered must survive every cut (the checkpoint file itself is
        // out of a WAL tail cut's reach). The sequential driver commits
        // txn n at timestamp n, so the watermark indexes the prefix sums
        // directly.
        let ckpt_ts = db.recovery_report().checkpoint_ts;
        assert!(ckpt_ts > 0, "the EveryN policy checkpointed during the run");
        assert!(ckpt_ts <= TXNS as u64);
        assert!(
            got >= prefix_sums[ckpt_ts as usize],
            "cut {cut} lost checkpoint-covered commits: balance {got} < prefix through ts {ckpt_ts}"
        );
    }
}

/// A checkpoint racing the opens of the last logged names sees the
/// object table whole: it is refused while any logged name is unopened,
/// or it snapshots every name, in sorted order — never a checkpoint
/// that covers one name's history and prunes the other's. Each round
/// reopens the directory, so both names come back logged (from the
/// previous round's checkpoint and tail) and race again.
#[test]
fn a_checkpoint_racing_the_last_open_sees_every_name_or_none() {
    const ROUNDS: i64 = 6;
    let dir = tmp("ckpt-race");
    {
        let db = Db::builder().env_overrides().open(&dir).unwrap();
        let (a, b) =
            (db.object::<AccountObject>("a").unwrap(), db.object::<AccountObject>("b").unwrap());
        db.transact(|tx| {
            a.credit(tx, money(3))?;
            b.credit(tx, money(4))?;
            Ok(())
        })
        .unwrap();
    }
    for _ in 0..ROUNDS {
        let db = Db::builder().env_overrides().open(&dir).unwrap();
        assert_eq!(db.unopened_objects(), ["a", "b"]);
        let opened = AtomicBool::new(false);
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                while !opened.load(Ordering::Acquire) {
                    match db.checkpoint() {
                        Ok(Some(ckpt)) => {
                            let names: Vec<&str> =
                                ckpt.objects.iter().map(|(n, _)| n.as_str()).collect();
                            assert_eq!(names, ["a", "b"], "a checkpoint saw part of the table");
                        }
                        Err(HccError::Storage(StorageError::UnabsorbedHistory { .. })) => {}
                        other => panic!("unexpected checkpoint outcome: {other:?}"),
                    }
                }
            });
            start.wait();
            db.object::<AccountObject>("b").unwrap();
            db.object::<AccountObject>("a").unwrap();
            opened.store(true, Ordering::Release);
        });
        let ckpt = db.checkpoint().unwrap().expect("a durable Db checkpoints");
        let names: Vec<&str> = ckpt.objects.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        let (a, b) =
            (db.object::<AccountObject>("a").unwrap(), db.object::<AccountObject>("b").unwrap());
        db.transact(|tx| {
            a.credit(tx, money(1))?;
            b.credit(tx, money(1))?;
            Ok(())
        })
        .unwrap();
    }
    let db = Db::builder().env_overrides().open(&dir).unwrap();
    assert_eq!(db.object::<AccountObject>("a").unwrap().committed_balance(), money(3 + ROUNDS));
    assert_eq!(db.object::<AccountObject>("b").unwrap().committed_balance(), money(4 + ROUNDS));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The escape hatch and the facade interoperate: transactions begun
/// manually on `db.manager()` and scoped `transact` calls land in one
/// log, and a fresh `Db::open` recovers the union.
#[test]
fn manual_escape_hatch_and_transact_share_one_log() {
    let dir = tmp("hatch");
    {
        let db = Db::builder().env_overrides().open(&dir).unwrap();
        let acct = db.object::<AccountObject>("acct").unwrap();
        db.transact(|tx| acct.credit(tx, money(10)).map_err(Into::into)).unwrap();
        // Low-level interleaving through the documented escape hatch.
        let mgr = db.manager();
        let t1 = mgr.begin();
        let t2 = mgr.begin();
        acct.credit(&t1, money(5)).unwrap();
        acct.credit(&t2, money(7)).unwrap();
        mgr.commit(t2).unwrap();
        mgr.commit(t1).unwrap();
        db.transact(|tx| acct.credit(tx, money(1)).map_err(Into::into)).unwrap();
    }
    let db = Db::builder().env_overrides().open(&dir).unwrap();
    let acct = db.object::<AccountObject>("acct").unwrap();
    assert_eq!(acct.committed_balance(), money(23));
    assert_eq!(db.recovery_report().replayed, 4);
}

/// A transaction logs its operations and its commit, and nothing else: a
/// two-op transfer is `Op` + `Op` + `Commit` (plus a `Register` for an
/// account's first use), with no `Begin` record anywhere. Commit records
/// certify themselves, so a log an older build wrote with a `Begin`
/// record per transaction recovers all the same.
#[test]
fn a_transaction_writes_no_begin_record() {
    let dir = tmp("no-begin");
    let kinds = || -> Vec<&'static str> {
        let (records, _) = read_records(&dir).unwrap();
        records
            .iter()
            .map(|(_, rec)| match rec {
                LogRecord::Begin { .. } => "Begin",
                LogRecord::Op { .. } => "Op",
                LogRecord::Commit { .. } => "Commit",
                LogRecord::Abort { .. } => "Abort",
                LogRecord::Register { .. } => "Register",
            })
            .collect()
    };
    {
        let db = Db::builder().env_overrides().open(&dir).unwrap();
        let from = db.object::<AccountObject>("from").unwrap();
        let to = db.object::<AccountObject>("to").unwrap();
        db.transact(|tx| from.credit(tx, money(10)).map_err(Into::into)).unwrap();
        db.transact(|tx| {
            assert!(from.debit(tx, money(4))?);
            to.credit(tx, money(4))?;
            Ok(())
        })
        .unwrap();
    }
    // In ticket order: an op's ticket is reserved under its object's
    // latch, before the first use's `Register` draws one.
    let transfer = ["Op", "Op", "Register", "Commit"];
    assert_eq!(kinds(), [&["Op", "Register", "Commit"][..], &transfer].concat());

    {
        let db = Db::builder().env_overrides().open(&dir).unwrap();
        let to = db.object::<AccountObject>("to").unwrap();
        let t = db.manager().begin();
        db.storage().unwrap().log_begin(t.id().0).unwrap();
        to.credit(&t, money(1)).unwrap();
        db.manager().commit(t).unwrap();
    }
    assert_eq!(kinds().iter().filter(|k| **k == "Begin").count(), 1);
    let db = Db::builder().env_overrides().open(&dir).unwrap();
    assert_eq!(db.object::<AccountObject>("from").unwrap().committed_balance(), money(6));
    assert_eq!(db.object::<AccountObject>("to").unwrap().committed_balance(), money(5));
    assert_eq!(db.recovery_report().replayed, 3);
}
