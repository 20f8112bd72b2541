//! The self-logging discipline, end to end:
//!
//! * the self-logged records, held **byte for byte** against the
//!   workload's oracle on the randomized bank/queue crash workloads (one
//!   dropped, duplicated or reordered record fails);
//! * forget-to-log is **unrepresentable**: a session that never mentions
//!   logging still recovers every acknowledged commit;
//! * the recover-then-continue lifecycle through `Db::open` with
//!   caller-built objects on the manual `TxnManager` escape hatch
//!   (including the checkpoint-absorption guard clearing).
//!
//! `HCC_DURABILITY` (buffered / fsync) overrides the durability level —
//! CI runs this suite as a matrix over both.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::fifo_queue::QueueObject;
use hybrid_cc::spec::Rational;
use hybrid_cc::storage::{CommittedTxn, DurableStore, Recovered, StorageOptions};
use hybrid_cc::workload::crash::{
    crash_point_holds, effect_redo, run_crash_workload, truncate_tail, CrashScenarioOptions,
    Effect, Oracle,
};
use hybrid_cc::{Db, HccError};

mod common;
use common::Tmp;

fn tmp(name: &str) -> Tmp {
    Tmp::new("hcc-selflog", name)
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// Timestamp of the first committed transaction in `recovered` whose
/// logged records are not exactly `oracle[ts].map(effect_redo)` — same
/// objects, same payload bytes, same order; `None` when the log carries
/// the oracle's effects and nothing else.
fn first_divergence(oracle: &Oracle, recovered: &Recovered) -> Option<u64> {
    let diverges = |c: &&CommittedTxn| {
        let expected = oracle.get(&c.ts).into_iter().flatten().map(effect_redo);
        !expected.map(|(object, bytes)| (object.to_string(), bytes)).eq(c.ops.iter().cloned())
    };
    recovered.committed.iter().find(diverges).map(|c| c.ts)
}

/// Self-logging writes exactly what was executed: for every seed and
/// crash point, each committed transaction the log recovers carries the
/// oracle's effects for its timestamp, encoded independently through
/// `effect_redo` — byte for byte and in execution order.
#[test]
fn self_logged_records_are_exactly_the_oracles_effects() {
    for seed in [3u64, 99, 0xBEEF] {
        for cut in [0u64, 150, 1024] {
            let opts =
                CrashScenarioOptions { seed, txns: 80, ..Default::default() }.env_overrides();
            let dir = tmp(&format!("oracle-{seed}-{cut}"));
            let w = run_crash_workload(&dir, opts).unwrap();
            truncate_tail(&dir, cut).unwrap();
            let recovered = DurableStore::recover(&dir).unwrap();
            assert_eq!(
                first_divergence(&w.oracle, &recovered),
                None,
                "log diverged from the oracle (seed {seed}, cut {cut})"
            );
            if cut == 0 {
                assert_eq!(recovered.committed.len(), w.committed, "no cut, no loss (seed {seed})");
            }
        }
    }
}

/// The check above bites: hand-written logs that drop, duplicate or
/// reorder one record of a transaction are each reported, and the
/// faithful log is not.
#[test]
fn dropped_duplicated_or_reordered_records_are_caught() {
    let effects = [Effect::Credit(40), Effect::Enq(7), Effect::DebitOk(15)];
    let oracle: Oracle = [(1, effects.to_vec())].into();
    let logged = |name: &str, order: &[usize]| {
        let dir = tmp(name);
        {
            let store = DurableStore::open(&dir, StorageOptions::default()).unwrap().0;
            for &i in order {
                let (object, bytes) = effect_redo(&effects[i]);
                store.log_op(1, object, &bytes).unwrap();
            }
            store.log_commit(1, 1).unwrap();
        }
        DurableStore::recover(&dir).unwrap()
    };
    assert_eq!(first_divergence(&oracle, &logged("neg-faithful", &[0, 1, 2])), None);
    for (name, order) in [
        ("neg-dropped", &[0, 2][..]),
        ("neg-duplicated", &[0, 1, 1, 2][..]),
        ("neg-reordered", &[0, 2, 1][..]),
    ] {
        let recovered = logged(name, order);
        assert_eq!(recovered.committed.len(), 1, "{name}: the hand-written commit recovers");
        assert!(first_divergence(&oracle, &recovered).is_some(), "{name} went unnoticed");
    }
}

/// Forget-to-log is unrepresentable: this session performs transactional
/// mutations with *no logging call in sight* — there is no API left to
/// forget — crashes at an arbitrary point, and still recovers exactly the
/// committed prefix (hybrid-atomic, oracle-checked inside
/// `crash_point_holds`).
#[test]
fn mutations_with_no_explicit_logging_survive_a_random_kill_point() {
    for (i, cut) in [0u64, 37, 333, 2048].into_iter().enumerate() {
        let dir = tmp(&format!("noforget-{i}"));
        let opts = CrashScenarioOptions {
            seed: 0xF0061 + i as u64,
            txns: 70,
            checkpoint_every: if i % 2 == 0 { Some(10) } else { None },
            ..Default::default()
        }
        .env_overrides();
        let (committed, survived) = crash_point_holds(&dir, opts, cut).unwrap();
        assert!(survived <= committed);
    }
}

/// The recover-then-continue lifecycle on the low-level path: a crashed
/// session's successor opens the database, opens its objects (which
/// arrive recovered), and keeps going through the manual
/// manager — new commits serialize above the recovered history and
/// checkpointing works again (the absorption guard was cleared once
/// every logged name had a live object).
#[test]
fn manager_recovers_registry_and_resumes() {
    let dir = tmp("resume");
    let open = || {
        let db = Db::open(&dir).unwrap();
        let acct = db.object::<AccountObject>("acct").unwrap();
        let queue = db.object::<QueueObject<i64>>("q").unwrap();
        (db, acct, queue)
    };
    let pre_crash_balance;
    {
        let (db, acct, queue) = open();
        let mgr = db.manager();
        for i in 1..=5 {
            let t = mgr.begin();
            acct.credit(&t, money(i * 10)).unwrap();
            queue.enq(&t, i).unwrap();
            mgr.commit(t).unwrap();
        }
        let t = mgr.begin();
        acct.credit(&t, money(1_000_000)).unwrap();
        mgr.abort(t); // aborted: must not resurface after recovery
        pre_crash_balance = acct.committed_balance();
        // Process "dies" here: no checkpoint, no clean handoff.
    }
    {
        let (db, acct, queue) = open();
        assert_eq!(db.recovery_report().replayed, 5);
        assert_eq!(acct.committed_balance(), pre_crash_balance);
        assert_eq!(queue.committed_len(), 5);

        // Continue: new commits stack on top and checkpointing is allowed
        // again (recovery attested absorption).
        let t = db.manager().begin();
        acct.credit(&t, money(7)).unwrap();
        let deq = queue.deq(&t).unwrap();
        assert_eq!(deq, 1, "FIFO head survived recovery");
        db.manager().commit(t).unwrap();
        let ckpt = db.checkpoint().unwrap().expect("store attached");
        assert!(ckpt.last_ts > 0);
        assert_eq!(acct.committed_balance(), pre_crash_balance + money(7));
    }
    // Third generation recovers from the checkpoint alone.
    {
        let (db, acct, queue) = open();
        let report = db.recovery_report();
        assert!(report.checkpoint_ts > 0, "checkpoint restored");
        assert_eq!(report.replayed, 0, "nothing above the checkpoint");
        assert_eq!(acct.committed_balance(), pre_crash_balance + money(7));
        assert_eq!(queue.committed_len(), 4);
    }
}

/// Replay pins every logged response: a log whose effects cannot
/// reproduce (here: a successful debit whose funds are gone because the
/// credit record was lost) is rejected as divergence instead of silently
/// rewriting history.
#[test]
fn divergent_replay_is_refused() {
    let dir = tmp("diverge");
    {
        let store = DurableStore::open(&dir, StorageOptions::default()).unwrap().0;
        // Hand-craft a log claiming a successful debit from an empty
        // account (no prior credit): replay must refuse to "succeed" it.
        store.log_op(1, "acct", br#"{"op":"debit","v":{"den":1,"num":30},"ok":true}"#).unwrap();
        store.log_commit(1, 1).unwrap();
    }
    let db = Db::open(&dir).unwrap();
    match db.object::<AccountObject>("acct") {
        Err(HccError::Recovery(hybrid_cc::txn::registry::RecoveryError::Replay { .. })) => {}
        Err(other) => panic!("expected replay divergence, got {other:?}"),
        Ok(_) => panic!("a divergent log must not materialize"),
    }
}
