//! Crash recovery through the write-ahead log: replaying the committed
//! operations in timestamp order rebuilds the committed state — which is
//! exactly the serialization order hybrid atomicity guarantees.
//!
//! Everything here runs against the `hcc-storage` durable store
//! (segmented CRC-framed WAL + checkpoints + compaction) and recovers
//! through `Db::open`, including the randomized kill-point property test.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::fifo_queue::QueueObject;
use hybrid_cc::spec::Rational;
use hybrid_cc::storage::record::decode_all;
use hybrid_cc::storage::{
    CompactionPolicy, Durability, DurableObject, DurableStore, LogRecord, StorageError,
    StorageOptions,
};
use hybrid_cc::workload::crash::{
    crash_point_holds, recover_and_verify, run_crash_workload, CrashScenarioOptions,
};
use hybrid_cc::Db;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

mod common;
use common::Tmp;

fn tmp(name: &str) -> Tmp {
    Tmp::new("hcc-recovery", name)
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// Drive a durable banking session through `db.manager()`; returns the
/// live state.
///
/// Note what is *absent*: no logging call anywhere. The `Db` builds the
/// objects over its store, so every mutating operation serializes its
/// own redo record into the WAL.
fn run_durable_session(dir: &Path) -> (Rational, usize) {
    let db = Db::open(dir).unwrap();
    let acct = db.object::<AccountObject>("acct").unwrap();
    let queue = db.object::<QueueObject<i64>>("q").unwrap();
    let mgr = db.manager();

    let run = |ops: Vec<(&str, i64)>, commit: bool| {
        let t = mgr.begin();
        for (kind, v) in ops {
            match kind {
                "credit" => {
                    acct.credit(&t, money(v)).unwrap();
                }
                "debit" => {
                    acct.debit(&t, money(v)).unwrap();
                }
                "enq" => {
                    queue.enq(&t, v).unwrap();
                }
                other => panic!("unknown op {other}"),
            }
        }
        if commit {
            mgr.commit(t).unwrap();
        } else {
            mgr.abort(t);
        }
    };

    run(vec![("credit", 100), ("enq", 1)], true);
    run(vec![("credit", 999)], false); // aborted: must not recover
    run(vec![("debit", 30), ("enq", 2)], true);
    run(vec![("credit", 5)], true);
    (acct.committed_balance(), queue.committed_len())
}

#[test]
fn durable_store_recovery_rebuilds_committed_state() {
    let dir = tmp("store-basic");
    let (balance, qlen) = run_durable_session(&dir);
    assert_eq!(balance, money(75));
    assert_eq!(qlen, 2);
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!(state.balance, balance);
    assert_eq!(state.queue.len(), qlen);
}

#[test]
fn durable_store_survives_torn_final_record() {
    let dir = tmp("store-torn");
    let (balance, qlen) = run_durable_session(&dir);
    // Crash mid-append: write half a frame at the tail of the last
    // segment.
    let segments = hybrid_cc::storage::wal::segments(&dir).unwrap();
    let last = &segments.last().unwrap().1;
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(last).unwrap();
        f.write_all(&[0x20, 0x00, 0x00, 0x00, 0xAB]).unwrap(); // torn header
    }
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!(state.balance, balance);
    assert_eq!(state.queue.len(), qlen);
}

#[test]
fn recovery_is_idempotent() {
    let dir = tmp("store-idem");
    let _ = run_durable_session(&dir);
    let first = recover_and_verify(&dir).unwrap();
    let second = recover_and_verify(&dir).unwrap();
    assert_eq!(first, second, "a second recovery of the same log rebuilds the same state");
}

#[test]
fn durable_store_reports_commit_with_missing_ops_as_incomplete() {
    let dir = tmp("store-missing");
    {
        let store = DurableStore::open(
            &dir,
            StorageOptions { segment_max_bytes: 128, ..StorageOptions::default() },
        )
        .unwrap()
        .0;
        // Establish history and a checkpoint, so the registry binding for
        // "acct" survives in the checkpoint file no matter which segments
        // disappear.
        let acct = Db::in_memory().object::<AccountObject>("acct").unwrap();
        store.log_op(1, "acct", br#"{"op":"credit","v":{"den":1,"num":7}}"#).unwrap();
        store.log_commit(1, 1).unwrap();
        let cursor = store.checkpoint_begin().unwrap();
        let image = acct.snapshot_at(cursor.last_ts).unwrap();
        store.checkpoint_finish(&cursor, vec![("acct".into(), image)]).unwrap();
        // Txn 2's op record lands in the post-checkpoint segment...
        store.log_op(2, "acct", br#"{"op":"credit","v":{"den":1,"num":9}}"#).unwrap();
        for filler in 3..20 {
            store.log_op(filler, "acct", &[0u8; 64]).unwrap();
            store.log_abort(filler).unwrap();
        }
        // ...and its commit record in a later one.
        store.log_commit(2, 10).unwrap();
    }
    // Delete the segment holding txn 2's op behind the store's back
    // (simulating a pruning bug or lost file): the commit record's
    // stamped op count (1) exceeds the surviving ops (0), so recovery
    // must drop txn 2 and *report* it — never replay half of it and
    // never refuse the rest of the log.
    let segments = hybrid_cc::storage::wal::segments(&dir).unwrap();
    assert!(segments.len() > 1, "scenario needs several segments");
    let (_, holding_op) = segments
        .iter()
        .find(|(_, path)| {
            let (records, _) = decode_all(&std::fs::read(path).unwrap());
            records.iter().any(|(_, rec)| matches!(rec, LogRecord::Op { txn: 2, .. }))
        })
        .expect("txn 2's op record is on disk");
    std::fs::remove_file(holding_op).unwrap();
    let recovered = DurableStore::recover(&dir).unwrap();
    assert_eq!(recovered.incomplete, vec![2], "txn 2's effects are reported lost");
    assert!(
        recovered.committed.iter().all(|t| t.txn != 2),
        "txn 2 must not replay half-recovered: {:?}",
        recovered.committed
    );
}

#[test]
fn durable_store_refuses_ops_whose_registry_binding_is_lost() {
    let dir = tmp("store-unregistered");
    {
        let store = DurableStore::open(
            &dir,
            StorageOptions { segment_max_bytes: 128, ..StorageOptions::default() },
        )
        .unwrap()
        .0;
        // The Register record for "acct" lands in the first segment with
        // the first op; later segments hold ops referencing its id.
        for txn in 1..20 {
            store.log_op(txn, "acct", &[0u8; 64]).unwrap();
            store.log_commit(txn, txn).unwrap();
        }
    }
    // Losing the first segment loses the binding (no checkpoint carried
    // it): recovery must refuse rather than guess which object the
    // surviving ops belong to.
    let segments = hybrid_cc::storage::wal::segments(&dir).unwrap();
    assert!(segments.len() > 1, "scenario needs several segments");
    std::fs::remove_file(&segments[0].1).unwrap();
    match DurableStore::recover(&dir) {
        Err(StorageError::UnknownObjectId { id: 1, .. }) => {}
        other => panic!("expected UnknownObjectId, got {other:?}"),
    }
}

#[test]
fn replay_orders_interleaved_transactions_by_timestamp() {
    let dir = tmp("store-interleaved");
    {
        let db = Db::open(&dir).unwrap();
        let (acct, mgr) = (db.object::<AccountObject>("acct").unwrap(), db.manager());
        // Two transactions with interleaved (self-logged) op records;
        // t_late begins first but commits second. Replay must apply
        // credit(10) then debit(60): debiting first would overdraft and
        // fail replay with a divergence.
        let t_late = mgr.begin();
        let t_early = mgr.begin();
        acct.credit(&t_early, money(10)).unwrap();
        acct.credit(&t_late, money(50)).unwrap();
        mgr.commit(t_early).unwrap();
        let ok = acct.debit(&t_late, money(60)).unwrap();
        assert!(ok);
        mgr.commit(t_late).unwrap();
    }
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!(state.balance, money(0));
    assert_eq!(state.tail_ts.len(), 2);
    assert!(state.tail_ts[0] < state.tail_ts[1], "replay is timestamp-ordered");
}

#[test]
fn checkpoint_plus_tail_equals_full_replay() {
    let opts = CrashScenarioOptions { seed: 0xE0_0A11, ..CrashScenarioOptions::default() };
    // Same deterministic workload, once compacting every 10 commits, once
    // never compacting.
    let dir_ckpt = tmp("store-eq-ckpt");
    let w1 =
        run_crash_workload(&dir_ckpt, CrashScenarioOptions { checkpoint_every: Some(10), ..opts })
            .unwrap();
    assert!(w1.checkpoints >= 2, "checkpointing run must actually checkpoint");
    let dir_full = tmp("store-eq-full");
    let w2 = run_crash_workload(&dir_full, opts).unwrap();
    assert_eq!(w1.oracle, w2.oracle, "same seed, same committed effects");

    let from_ckpt = recover_and_verify(&dir_ckpt).unwrap();
    let from_full = recover_and_verify(&dir_full).unwrap();
    assert_eq!(from_ckpt.balance, from_full.balance);
    assert_eq!(from_ckpt.queue, from_full.queue);
    assert!(from_ckpt.checkpoint_ts > 0);
    assert_eq!(from_full.checkpoint_ts, 0);
    assert!(
        from_ckpt.tail_ts.len() < from_full.tail_ts.len(),
        "checkpointed recovery replays a strictly shorter tail"
    );
}

/// The acceptance property: randomized workloads of transactional
/// mutations — with **no explicit logging call anywhere** (the objects
/// self-log through the manager) — killed at arbitrary crash points
/// recover exactly the committed prefix, checked against the oracle and
/// `hcc-verify`'s hybrid atomicity inside `crash_point_holds`. Forgetting
/// to log is no longer expressible. `HCC_DURABILITY` (CI matrix) selects
/// the durability level.
#[test]
fn randomized_crash_points_recover_exactly_the_committed_state() {
    for seed in [1u64, 7, 42, 1234, 0xDEAD] {
        for (i, cut) in [0u64, 13, 97, 256, 911, 4096].into_iter().enumerate() {
            let dir = tmp(&format!("store-prop-{seed}-{i}"));
            for checkpoint_every in [None, Some(12)] {
                let dir = dir.join(format!("ck{}", checkpoint_every.is_some()));
                let opts = CrashScenarioOptions {
                    seed,
                    txns: 60,
                    checkpoint_every,
                    ..CrashScenarioOptions::default()
                }
                .env_overrides();
                let (committed, survived) = crash_point_holds(&dir, opts, cut).unwrap();
                assert!(survived <= committed);
                if cut == 0 {
                    assert_eq!(survived, committed, "no cut, no loss (seed {seed})");
                }
            }
        }
    }
}

/// Real byte loss at the log's tail: `crash_point_holds` verifies that
/// whatever survives is a timestamp prefix, consistent with the oracle
/// fold, response-pinned on replay and hybrid atomic.
#[test]
fn tail_suffix_loss_recovers_consistently() {
    for (i, cut) in [60u64, 300, 1500].into_iter().enumerate() {
        let dir = tmp(&format!("cut-{i}"));
        let opts = CrashScenarioOptions { seed: 0x5EED + i as u64, txns: 70, ..Default::default() };
        let (committed, survived) = crash_point_holds(&dir, opts, cut).unwrap();
        assert!(survived <= committed);
    }
}

/// Fuzzy checkpoints under randomized crash points: checkpointing every
/// few commits, then cutting the tail, still recovers exactly a
/// committed prefix.
#[test]
fn fuzzy_checkpoints_survive_random_crash_points() {
    for (i, cut) in [0u64, 40, 512].into_iter().enumerate() {
        let dir = tmp(&format!("ckpt-cut-{i}"));
        let opts = CrashScenarioOptions {
            seed: 0xF0F0 + i as u64,
            txns: 80,
            checkpoint_every: Some(12),
            ..Default::default()
        }
        .env_overrides();
        let (committed, survived) = crash_point_holds(&dir, opts, cut).unwrap();
        assert!(survived <= committed);
        if cut == 0 {
            assert_eq!(survived, committed, "no cut, no loss");
        }
    }
}

/// A fuzzy checkpoint taken while four Fsync workers commit holds the
/// commit gate only briefly — no I/O happens under it, so even a loaded
/// box stays far below 50 ms — and `Db::open` then recovers every
/// committed balance from the checkpoint image plus the tail.
#[test]
fn mid_run_checkpoint_gate_is_brief_and_every_commit_recovers() {
    let dir = tmp("ckpt-gate");
    let (threads, txns) = (4, 60);
    let db = Db::builder()
        .durability(Durability::Fsync)
        .compaction(CompactionPolicy::never())
        .open(&dir)
        .unwrap();
    let accts: Vec<Arc<AccountObject>> =
        (0..threads).map(|i| db.object(&format!("acct-{i}")).unwrap()).collect();
    let committed = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for (w, acct) in accts.iter().enumerate() {
            let (db, committed) = (&db, &committed);
            s.spawn(move || {
                for i in 0..txns {
                    db.transact(|tx| {
                        for k in 0..4 {
                            let v = money(((w + i + k) % 40 + 1) as i64);
                            if k == 3 {
                                acct.debit(tx, v)?;
                            } else {
                                acct.credit(tx, v)?;
                            }
                        }
                        Ok(())
                    })
                    .unwrap();
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        while committed.load(Ordering::Relaxed) < threads * txns / 2 {
            std::thread::yield_now();
        }
        db.checkpoint().unwrap().expect("durable store");
    });
    assert_eq!(db.committed_count(), 240);
    let gate = db.stats().gauge("ckpt.last_gate_nanos") as u64;
    assert!(gate > 0 && gate < 50_000_000, "gate held {gate} ns");
    let balances: Vec<Rational> = accts.iter().map(|a| a.committed_balance()).collect();
    drop((accts, db));

    let ckpt = DurableStore::recover(&dir).unwrap().checkpoint.expect("mid-run checkpoint");
    assert!(ckpt.last_ts > 0);
    let db = Db::open(&dir).unwrap();
    assert_eq!(db.recovery_report().checkpoint_ts, ckpt.last_ts);
    for (i, want) in balances.iter().enumerate() {
        let acct = db.object::<AccountObject>(&format!("acct-{i}")).unwrap();
        assert_eq!(acct.committed_balance(), *want, "account {i} diverged after recovery");
    }
}

#[test]
fn snapshot_restore_is_what_checkpoint_recovery_uses() {
    // A checkpoint taken mid-run restores into fresh objects bit-for-bit.
    let dir = tmp("store-snapshot");
    let db = Db::open(&dir).unwrap();
    let acct = db.object::<AccountObject>("acct").unwrap();
    db.transact(|tx| acct.credit(tx, money(123)).map_err(Into::into)).unwrap();
    let ckpt = db.checkpoint().unwrap().expect("store attached");
    let fresh = Db::in_memory().object::<AccountObject>("fresh").unwrap();
    fresh.restore(&ckpt.objects[0].1, ckpt.last_ts).unwrap();
    assert_eq!(fresh.committed_balance(), money(123));
}

#[test]
fn uncommitted_tail_transaction_is_dropped() {
    let dir = tmp("store-uncommitted");
    let (balance, _) = run_durable_session(&dir);
    // A transaction that logged ops but crashed before its commit record.
    {
        let store = DurableStore::open(&dir, StorageOptions::default()).unwrap().0;
        store.log_op(500, "acct", br#"{"op":"credit","v":{"den":1,"num":1000}}"#).unwrap();
        // no completion record: the crash hit between phases.
    }
    let recovered = DurableStore::recover(&dir).unwrap();
    assert!(recovered.in_doubt.iter().any(|t| t.txn == 500), "the tail transaction reached disk");
    let state = recover_and_verify(&dir).unwrap();
    assert_eq!(state.balance, balance, "uncommitted operations must not be replayed");
}
