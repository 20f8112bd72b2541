//! The wait-free read path, end to end: read-only transactions pin a
//! stable watermark, acquire **zero transactional locks**, stay
//! decoupled from writers, and observe a **consistent prefix** of the
//! commit order — checked against the `hcc-verify` hybrid-atomicity
//! oracle. Pin lifecycle (drop, panic unwind), time-travel reads, the
//! typed below-checkpoint refusal, and reads across a mid-run fuzzy
//! checkpoint are covered here too.
//!
//! `HCC_DURABILITY` overrides the durability level — CI
//! runs this suite once per level.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::counter::CounterObject;
use hybrid_cc::spec::history::HistoryBuilder;
use hybrid_cc::spec::specs::CounterSpec;
use hybrid_cc::spec::{ObjectId, Rational};
use hybrid_cc::verify::{hybrid_atomic, SystemSpecs};
use hybrid_cc::{Db, HccError};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcc-readpath-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// The tentpole claim, measured: a pure-read phase moves the lock
/// manager's counters by exactly zero — no grants, no refusals, no
/// waits — while the read-path counters account for every read.
#[test]
fn snapshot_reads_acquire_zero_locks() {
    let db = Db::in_memory();
    let a = db.object::<AccountObject>("a").unwrap();
    let b = db.object::<AccountObject>("b").unwrap();
    db.transact(|tx| {
        a.credit(tx, money(100))?;
        b.credit(tx, money(50))?;
        Ok(())
    })
    .unwrap();

    let before = db.stats();
    for _ in 0..64 {
        let (va, vb) = db
            .transact_read(|rtx| {
                Ok((rtx.view::<AccountObject>("a")?, rtx.view::<AccountObject>("b")?))
            })
            .unwrap();
        assert_eq!(va, money(100));
        assert_eq!(vb, money(50));
    }
    let delta = db.stats().delta(&before);
    assert_eq!(delta.sum_prefix("lock.grants"), 0, "read-only phase granted a lock");
    assert_eq!(delta.sum_prefix("lock.refusals"), 0, "read-only phase was refused a lock");
    assert_eq!(delta.sum_prefix("lock.waits"), 0, "read-only phase waited on a lock");
    assert_eq!(delta.counter("txn.read_only.begun"), 64);
    assert_eq!(delta.counter("txn.read_only.completed"), 64);
    assert_eq!(db.stats().gauge("horizon.pins"), 0, "no pin outlives its ReadTx");
}

/// Readers racing a writer observe a consistent prefix: every commit
/// increments both counters together, so any snapshot where they differ
/// would be a non-prefix (fractured) read. The observations are then
/// re-checked externally: writers and readers are assembled into one
/// formal history (readers serialized at their pinned watermark) and
/// the `hcc-verify` hybrid-atomicity oracle must accept it.
#[test]
fn concurrent_readers_observe_a_consistent_prefix_of_the_commit_order() {
    const WRITES: u64 = 40;
    const READERS: u64 = 8;
    let db = Arc::new(Db::in_memory());
    let c1 = db.object::<CounterObject>("c1").unwrap();
    let c2 = db.object::<CounterObject>("c2").unwrap();

    let writer = {
        let db = db.clone();
        let (c1, c2) = (c1.clone(), c2.clone());
        std::thread::spawn(move || {
            let mut commit_ts = Vec::with_capacity(WRITES as usize);
            for _ in 0..WRITES {
                let (_, ts) = db
                    .transact_ts(|tx| {
                        c1.inc(tx, 1)?;
                        c2.inc(tx, 1)?;
                        Ok(())
                    })
                    .unwrap();
                commit_ts.push(ts.0);
            }
            commit_ts
        })
    };
    let mut reads = Vec::new();
    while reads.len() < READERS as usize {
        let (w, v1, v2) = db
            .transact_read(|rtx| Ok((rtx.watermark(), rtx.view_of(&*c1)?, rtx.view_of(&*c2)?)))
            .unwrap();
        assert_eq!(v1, v2, "fractured read: counters diverge at watermark {w}");
        reads.push((w, v1, v2));
        std::thread::yield_now();
    }
    let commit_ts = writer.join().unwrap();

    // Every observed count equals the number of commits at or below the
    // watermark — the prefix, no more, no less.
    for &(w, v1, _) in &reads {
        let prefix = commit_ts.iter().filter(|&&ts| ts <= w).count() as i64;
        assert_eq!(v1, prefix, "watermark {w} should expose exactly {prefix} commits");
    }

    // External check: assemble the *serialized* history — every
    // transaction's events emitted in commit-timestamp order, writer
    // timestamps scaled by 10 so each reader fits strictly between its
    // watermark and the next commit. (Emitting in timestamp order
    // matters: a reader can respond before a concurrent writer with a
    // higher timestamp finishes, so appending all writers first would
    // fabricate precedes edges the execution never had.) The
    // hybrid-atomicity oracle accepts iff every read observed exactly
    // its watermark's prefix.
    // (scaled commit ts, txn id, Some(observed counter pair) for reads).
    type Entry = (u64, u64, Option<(i64, i64)>);
    let mut entries: Vec<Entry> = Vec::new();
    for (i, &ts) in commit_ts.iter().enumerate() {
        entries.push((10 * ts, i as u64 + 1, None));
    }
    for (j, &(w, v1, v2)) in reads.iter().enumerate() {
        entries.push((10 * w + 1 + j as u64, 1_000_000 + j as u64, Some((v1, v2))));
    }
    entries.sort_by_key(|&(ts, _, _)| ts);
    let mut hb = HistoryBuilder::new();
    for (ts, txn, read) in entries {
        hb = match read {
            None => hb.op(0, txn, CounterSpec::inc(1), hybrid_cc::spec::Value::Unit).op(
                1,
                txn,
                CounterSpec::inc(1),
                hybrid_cc::spec::Value::Unit,
            ),
            Some((v1, v2)) => {
                hb.op(0, txn, CounterSpec::read(), v1).op(1, txn, CounterSpec::read(), v2)
            }
        }
        .commit(0, txn, ts)
        .commit(1, txn, ts);
    }
    let history = hb.build();
    history.well_formed().expect("assembled history is well formed");
    let specs = SystemSpecs::new()
        .with(ObjectId(0), Arc::new(CounterSpec))
        .with(ObjectId(1), Arc::new(CounterSpec));
    assert!(
        hybrid_atomic(&history, &specs),
        "snapshot reads are not serializable at their watermarks:\n{history:?}"
    );
}

/// Time-travel: while a pin holds folding back, `read_at(ts)` exposes
/// each historical image — and the refusal modes are typed. Above the
/// stable watermark is the *transient* contended error; an image the
/// (eager) fold has already consumed is the *fatal* compacted error —
/// never a silently newer answer.
#[test]
fn read_at_exposes_history_and_refuses_out_of_range_timestamps() {
    let db = Db::in_memory();
    let a = db.object::<AccountObject>("a").unwrap();
    // Each read_at pins its timestamp before the next commit, so folding
    // stays below the oldest live pin and every image stays readable.
    let mut pinned = Vec::new();
    for amount in [10, 20, 30] {
        let (_, ts) = db.transact_ts(|tx| a.credit(tx, money(amount)).map_err(Into::into)).unwrap();
        pinned.push(db.read_at(ts.0).unwrap());
    }
    for (i, rtx) in pinned.iter().enumerate() {
        let total = money([10, 30, 60][i]);
        assert_eq!(rtx.view_of(&*a).unwrap(), total, "image at ts {}", rtx.watermark());
    }
    let newest = pinned.last().unwrap().watermark();
    let future = newest + 100;
    match db.read_at(future) {
        Err(e @ HccError::SnapshotContended { .. }) => {
            assert!(e.is_transient(), "above-watermark refusal must be retriable")
        }
        other => panic!("expected SnapshotContended, got {other:?}"),
    };
    // Drop the pins oldest-first and let the fold catch up: the oldest
    // image is then genuinely gone, and asking for it is the fatal,
    // typed refusal.
    let oldest = pinned.first().unwrap().watermark();
    drop(pinned);
    db.transact(|tx| a.credit(tx, money(1)).map_err(Into::into)).unwrap();
    db.transact(|tx| a.credit(tx, money(1)).map_err(Into::into)).unwrap();
    let rtx = db.read_at(oldest).expect("pinning a folded timestamp is caught at view time");
    match rtx.view_of(&*a) {
        Err(e @ HccError::SnapshotCompacted { .. }) => {
            assert!(!e.is_transient(), "the folded image never comes back")
        }
        other => panic!("expected SnapshotCompacted, got {other:?}"),
    };
}

/// Below-checkpoint reads are refused with the typed fatal error: the
/// checkpoint folded that history into its image, so no object can
/// reconstruct the older state — and must say so rather than answer
/// with a newer balance.
#[test]
fn read_at_below_the_checkpoint_watermark_is_a_typed_fatal_error() {
    let dir = tmp("below-ckpt");
    let (ts_old, ckpt_ts) = {
        let db = Db::open(&dir).unwrap();
        let a = db.object::<AccountObject>("a").unwrap();
        let (_, ts_old) = db.transact_ts(|tx| a.credit(tx, money(5)).map_err(Into::into)).unwrap();
        db.transact(|tx| a.credit(tx, money(5)).map_err(Into::into)).unwrap();
        let ckpt = db.checkpoint().unwrap().expect("durable db checkpoints");
        (ts_old.0, ckpt.last_ts)
    };
    assert!(ts_old < ckpt_ts);
    let db = Db::open(&dir).unwrap();
    let a = db.object::<AccountObject>("a").unwrap();
    assert_eq!(a.committed_balance(), money(10), "recovered from the checkpoint");
    match db.read_at(ts_old) {
        Err(e @ HccError::SnapshotCompacted { .. }) => {
            assert!(!e.is_transient(), "the folded image never comes back")
        }
        other => panic!("expected SnapshotCompacted, got {other:?}"),
    };
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader whose watermark predates a mid-run fuzzy checkpoint keeps
/// observing its pinned (ts0) image: the checkpoint proceeds at its own
/// watermark without waiting for the reader, and the reader's pin keeps
/// its snapshot exact across the checkpoint.
#[test]
fn snapshot_reads_survive_a_mid_run_fuzzy_checkpoint() {
    let dir = tmp("mid-ckpt");
    let db = Db::open(&dir).unwrap();
    let a = db.object::<AccountObject>("a").unwrap();
    db.transact(|tx| a.credit(tx, money(42)).map_err(Into::into)).unwrap();

    let rtx = db.begin_read();
    assert_eq!(rtx.view_of(&*a).unwrap(), money(42));
    for _ in 0..3 {
        db.transact(|tx| a.credit(tx, money(1)).map_err(Into::into)).unwrap();
    }
    db.checkpoint().unwrap().expect("checkpoint completes under a live reader pin");
    assert_eq!(
        rtx.view_of(&*a).unwrap(),
        money(42),
        "the pre-checkpoint reader still sees its ts0 image"
    );
    drop(rtx);
    assert_eq!(a.committed_balance(), money(45));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader and a fuzzy checkpoint hold one shared registry down at two
/// watermarks while commits keep landing: the checkpoint image is the
/// fold at its watermark, the reader's views the fold at its own, both
/// pins are gone once their guards drop, and the next commit at each
/// object then folds the backlog they held.
#[test]
fn a_reader_and_a_checkpoint_pin_one_registry_at_two_watermarks() {
    use hybrid_cc::storage::{DurableObject, DurableStore};
    use std::sync::atomic::{AtomicBool, Ordering};

    let dir = tmp("two-pins");
    let db = Db::open(&dir).unwrap();
    let (a, b) =
        (db.object::<AccountObject>("a").unwrap(), db.object::<AccountObject>("b").unwrap());
    // Commit `k` credits `a` by k and `b` by 2k; the ledger keeps (ts, k).
    let credit = |k: i64| {
        let (_, ts) = db
            .transact_ts(|tx| {
                a.credit(tx, money(k))?;
                b.credit(tx, money(2 * k)).map_err(Into::into)
            })
            .unwrap();
        (ts.0, k)
    };
    let fold = |ledger: &[(u64, i64)], w: u64| {
        money(ledger.iter().filter(|(ts, _)| *ts <= w).map(|(_, k)| k).sum())
    };
    let mut ledger: Vec<_> = (1..=5).map(&credit).collect();

    let rtx = db.begin_read();
    let stop = AtomicBool::new(false);
    let ckpt = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            (6..).take_while(|_| !stop.load(Ordering::Relaxed)).map(&credit).collect::<Vec<_>>()
        });
        let landed = |n| db.committed_count() >= n || writer.is_finished();
        while !landed(15) {
            std::thread::yield_now();
        }
        let ckpt = db.checkpoint().unwrap().expect("durable db checkpoints");
        let after = db.committed_count() + 10;
        while !landed(after) {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        ledger.extend(writer.join().unwrap());
        ckpt
    });
    let (w_r, w_c) = (rtx.watermark(), ckpt.last_ts);
    assert!(w_r < w_c && ledger.iter().any(|(ts, _)| *ts > w_c), "commits on both sides");
    assert_eq!(rtx.view::<AccountObject>("a").unwrap(), fold(&ledger, w_r), "a at w_r");
    assert_eq!(rtx.view::<AccountObject>("b").unwrap(), fold(&ledger, w_r) * money(2));
    assert_eq!(db.stats().gauge("horizon.pins"), 1, "the checkpoint dropped its pin");
    drop(rtx);
    assert_eq!(db.stats().gauge("horizon.pins"), 0, "both guards dropped");
    ledger.push(credit(1000));
    for obj in [&a, &b] {
        assert!(obj.inner().retained_committed() <= 1, "the next commit folded the backlog");
    }
    drop((a, b, db));

    let image = DurableStore::recover(&dir).unwrap().checkpoint.expect("a checkpoint on disk");
    for (name, bytes) in &image.objects {
        let restored = Db::in_memory().object::<AccountObject>(name).unwrap();
        restored.restore(bytes, w_c).unwrap();
        let factor = money(if name == "a" { 1 } else { 2 });
        assert_eq!(restored.committed_balance(), fold(&ledger, w_c) * factor, "image of {name}");
    }
    let db = Db::open(&dir).unwrap();
    let full = fold(&ledger, u64::MAX);
    assert_eq!(db.object::<AccountObject>("b").unwrap().committed_balance(), full * money(2));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pin lifecycle: dropping a `ReadTx` releases its pin, and a panic
/// unwinding through a read closure releases it too — an abandoned
/// reader can never wedge compaction.
#[test]
fn dropped_and_panicked_readers_release_their_pins() {
    let db = Db::in_memory();
    let a = db.object::<AccountObject>("a").unwrap();
    db.transact(|tx| a.credit(tx, money(1)).map_err(Into::into)).unwrap();

    let rtx = db.begin_read();
    assert_eq!(db.stats().gauge("horizon.pins"), 1);
    drop(rtx);
    assert_eq!(db.stats().gauge("horizon.pins"), 0);

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = db.transact_read(|rtx| {
            let _ = rtx.view_of(&*a)?;
            panic!("reader died mid-snapshot");
            #[allow(unreachable_code)]
            Ok(())
        });
    }));
    assert!(unwound.is_err(), "the panic propagates");
    assert_eq!(db.stats().gauge("horizon.pins"), 0, "unwind released the pin");
    let begun = db.stats().counter("txn.read_only.begun");
    let completed = db.stats().counter("txn.read_only.completed");
    assert_eq!(begun, completed, "every begun read completed, panics included");
}

/// A lagging replica answers reads at its *own* watermark. Replicated
/// commits keep landing above the watermark the primary has proven safe;
/// unless that watermark is a standing fold floor, the newest of them
/// folds the others into the base version and every read at the
/// watermark is refused as stale until the next sample arrives — the
/// cause of the `replica_reads` "a client lost its read replica" flake,
/// reproduced here without a network.
#[test]
fn lagging_replica_reads_at_its_own_watermark() {
    use hybrid_cc::adts::account::{AccountAdt, AccountInv, AccountRes};
    use hybrid_cc::core::runtime::RuntimeAdt;
    use hybrid_cc::storage::DurableObject;

    let db = Db::in_memory();
    let acct = db.object::<AccountObject>("acct").unwrap();
    let credit = AccountAdt.redo(&AccountInv::Credit(money(1)), &AccountRes::Ok).unwrap();
    let apply = |txn, ts| {
        let ops = [(acct.clone() as Arc<dyn DurableObject>, vec![credit.clone()])];
        db.manager().apply_replicated(txn, ts, &ops).unwrap();
    };
    // One sample lands, then the stream runs ahead of the next one.
    apply(1, 5);
    db.manager().witness_replicated_watermark(5);
    apply(2, 9);
    apply(3, 12);
    for (watermark, balance) in [(5, 1), (9, 2), (12, 3)] {
        db.manager().witness_replicated_watermark(watermark);
        for _ in 0..3 {
            let read = db.begin_read();
            assert_eq!(read.watermark(), watermark);
            assert_eq!(read.view_of(acct.as_ref()).unwrap(), money(balance), "at {watermark}");
        }
    }
    // The floor rose with the watermark: history below it folds again.
    apply(4, 15);
    assert_eq!(acct.inner().retained_committed(), 2, "only ts 12 and 15 stay unfolded");
    // The floor trails the applied history by a bounded span, so a
    // backlog never makes replay walk more than that: far ahead of the
    // watermark the oldest fold anyway (and a read there bounces, as it
    // did before the floor existed, until the next sample lands).
    for i in 0..2000 {
        apply(5 + i, 16 + i);
    }
    assert!(acct.inner().retained_committed() <= 1025, "unfolded backlog is bounded");
    assert!(matches!(
        db.begin_read().view_of(acct.as_ref()),
        Err(HccError::SnapshotContended { requested: 12 })
    ));
    db.manager().witness_replicated_watermark(2015);
    assert_eq!(db.begin_read().view_of(acct.as_ref()).unwrap(), money(2004));
    // And it is a floor, not a pin: a final metrics dump shows none held.
    assert_eq!(db.manager().horizon().active(), 0);
    assert_eq!(db.stats().gauge("horizon.pins"), 0);
}
