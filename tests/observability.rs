//! Acceptance tests for the observability layer: the always-on metric
//! registry every subsystem feeds (`db.stats()`), checked end to end —
//! accounting invariants at quiesce, histogram internal consistency,
//! snapshot/delta algebra through the facade, concurrent counting, and
//! the conflict-matrix contract (refusal labels are exactly the class
//! pairs of the lock's atom set).

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::counter::{CounterDef, CounterInv};
use hybrid_cc::adts::SpecObject;
use hybrid_cc::core::runtime::{BlockPolicy, SpecAdt, SpecLock};
use hybrid_cc::obs::MetricValue;
use hybrid_cc::spec::Rational;
use hybrid_cc::txn::TxnManager;
use hybrid_cc::Db;
use std::sync::Arc;
use std::time::Duration;

/// A contended in-memory workload through the facade: every transaction
/// the retry loop begins — first tries and retries alike — must end as
/// exactly one commit or one abort by the time the threads join.
#[test]
fn quiesced_txn_counters_balance() {
    let db = Db::in_memory();
    let acct = db.object::<AccountObject>("acct").expect("open account");
    db.transact(|tx| {
        acct.credit(tx, Rational::from_int(1_000))?;
        Ok(())
    })
    .unwrap();
    std::thread::scope(|s| {
        for w in 0..4 {
            let (db, acct) = (&db, &acct);
            s.spawn(move || {
                for i in 0..25u32 {
                    db.transact(|tx| {
                        if (w + i) % 2 == 0 {
                            acct.credit(tx, Rational::from_int(1))?;
                        } else {
                            acct.debit(tx, Rational::from_int(1))?;
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    let snap = db.stats();
    let (begun, committed, aborted) =
        (snap.counter("txn.begun"), snap.counter("txn.committed"), snap.counter("txn.aborted"));
    assert_eq!(begun, committed + aborted, "begun {begun} != {committed} + {aborted}");
    assert!(committed >= 101, "the 101 workload transactions all committed eventually");
    // The attempts histogram saw every transact() call exactly once.
    let attempts = snap.histogram("db.transact.attempts").expect("attempts histogram");
    assert_eq!(attempts.count, 101);
    // Commit latency was recorded per commit.
    assert_eq!(snap.histogram("txn.commit_nanos").unwrap().count, committed);
    // Nobody is blocked any more: every wait that was counted when it
    // began has been timed when it ended (possibly none at all).
    assert_eq!(
        snap.histogram("lock.wait_nanos.Account").map_or(0, |h| h.count),
        snap.sum_prefix("lock.waits.Account."),
    );
}

/// Every histogram in a live snapshot keeps its internal contract:
/// bucket counts sum to `count`, and quantiles stay within the observed
/// value's bucket bound.
#[test]
fn histogram_buckets_sum_to_count() {
    let db = Db::in_memory();
    let acct = db.object::<AccountObject>("acct").expect("open account");
    for i in 0..50 {
        db.transact(|tx| {
            acct.credit(tx, Rational::from_int(i))?;
            Ok(())
        })
        .unwrap();
    }
    let snap = db.stats();
    let mut histograms = 0;
    for (name, v) in &snap.values {
        if let MetricValue::Histogram(h) = v {
            histograms += 1;
            let bucket_total: u64 = h.buckets.iter().sum();
            assert_eq!(bucket_total, h.count, "{name}: bucket sum != count");
            if h.count > 0 {
                assert!(h.quantile(0.5) <= h.quantile(1.0), "{name}: quantiles out of order");
            }
        }
    }
    assert!(histograms >= 4, "expected the txn/db histogram families, saw {histograms}");
}

/// Snapshot/delta algebra through `db.stats()`: `later = earlier + delta`
/// for counters and histogram counts, and a delta against self is zero.
#[test]
fn snapshot_delta_round_trips_through_facade() {
    let db = Db::in_memory();
    let acct = db.object::<AccountObject>("acct").expect("open account");
    let work = |n: i64| {
        for i in 0..n {
            db.transact(|tx| {
                acct.credit(tx, Rational::from_int(i))?;
                Ok(())
            })
            .unwrap();
        }
    };
    work(10);
    let earlier = db.stats();
    work(7);
    let later = db.stats();
    let delta = later.delta(&earlier);
    assert_eq!(delta.counter("txn.committed"), 7);
    assert_eq!(
        later.counter("txn.committed"),
        earlier.counter("txn.committed") + delta.counter("txn.committed")
    );
    assert_eq!(delta.histogram("db.transact.attempts").unwrap().count, 7);
    // Delta against self: every counter and histogram count is zero.
    let zero = later.delta(&later);
    for (name, v) in &zero.values {
        match v {
            MetricValue::Counter(c) => assert_eq!(*c, 0, "{name}"),
            MetricValue::Histogram(h) => assert_eq!(h.count, 0, "{name}"),
            MetricValue::Gauge(_) => {} // levels carry over by design
        }
    }
}

/// Registry primitives under concurrency, through the facade re-export:
/// 8 threads hammering one shared counter and histogram lose nothing.
#[test]
fn concurrent_hammer_counts_exactly() {
    let reg = hybrid_cc::obs::Registry::new();
    let c = reg.counter("hammer.count");
    let h = reg.histogram("hammer.obs");
    const THREADS: u64 = 8;
    const PER: u64 = 50_000;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (c, h) = (c.clone(), h.clone());
            s.spawn(move || {
                for i in 0..PER {
                    c.inc();
                    h.observe(t * PER + i);
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.counter("hammer.count"), THREADS * PER);
    let hs = snap.histogram("hammer.obs").unwrap();
    assert_eq!(hs.count, THREADS * PER);
    assert_eq!(hs.buckets.iter().sum::<u64>(), THREADS * PER);
}

/// The conflict-matrix contract: every refusal label the runtime emits
/// for a [`SpecLock`]-governed object is a `req|held` pair whose classes
/// appear (in one direction or the other — the lock tests the symmetric
/// closure) in the very atom set the lock decides with. The metrics are
/// a live view of the paper's conflict tables, not a parallel taxonomy.
#[test]
fn refusal_labels_are_lock_atom_class_pairs() {
    let lock = SpecLock::<SpecAdt<CounterDef>>::from_def();
    let allowed: Vec<(String, String)> =
        lock.relation().atoms().iter().map(|a| (a.row.to_string(), a.col.to_string())).collect();
    assert!(!allowed.is_empty(), "derived Counter table has atoms");

    let mgr = TxnManager::new();
    let mut opts = mgr.object_options();
    opts.block = BlockPolicy { timeout: Some(Duration::from_millis(400)) };
    let obj = Arc::new(SpecObject::<CounterDef>::with_options("tally", opts));
    // Deterministic conflict: the writer holds an uncommitted Inc across
    // a barrier while the reader's Read arrives — `Read ⊦ Inc` is in the
    // derived table, so the Read is refused (and waits) until commit.
    let barrier = Arc::new(std::sync::Barrier::new(2));
    std::thread::scope(|s| {
        {
            let (mgr, obj, barrier) = (mgr.clone(), obj.clone(), barrier.clone());
            s.spawn(move || {
                let t = mgr.begin();
                obj.execute(&t, CounterInv::Inc(1)).unwrap();
                barrier.wait(); // reader now collides with the held Inc
                std::thread::sleep(Duration::from_millis(30));
                mgr.commit(t).unwrap();
            });
        }
        {
            let (mgr, obj, barrier) = (mgr.clone(), obj.clone(), barrier.clone());
            s.spawn(move || {
                barrier.wait();
                loop {
                    let t = mgr.begin();
                    if obj.execute(&t, CounterInv::Read).is_ok() && mgr.commit(t.clone()).is_ok() {
                        break;
                    }
                    mgr.abort(t);
                }
            });
        }
    });
    let snap = mgr.metrics().snapshot();
    let refusals = snap.sum_prefix("lock.refusals.");
    assert!(refusals > 0, "Read vs Inc contention must refuse at least once");
    // The refused Read waited; its wait was counted once under the pair
    // that refused it and timed once when it ended.
    let waits = snap.sum_prefix("lock.waits.Counter.");
    assert!(waits > 0, "the reader blocked behind the held Inc");
    let timed = snap.histogram("lock.wait_nanos.Counter").expect("wait histogram");
    assert_eq!(timed.count, waits);
    assert_eq!(timed.buckets.iter().sum::<u64>(), timed.count);
    let mut checked = 0;
    for name in snap.values.keys() {
        let Some(rest) = name.strip_prefix("lock.refusals.") else { continue };
        let (ty, pair) = rest.split_once('.').expect("refusal key has TYPE.pair");
        assert_eq!(ty, "Counter");
        let (req, held) = pair.split_once('|').expect("refusal pair is req|held");
        let hit = allowed
            .iter()
            .any(|(row, col)| (row == req && col == held) || (row == held && col == req));
        assert!(hit, "refusal pair {req}|{held} not in the lock's atom set {allowed:?}");
        checked += 1;
    }
    assert!(checked > 0);
    // And grants are labelled with single atom class names.
    let classes: Vec<&String> = allowed
        .iter()
        .flat_map(|(r, c)| [r, c])
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for name in snap.values.keys() {
        let Some(rest) = name.strip_prefix("lock.grants.") else { continue };
        let (_ty, class) = rest.split_once('.').expect("grant key has TYPE.class");
        assert!(
            classes.iter().any(|c| c.as_str() == class),
            "grant class {class} unknown to the atom set"
        );
    }
}

/// The conflict-matrix contract under every scheme: one contended
/// Account mix (credits, posts, debits, some of them overdrawn) refuses
/// only pairs of the running scheme's own atoms, in one direction or the
/// other — the per-pair counts the scheme comparison reports.
#[test]
fn every_scheme_refuses_only_its_own_atom_pairs() {
    use hybrid_cc::adts::account::AccountAdt;
    use hybrid_cc::relations::tables::AdtConfig;
    use hybrid_cc::workload::scheme::{bench_options, make_account, run, Scheme};
    use rand::Rng;

    for scheme in Scheme::ALL {
        let lock = scheme.lock::<AccountAdt>(AdtConfig::account());
        let mgr = TxnManager::new();
        let acct = make_account(scheme, "acct", bench_options(&mgr));
        let t = mgr.begin();
        acct.credit(&t, Rational::from_int(1_000)).unwrap();
        mgr.commit(t).unwrap();
        let r = run(&mgr, 4, 50, |t, _, rng| {
            for _ in 0..4 {
                match rng.gen_range(0..10u32) {
                    0..=3 => acct.credit(t, Rational::from_int(rng.gen_range(1..50)))?,
                    4 => acct.post(t, Rational::ZERO)?,
                    5 => drop(acct.debit(t, Rational::from_int(1_000_000))?),
                    _ => drop(acct.debit(t, Rational::from_int(rng.gen_range(1..50)))?),
                }
            }
            Ok(())
        });
        assert!(r.refusals > 0, "{scheme}: the mix must contend");
        let snap = mgr.metrics().snapshot();
        for name in snap.values.keys() {
            let Some(pair) = name.strip_prefix("lock.refusals.Account.") else { continue };
            let (req, held) = pair.split_once('|').expect("refusal pair is req|held");
            let hit = lock.relation().atoms().iter().any(|a| {
                let (row, col) = (a.row.0.as_str(), a.col.0.as_str());
                (row == req && col == held) || (row == held && col == req)
            });
            assert!(hit, "{scheme}: refusal pair {req}|{held} is not a pair of its atoms");
        }
    }
}

/// Lock-metric keys name the class the scheme filed each operation
/// under, even where the operation's variants do not determine it: a
/// Set's response is a `bool`, so `Add-New` and `Add-Dup` (and
/// `Remove-Hit` and `Remove-Miss`) share their variants. The built-in Set
/// and its declaratively defined twin key the same script identically.
#[test]
fn lock_metric_keys_follow_classes_the_variants_do_not_determine() {
    use hybrid_cc::adts::set::{SetAdt, SetDef, SetInv};
    use hybrid_cc::adts::{Object, ObjectAdt};
    use hybrid_cc::core::runtime::TryExecOutcome;

    fn script<A: ObjectAdt<Inv = SetInv<i64>, Res = bool>>() -> Vec<(String, u64)> {
        let mgr = TxnManager::new();
        let set = Object::<A>::with_options("s", mgr.object_options());
        let t0 = mgr.begin();
        assert_eq!(set.execute(&t0, SetInv::Add(1)), Ok(true));
        mgr.commit(t0).unwrap();
        let refused = |held: SetInv<i64>, requested: SetInv<i64>| {
            let (t1, t2) = (mgr.begin(), mgr.begin());
            set.execute(&t1, held).unwrap();
            let outcome = set.inner().try_execute(&t2, &requested).unwrap();
            assert!(matches!(outcome, TryExecOutcome::Conflict(_)), "{requested:?} was granted");
            mgr.abort(t1);
            mgr.abort(t2);
        };
        // Add(1) → false is an Add-Dup; Remove(1) → true, a Remove-Hit.
        refused(SetInv::Add(1), SetInv::Remove(1));
        // Add(2) → true is an Add-New; Remove(2) → false, a Remove-Miss.
        refused(SetInv::Add(2), SetInv::Remove(2));
        let snap = mgr.metrics().snapshot();
        assert_eq!(snap.counter("lock.refusals.Set.Remove-Hit|Add-Dup"), 1);
        assert_eq!(snap.counter("lock.refusals.Set.Remove-Miss|Add-New"), 1);
        assert_eq!(snap.sum_prefix("lock.refusals.Set."), 2);
        assert_eq!(snap.counter("lock.grants.Set.Add-New"), 2);
        assert_eq!(snap.counter("lock.grants.Set.Add-Dup"), 1);
        assert_eq!(snap.sum_prefix("lock.grants.Set."), 3);
        let lock_keys =
            snap.values.keys().filter(|k| k.starts_with("lock.") && k.contains(".Set."));
        lock_keys.map(|k| (k.clone(), snap.counter(k))).collect()
    }

    assert_eq!(script::<SpecAdt<SetDef<i64>>>(), script::<SetAdt<i64>>());
}

/// A production recovery refusal is readable where it happens: with the
/// flight recorder on (`HCC_TRACE`), a `Db` opened over a log whose
/// replay diverges records `recovery.fail` and dumps the ring as the
/// handle fails to materialize.
#[test]
fn refused_recovery_dumps_the_flight_recorder() {
    use hybrid_cc::storage::{DurableStore, StorageOptions};

    let dir = std::env::temp_dir().join(format!("hcc-obs-refused-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        // A debit that "succeeded" against an account nobody ever funded.
        let store = DurableStore::open(&dir, StorageOptions::default()).unwrap();
        store.log_op(1, "acct", br#"{"op":"debit","v":{"den":1,"num":30},"ok":true}"#).unwrap();
        store.log_commit(1, 1).unwrap();
    }
    // The recorder is read from the environment as the manager is built;
    // tests sharing this process may pick it up too, which only makes
    // them trace.
    std::env::set_var("HCC_TRACE", "64");
    let db = Db::open(&dir).unwrap();
    std::env::remove_var("HCC_TRACE");
    assert!(db.object::<AccountObject>("acct").is_err(), "divergent replay must be refused");
    let events = db.manager().flight_recorder().expect("HCC_TRACE was set").events();
    let fail = events.iter().find(|e| e.kind == "recovery.fail").expect("refusal was recorded");
    assert!(fail.detail.contains("acct"), "names the object: {}", fail.detail);
    let _ = std::fs::remove_dir_all(&dir);
}
