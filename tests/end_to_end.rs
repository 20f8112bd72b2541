//! End-to-end system tests: the claim experiments E7–E13 as transaction
//! bodies for the one multithreaded driver (`workload::scheme::run`:
//! a `Db`'s manager + deadlock detector + objects opened under each
//! scheme with `Db::object_with`, abort-and-retry), mixed-scheme
//! systems (Section 7's upward compatibility), and the upward-
//! compatibility claim verified on recorded histories.
//!
//! A claim that a baseline *refuses* what hybrid locking grants is made
//! with two transaction handles on one thread and a non-blocking lock
//! test ([`assert_grants`]), so it reads the conflict table, not the
//! scheduler. Threads are used only where the claim is a count that
//! scheduling cannot move: everything commits, money is conserved, or
//! hybrid locking refuses nothing at all.

use hybrid_cc::adts::account::{AccountAdt, AccountInv};
use hybrid_cc::adts::fifo_queue::{QueueAdt, QueueInv, QueueObject};
use hybrid_cc::adts::file::{FileAdt, FileInv};
use hybrid_cc::adts::semiqueue::SemiqueueAdt;
use hybrid_cc::adts::ObjectAdt;
use hybrid_cc::core::runtime::TryExecOutcome;
use hybrid_cc::relations::derive::{commutativity_atoms, conflict_atoms, DeriveSpec};
use hybrid_cc::relations::{AdtConfig, Atom, Relation};
use hybrid_cc::spec::specs::{AccountSpec, QueueSpec};
use hybrid_cc::spec::{ObjectId, Rational, Timestamp, TxnId};
use hybrid_cc::verify::{hybrid_atomic, LockMachine, RespondOutcome, SystemSpecs};
use hybrid_cc::workload::scheme::{run, Run, Scheme};
use hybrid_cc::Db;
use rand::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn money(n: i64) -> Rational {
    Rational::from_int(n)
}

/// An in-memory database for driven runs: a lock request gives up after
/// 500 ms, so a transaction stuck behind a conflict — or a dequeue on an
/// empty queue — aborts and [`run`] retries it.
fn driven_db() -> Db {
    Db::builder().lock_timeout(Duration::from_millis(500)).in_memory()
}

/// For each `(first, second, want)`: on a fresh object of the type `cfg`
/// describes, opened under hybrid, commutativity and r/w 2PL (in
/// [`Scheme::ALL`] order), with `setup` committed, one transaction
/// executes `first`, and a non-blocking lock test of `second` by another
/// transaction must be granted exactly when `want` says so.
fn assert_grants<A: ObjectAdt>(
    cfg: fn() -> AdtConfig,
    setup: &[A::Inv],
    pairs: Vec<(A::Inv, A::Inv, [bool; 3])>,
) where
    A::Inv: std::fmt::Debug,
{
    for (first, second, want) in pairs {
        for (scheme, want) in Scheme::ALL.into_iter().zip(want) {
            let db = Db::in_memory();
            let (obj, mgr) = (db.object_with("x", scheme.lock::<A>(cfg())).unwrap(), db.manager());
            let t0 = mgr.begin();
            for inv in setup {
                obj.execute(&t0, inv.clone()).unwrap();
            }
            mgr.commit(t0).unwrap();
            let (t1, t2) = (mgr.begin(), mgr.begin());
            obj.execute(&t1, first.clone()).unwrap();
            let outcome = obj.inner().try_execute(&t2, &second).unwrap();
            mgr.abort(t1);
            mgr.abort(t2);
            let granted = matches!(outcome, TryExecOutcome::Executed(_));
            assert_eq!(granted, want, "{scheme}: {second:?} while {first:?} is held");
        }
    }
}

/// E7: concurrent producers never conflict under Table II; distinct
/// enqueues conflict under commutativity (Table III) and r/w 2PL, and
/// r/w 2PL refuses even equal ones. Table III buys the dequeuer instead:
/// it takes a committed head past an uncommitted enqueue, which Table II
/// refuses.
#[test]
fn hybrid_admits_more_concurrency_than_baselines_on_enqueues() {
    let db = driven_db();
    let q = db.object_with("q", Scheme::Hybrid.lock::<QueueAdt<i64>>(AdtConfig::queue())).unwrap();
    let r = run(&db, 4, 50, |t, w, _| (0..6).try_for_each(|k| q.enq(t, (w * 10 + k) as i64)));
    assert_eq!(r, Run { committed: 200, aborted: 0, refusals: 0, waits: 0 }, "hybrid enqueues");
    assert_grants::<QueueAdt<i64>>(
        AdtConfig::queue,
        &[],
        vec![
            (QueueInv::Enq(1), QueueInv::Enq(2), [true, false, false]),
            (QueueInv::Enq(1), QueueInv::Enq(1), [true, true, false]),
        ],
    );
    assert_grants::<QueueAdt<i64>>(
        AdtConfig::queue,
        &[QueueInv::Enq(1)],
        vec![(QueueInv::Enq(2), QueueInv::Deq, [false, true, false])],
    );
}

/// E8: with no debits, Table V refuses nothing on a shared account; on
/// the pairs themselves, hybrid grants Credit∥Post and Post∥Debit-Ok
/// (which commutativity refuses, in either order) and Credit∥Credit
/// (which r/w 2PL refuses).
#[test]
fn account_mix_has_no_overdraft_no_conflict_dominance() {
    let db = driven_db();
    let acct = db.object_with("acct", Scheme::Hybrid.lock(AdtConfig::account())).unwrap();
    let r = run(&db, 4, 50, |t, _, rng| {
        for _ in 0..4 {
            if rng.gen_range(0..10u32) == 0 {
                // 0% interest: Post's lock behaviour is value-independent.
                acct.post(t, Rational::ZERO)?;
            } else {
                acct.credit(t, money(rng.gen_range(1..50)))?;
            }
        }
        Ok(())
    });
    assert_eq!((r.committed, r.refusals), (200, 0), "credits and posts never conflict");
    let (credit, post) = (AccountInv::Credit(money(5)), AccountInv::Post(money(5)));
    assert_grants::<AccountAdt>(
        AdtConfig::account,
        &[],
        vec![
            (credit.clone(), credit.clone(), [true, true, false]),
            (credit.clone(), post.clone(), [true, false, false]),
            (post.clone(), credit, [true, false, false]),
        ],
    );
    let debit = AccountInv::Debit(money(10));
    let funds = AccountInv::Credit(money(100));
    let pairs = vec![(debit, post, [true, false, false])];
    assert_grants::<AccountAdt>(AdtConfig::account, &[funds], pairs);
}

/// E9, the generalized Thomas Write Rule: blind writes never conflict
/// under hybrid locking and conflict under both baselines (commutativity
/// only when the values differ); readers share under every scheme and
/// exclude a writer of another value; a read/write mix completes under
/// every scheme.
#[test]
fn register_writes_never_conflict_under_hybrid() {
    let db = driven_db();
    let reg =
        db.object_with("reg", Scheme::Hybrid.lock::<FileAdt<i64>>(AdtConfig::file())).unwrap();
    let r = run(&db, 4, 150, |t, _, rng| reg.write(t, rng.gen_range(0..1_000_000)));
    assert_eq!((r.committed, r.refusals), (600, 0), "Thomas Write Rule");
    assert_grants::<FileAdt<i64>>(
        AdtConfig::file,
        &[],
        vec![
            (FileInv::Write(1), FileInv::Write(2), [true, false, false]),
            (FileInv::Write(5), FileInv::Write(5), [true, true, false]),
            (FileInv::Read, FileInv::Read, [true, true, true]),
            (FileInv::Read, FileInv::Write(1), [false, false, false]),
        ],
    );
    for scheme in Scheme::ALL {
        let db = driven_db();
        let reg = db.object_with("reg", scheme.lock::<FileAdt<i64>>(AdtConfig::file())).unwrap();
        let r = run(&db, 2, 10, |t, _, rng| match rng.gen_range(0..2u32) {
            0 => reg.write(t, rng.gen_range(0..100)),
            _ => reg.read(t).map(drop),
        });
        assert_eq!(r.committed, 20, "{scheme}");
    }
}

/// E10: producer/consumer pipelines over a FIFO queue and a Semiqueue —
/// even workers produce, odd workers consume, one item per transaction —
/// deliver every item under every scheme.
#[test]
fn pipelines_deliver_every_item_under_every_scheme() {
    for scheme in Scheme::ALL {
        let db = driven_db();
        let q = db.object_with("q", scheme.lock::<QueueAdt<i64>>(AdtConfig::queue())).unwrap();
        let r = run(&db, 4, 15, |t, w, rng| match w % 2 {
            0 => q.enq(t, rng.gen_range(0..1_000_000)),
            _ => q.deq(t).map(drop),
        });
        assert_eq!(r.committed, 60, "{scheme}: 30 enq txns + 30 deq txns");
        assert_eq!(q.committed_len(), 0, "{scheme}");

        let cfg = AdtConfig::semiqueue();
        let sq = db.object_with("sq", scheme.lock::<SemiqueueAdt<i64>>(cfg)).unwrap();
        let r = run(&db, 4, 15, |t, w, rng| match w % 2 {
            0 => sq.ins(t, rng.gen_range(0..1_000_000)),
            _ => sq.rem(t).map(drop),
        });
        assert_eq!(r.committed, 60, "{scheme}: semiqueue pipeline");
    }
}

/// E13: `threads` workers move money between random pairs of `n`
/// accounts funded with 1000 each. Opposite-order transfers can
/// deadlock; the detector picks victims and the driver retries them.
/// Money is conserved whatever the interleaving.
fn transfers(scheme: Scheme, n: usize, threads: usize, txns_per_thread: usize) -> Run {
    let db = driven_db();
    let open = |i| db.object_with(&format!("acct-{i}"), scheme.lock(AdtConfig::account()));
    let accounts: Vec<_> = (0..n).map(|i| open(i).unwrap()).collect();
    let mgr = db.manager();
    let t = mgr.begin();
    for a in &accounts {
        a.credit(&t, money(1000)).unwrap();
    }
    mgr.commit(t).unwrap();
    let r = run(&db, threads, txns_per_thread, |t, _, rng| {
        let from = rng.gen_range(0..n);
        let to = (from + rng.gen_range(1..n)) % n;
        let amt = money(rng.gen_range(1..20));
        // An overdraft commits as a refusal.
        if accounts[from].debit(t, amt)? {
            accounts[to].credit(t, amt)?;
        }
        Ok(())
    });
    let total = accounts.iter().fold(Rational::ZERO, |sum, a| sum + a.committed_balance());
    assert_eq!(total, money(1000 * n as i64), "{scheme}: transfers must conserve money");
    r
}

#[test]
fn concurrent_transfers_conserve_money_under_every_scheme() {
    for scheme in Scheme::ALL {
        assert_eq!(transfers(scheme, 6, 4, 25).committed, 100, "{scheme}");
    }
}

#[test]
fn deadlock_prone_transfers_make_progress() {
    // Many workers, few accounts: plenty of lock cycles; everything must
    // still complete and conserve money.
    assert_eq!(transfers(Scheme::Hybrid, 2, 6, 20).committed, 120);
}

/// Section 7: dynamic atomic (commutativity-based) and hybrid atomic
/// objects may be combined in a single system without losing atomicity.
/// Drive a two-object system — a hybrid queue and a commutativity-locked
/// account — through the LOCK machine and verify the combined history.
#[test]
fn mixed_scheme_system_is_atomic() {
    let derived = |cfg: AdtConfig, atoms: fn(&DeriveSpec) -> BTreeSet<Atom>| {
        let spec = DeriveSpec::from(cfg);
        Arc::new(Relation::new(spec.classify, atoms(&spec)))
    };
    // Hybrid queue machine (Table II conflicts).
    let queue_conflict = derived(AdtConfig::queue(), conflict_atoms);
    let mut queue_m = LockMachine::new(ObjectId(0), Arc::new(QueueSpec), queue_conflict);
    // Commutativity account machine (Table VI conflicts — a superset of
    // Table V, hence still a dependency relation).
    let acct_conflict = derived(AdtConfig::account(), commutativity_atoms);
    let mut acct_m = LockMachine::new(ObjectId(1), Arc::new(AccountSpec), acct_conflict);

    let (p, q, r) = (TxnId(1), TxnId(2), TxnId(3));
    // Interleave the two machines, mirroring every event into a single
    // system history in true temporal order.
    let mut system = hybrid_cc::spec::History::new();
    let (mut qc, mut ac) = (0usize, 0usize); // event cursors
    macro_rules! sync {
        () => {{
            for e in &queue_m.history().events()[qc..] {
                system.push(e.clone());
            }
            #[allow(unused_assignments)]
            {
                qc = queue_m.history().len();
            }
            for e in &acct_m.history().events()[ac..] {
                system.push(e.clone());
            }
            #[allow(unused_assignments)]
            {
                ac = acct_m.history().len();
            }
        }};
    }

    // P: fund the account and enqueue a marker.
    assert!(matches!(
        acct_m.execute(p, AccountSpec::credit(money(100))).unwrap(),
        RespondOutcome::Responded(_)
    ));
    sync!();
    queue_m.execute(p, QueueSpec::enq(1)).unwrap();
    sync!();
    // Q and R run concurrently at both objects.
    queue_m.execute(q, QueueSpec::enq(2)).unwrap();
    queue_m.execute(r, QueueSpec::enq(3)).unwrap();
    sync!();
    acct_m.commit(p, Timestamp(1)).unwrap();
    queue_m.commit(p, Timestamp(1)).unwrap();
    sync!();
    assert!(matches!(
        acct_m.execute(q, AccountSpec::debit(money(10))).unwrap(),
        RespondOutcome::Responded(_)
    ));
    sync!();
    // R's post would conflict with Q's debit under commutativity locking.
    assert!(matches!(
        acct_m.execute(r, AccountSpec::post(money(5))).unwrap(),
        RespondOutcome::Blocked { .. }
    ));
    acct_m.cancel_pending(r);
    sync!();
    acct_m.commit(q, Timestamp(3)).unwrap();
    queue_m.commit(q, Timestamp(3)).unwrap();
    sync!();
    // After Q commits, R's post proceeds.
    assert!(matches!(
        acct_m.execute(r, AccountSpec::post(money(5))).unwrap(),
        RespondOutcome::Responded(_)
    ));
    sync!();
    acct_m.commit(r, Timestamp(4)).unwrap();
    queue_m.commit(r, Timestamp(4)).unwrap();
    sync!();

    // Verify global hybrid atomicity of the merged system history.
    system.well_formed().unwrap();
    let specs = SystemSpecs::new()
        .with(ObjectId(0), Arc::new(QueueSpec))
        .with(ObjectId(1), Arc::new(AccountSpec));
    assert!(hybrid_atomic(&system, &specs), "mixed-scheme system lost atomicity");
}

/// The production runtime version of the same claim: hybrid and
/// commutativity objects in one transaction system — driven through the
/// `Db` facade, with the non-default conflict relation opened through
/// `object_with`.
#[test]
fn mixed_scheme_runtime_transactions() {
    let db = Db::in_memory();
    let q = db.object::<QueueObject<i64>>("audit").unwrap();
    let acct = db.object_with("acct", Scheme::Commutativity.lock(AdtConfig::account())).unwrap();
    // Fund.
    db.transact(|tx| acct.credit(tx, money(100)).map_err(Into::into)).unwrap();
    // Two transactions touch both objects.
    for amount in [25i64, 30] {
        db.transact(|tx| {
            assert!(acct.debit(tx, money(amount))?);
            q.enq(tx, amount)?;
            Ok(())
        })
        .unwrap();
    }

    assert_eq!(acct.committed_balance(), money(45));
    db.transact(|tx| {
        assert_eq!(q.deq(tx)?, 25);
        assert_eq!(q.deq(tx)?, 30);
        Ok(())
    })
    .unwrap();
}
