//! Distributed two-phase commitment over simulated sites.
//!
//! The paper's model is distributed: a transaction must not commit at some
//! objects and abort at others, and the commit timestamp must reach every
//! object. This example runs the message-passing simulation in three
//! acts: a clean distributed commit, a site crash before voting (abort
//! everywhere), and a site crash *between* its yes-vote and the phase-2
//! message — detected as a partial commit and healed from the site's own
//! WAL plus the coordinator's decision log. Each site opens its objects
//! from a `Db` of its own: in memory for the first two acts, durable for
//! the third.
//!
//! ```text
//! cargo run --release --example distributed_commit
//! ```

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::adts::fifo_queue::QueueObject;
use hybrid_cc::core::runtime::TxnHandle;
use hybrid_cc::spec::{Rational, TxnId};
use hybrid_cc::storage::{DurableStore, StorageOptions};
use hybrid_cc::txn::clock::LogicalClock;
use hybrid_cc::txn::sim::{coordinator_decisions, CommitOutcome, Coordinator, Site};
use hybrid_cc::Db;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // Two sites, each hosting one object opened from its own database; a
    // shared logical clock stands in for timestamp piggybacking on the
    // commit protocol.
    let (bank, audit) = (Db::in_memory(), Db::in_memory());
    let account = bank.object::<AccountObject>("savings").unwrap();
    let queue = audit.object::<QueueObject<String>>("audit-log").unwrap();
    let site_a = Site::spawn("bank-site", vec![account.inner().clone()]);
    let site_b = Site::spawn("audit-site", vec![queue.inner().clone()]);
    let clock = Arc::new(LogicalClock::new());
    let coordinator = Coordinator::new(clock.clone());

    // A distributed transaction touching both sites.
    let t1 = TxnHandle::new(TxnId(1));
    account.credit(&t1, Rational::from_int(100)).unwrap();
    queue.enq(&t1, "credit 100".into()).unwrap();
    match coordinator.commit(&t1, &[site_a, site_b]) {
        CommitOutcome::Committed(ts) => {
            println!("T1 committed at both sites with timestamp {ts}")
        }
        other => panic!("unexpected outcome {other:?}"),
    }
    wait_settle();
    println!("  savings balance: {}", account.committed_balance());
    println!("  audit entries:   {}", queue.committed_len());

    // Second round: the audit site crashes before voting — the
    // coordinator's vote timeout fires and the transaction aborts
    // everywhere (all-or-nothing).
    let site_a = Site::spawn("bank-site", vec![account.inner().clone()]);
    let site_b = Site::spawn("audit-site", vec![queue.inner().clone()]);
    let coordinator = Coordinator::new(clock.clone()).with_vote_timeout(Duration::from_millis(100));
    let t2 = TxnHandle::new(TxnId(2));
    account.credit(&t2, Rational::from_int(999)).unwrap();
    queue.enq(&t2, "credit 999".into()).unwrap();
    site_b.crash();
    println!("\naudit site crashed before voting...");
    match coordinator.commit(&t2, &[site_a, site_b]) {
        CommitOutcome::Aborted { site } => {
            println!("T2 aborted (caused by {site}) — at *every* site")
        }
        other => panic!("must not commit past a crash: {other:?}"),
    }
    wait_settle();
    println!("  savings balance unchanged: {}", account.committed_balance());
    assert_eq!(account.committed_balance(), Rational::from_int(100));
    assert_eq!(queue.committed_len(), 1);

    // Third round: a *durable* site crashes between its yes-vote and the
    // phase-2 message. The coordinator reports the partial delivery
    // instead of swallowing it, and the site heals from its own WAL (the
    // self-logged operations) plus the coordinator's decision log.
    let dir_site = std::env::temp_dir().join(format!("hcc-dist-site-{}", std::process::id()));
    let dir_coord = std::env::temp_dir().join(format!("hcc-dist-coord-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_site);
    let _ = std::fs::remove_dir_all(&dir_coord);
    let decided_ts;
    {
        let db = Db::open(&dir_site).unwrap();
        let store = db.storage().expect("a durable db has a store").clone();
        let ledger = db.object::<AccountObject>("ledger").unwrap();
        let site = Site::spawn_durable("ledger-site", vec![ledger.inner().clone()], store);
        let coordinator = Coordinator::new(clock)
            .with_vote_timeout(Duration::from_millis(100))
            .with_decision_log(
                DurableStore::open(&dir_coord, StorageOptions::default()).unwrap().0,
            );

        let t3 = TxnHandle::new(TxnId(3));
        ledger.credit(&t3, Rational::from_int(250)).unwrap(); // self-logs to the site WAL
        site.crash_after_prepare();
        println!("\nledger site crashed between its yes-vote and phase 2...");
        match coordinator.commit(&t3, &[site]) {
            CommitOutcome::CommittedPartial { ts, missed } => {
                println!("T3 decided at ts {ts}, but not acknowledged by {missed:?}");
                decided_ts = ts;
            }
            other => panic!("expected a partial commit, got {other:?}"),
        }
        assert_eq!(ledger.committed_balance(), Rational::from_int(0));
    }
    // The site restarts through the `Db` facade: opening the database
    // with the coordinator's recovered decisions resolves the in-doubt
    // transaction, and the typed handle arrives already healed — no
    // Registry wiring, no replay loop.
    let decisions = coordinator_decisions(&dir_coord).unwrap();
    assert_eq!(decisions.get(&3), Some(&decided_ts));
    let db = Db::builder().decisions(decisions).open(&dir_site).unwrap();
    let ledger = db.object::<AccountObject>("ledger").unwrap();
    println!(
        "ledger site recovered: {} in-doubt commit(s) healed, balance {}",
        db.recovery_report().replayed,
        ledger.committed_balance()
    );
    assert_eq!(ledger.committed_balance(), Rational::from_int(250));
    drop((ledger, db));
    let _ = std::fs::remove_dir_all(&dir_site);
    let _ = std::fs::remove_dir_all(&dir_coord);
}

fn wait_settle() {
    // Site threads apply phase-2 messages asynchronously.
    std::thread::sleep(Duration::from_millis(50));
}
