//! The multi-site randomized crash workload as an integration property:
//! distributed transactions over per-site WALs with kill points injected
//! into the coordinator (crash after the decision fsync) and into two
//! participant sites per faulty round (crash between yes-vote and
//! phase 2), healed by reopening the site through
//! `Db::builder().decisions(..)` + bounded `retry_phase2` — every seed
//! must converge, live and from-scratch. Below it, the 2PC durability
//! story one case at a time: a durable site is a `Db` whose objects log
//! through its store and join it with `Db::attach`.

use hybrid_cc::adts::account::AccountObject;
use hybrid_cc::core::runtime::{RuntimeOptions, TxnHandle};
use hybrid_cc::spec::{Rational, TxnId};
use hybrid_cc::storage::{DurableStore, StorageOptions};
use hybrid_cc::txn::clock::LogicalClock;
use hybrid_cc::txn::registry::Decisions;
use hybrid_cc::txn::sim::{
    coordinator_decisions, CommitOutcome, Coordinator, CoordinatorKill, Site,
};
use hybrid_cc::workload::multisite::{multisite_crash_converges, MultisiteOptions};
use hybrid_cc::Db;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hcc-ms-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&p);
    p
}

#[test]
fn multisite_randomized_crashes_converge_across_seeds() {
    let mut site_kills = 0;
    let mut coord_kills = 0;
    let mut healed = 0;
    for seed in [2u64, 19, 0xFEED] {
        let dir = tmp(&format!("seed-{seed}"));
        let report = multisite_crash_converges(
            &dir,
            MultisiteOptions { seed, sites: 4, rounds: 20, ..Default::default() },
        );
        site_kills += report.site_kill_rounds;
        coord_kills += report.coordinator_kill_rounds;
        healed += report.healed_partials;
        assert_eq!(report.decided + report.aborted, 20, "every round reached a verdict");
    }
    // Across the seeds, both kill classes and the healing path must have
    // actually fired — otherwise the property tested nothing.
    assert!(site_kills > 0, "no site kills were injected");
    assert!(coord_kills > 0, "no coordinator kills were injected");
    assert!(healed > 0, "no partial commit was healed");
}

fn r(n: i64) -> Rational {
    Rational::from_int(n)
}

/// (Re)start the durable site hosting account "b" at `dir`: the database
/// recovers its WAL — in-doubt transactions resolved against `decisions`
/// — and the account, logging through the site's WAL, arrives healed.
fn site_b(dir: &Path, decisions: Decisions) -> (Db, Arc<AccountObject>, Site) {
    let db = Db::builder().decisions(decisions).open(dir).unwrap();
    let store = db.storage().unwrap().clone();
    let b = db
        .attach(Arc::new(AccountObject::with_options(
            "b",
            RuntimeOptions::default().with_redo(store.clone()),
        )))
        .unwrap();
    let site = Site::spawn_durable("s-b", vec![b.inner().clone()], store);
    (db, b, site)
}

fn coordinator(dir: &Path) -> Coordinator {
    Coordinator::new(Arc::new(LogicalClock::new()))
        .with_vote_timeout(Duration::from_millis(100))
        .with_decision_log(DurableStore::open(dir, StorageOptions::default()).unwrap())
}

/// Credit `amount` at a fresh site "b" under txn 1 and run 2PC with the
/// site crashing after its yes-vote (or the coordinator after its
/// decision): the commit is decided, never delivered. Returns the
/// decided timestamp; everything the site held is dropped (the "machine"
/// is down).
fn decide_without_delivering(
    dir_site: &Path,
    coord: &Coordinator,
    amount: i64,
    kill: CoordinatorKill,
) -> u64 {
    let (_db, b, site) = site_b(dir_site, Decisions::new());
    let t = TxnHandle::new(TxnId(1));
    b.credit(&t, r(amount)).unwrap(); // self-logs into the site WAL
    if kill == CoordinatorKill::None {
        site.crash_after_prepare();
    }
    match coord.commit_with_kill(&t, &[&site], kill) {
        CommitOutcome::CommittedPartial { ts, missed } => {
            assert_eq!(missed, vec!["s-b".to_string()]);
            assert_eq!(b.committed_balance(), r(0), "site never applied the commit");
            ts
        }
        other => panic!("expected partial commit, got {other:?}"),
    }
}

/// The full 2PC durability story: self-logging per-site WALs, a durable
/// coordinator decision, a site crashed in the prepare→commit window, and
/// a restart that heals it from its own WAL plus the coordinator's
/// decision log.
#[test]
fn crashed_site_recovers_in_doubt_commit_from_decision_logs() {
    let dir_site = tmp("site");
    let dir_coord = tmp("coord");
    let decided_ts =
        decide_without_delivering(&dir_site, &coordinator(&dir_coord), 42, CoordinatorKill::None);
    let decisions = coordinator_decisions(&dir_coord).unwrap();
    assert_eq!(decisions.get(&1), Some(&decided_ts));
    {
        let (db, b, _site) = site_b(&dir_site, decisions);
        assert_eq!(db.recovery_report().replayed, 1);
        assert_eq!(b.committed_balance(), r(42), "the decided commit is healed");
    }
    // Without the decision, the same WAL recovers to nothing: an
    // undecided in-doubt transaction is an abort.
    let (db, b, _site) = site_b(&dir_site, Decisions::new());
    assert_eq!(db.recovery_report().replayed, 0);
    assert_eq!(b.committed_balance(), r(0));
}

/// The transient-failure healing loop: a `CommittedPartial` becomes a
/// full `Committed` once the site has restarted and the coordinator
/// redelivers phase 2 — and the redelivery is idempotent over the state
/// recovery already replayed.
#[test]
fn phase2_retry_turns_partial_commit_into_full_commit() {
    let dir_site = tmp("retry-site");
    let dir_coord = tmp("retry-coord");
    let coord = coordinator(&dir_coord);
    let ts = decide_without_delivering(&dir_site, &coord, 31, CoordinatorKill::None);

    let (db, b, site) = site_b(&dir_site, coordinator_decisions(&dir_coord).unwrap());
    assert_eq!(db.recovery_report().replayed, 1);
    assert_eq!(b.committed_balance(), r(31));
    match coord.retry_phase2(TxnId(1), ts, &[&site], 3) {
        CommitOutcome::Committed(got) => assert_eq!(got, ts),
        other => panic!("expected full commit after retry, got {other:?}"),
    }
    assert_eq!(b.committed_balance(), r(31), "redelivery did not double-apply");

    // A still-dead site stays reported as missed after bounded rounds.
    site.crash();
    match coord.retry_phase2(TxnId(1), ts, &[&site], 2) {
        CommitOutcome::CommittedPartial { missed, .. } => {
            assert_eq!(missed, vec!["s-b".to_string()]);
        }
        other => panic!("expected partial, got {other:?}"),
    }
}

/// A coordinator killed after its decision fsync leaves every site in
/// doubt — and every site heals from the decision log at restart.
#[test]
fn coordinator_crash_after_decision_heals_at_site_recovery() {
    let dir_site = tmp("ckill-site");
    let dir_coord = tmp("ckill-coord");
    let decided_ts = decide_without_delivering(
        &dir_site,
        &coordinator(&dir_coord),
        8,
        CoordinatorKill::AfterDecision,
    );
    let decisions = coordinator_decisions(&dir_coord).unwrap();
    assert_eq!(decisions.get(&1), Some(&decided_ts));
    let (db, b, _site) = site_b(&dir_site, decisions);
    assert_eq!(db.recovery_report().replayed, 1);
    assert_eq!(b.committed_balance(), r(8));
}
