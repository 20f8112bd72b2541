//! Multi-site randomized crash workload: distributed transactions over
//! per-site WALs and a coordinator decision log, with kill points injected
//! into the coordinator (crash after the decision fsync, before phase 2)
//! and into **two or more participant sites per faulty round** (crash
//! between the yes-vote and the phase-2 message), healed by site recovery
//! plus bounded coordinator phase-2 retries.
//!
//! The property under test is **convergence**: after every round's
//! failures are healed — a revived site reopens its directory through
//! `Db::builder().decisions(..)`, which resolves in-doubt transactions
//! against the coordinator's recovered decisions, and
//! `Coordinator::retry_phase2` redelivers unacknowledged commits — every
//! site's balance equals the fold of the *decided* transactions' effects
//! at that site, both in the live objects and in a from-scratch recovery
//! of every site WAL. Transient `CommittedPartial` outcomes become full
//! commits; nothing is double-applied (redelivery is idempotent) and
//! nothing undecided survives.
//!
//! A site is an ordinary [`Db`] whose one object was built over that
//! database's store as its redo sink and joined it with `Db::attach`:
//! it logs through its own WAL and commits through the message-passing
//! [`Coordinator`] instead of the local `TxnManager`, and it recovers
//! exactly as `examples/distributed_commit.rs` does — there is no second
//! recovery path for the simulation to exercise.

use hcc_adts::account::AccountObject;
use hcc_core::runtime::{RuntimeOptions, TxnHandle};
use hcc_db::{Db, HccError};
use hcc_spec::{Rational, TxnId};
use hcc_storage::{CompactionPolicy, Durability, DurableStore, StorageOptions};
use hcc_txn::registry::Decisions;
use hcc_txn::sim::{coordinator_decisions, CommitOutcome, Coordinator, CoordinatorKill, Site};
use hcc_txn::LogicalClock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Options for one multi-site crash run.
#[derive(Clone, Copy, Debug)]
pub struct MultisiteOptions {
    /// RNG seed (the run is deterministic given the seed).
    pub seed: u64,
    /// Number of sites (each hosting one account object).
    pub sites: usize,
    /// Distributed transactions to attempt.
    pub rounds: usize,
    /// Phase-2 redelivery rounds per healing pass.
    pub retries: usize,
    /// Durability of every site WAL and the decision log.
    pub durability: Durability,
}

impl Default for MultisiteOptions {
    fn default() -> Self {
        MultisiteOptions {
            seed: 0x517E5,
            sites: 4,
            rounds: 24,
            retries: 3,
            durability: Durability::Fsync,
        }
    }
}

/// What a run did and healed.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultisiteReport {
    /// Transactions whose commit was decided (fully or partially
    /// delivered at first).
    pub decided: usize,
    /// Transactions aborted by the protocol.
    pub aborted: usize,
    /// Rounds that killed ≥ 2 participant sites after their yes-votes.
    pub site_kill_rounds: usize,
    /// Rounds that killed the coordinator after its decision fsync.
    pub coordinator_kill_rounds: usize,
    /// `CommittedPartial` outcomes healed into full delivery.
    pub healed_partials: usize,
}

/// One site's live incarnation: the serving thread, its account, and the
/// database that recovered it (together they hold the WAL's appender).
struct Incarnation {
    site: Site,
    acct: Arc<AccountObject>,
    _db: Db,
}

/// One site across its incarnations (`live` is `None` only while a dead
/// incarnation has been dropped and its successor is not yet up).
struct LiveSite {
    name: String,
    dir: PathBuf,
    live: Option<Incarnation>,
    crashed: bool,
}

impl LiveSite {
    fn up(&self) -> &Incarnation {
        self.live.as_ref().expect("site is up")
    }
}

fn site_storage(durability: Durability) -> StorageOptions {
    StorageOptions { durability, policy: CompactionPolicy::never(), ..StorageOptions::default() }
}

/// Spawn (or revive) one site: open its directory as a `Db` (log scanned,
/// in-doubt transactions resolved against `decisions`), build a fresh
/// account wired to the site's WAL, attach it — which installs its
/// recovered state — and serve. The durable-site discipline
/// (force-WAL-before-yes, log-before-apply) comes from
/// `Site::spawn_durable`.
fn spawn_site(
    dir: &Path,
    name: &str,
    durability: Durability,
    decisions: &Decisions,
) -> Result<Incarnation, HccError> {
    let db = Db::builder()
        .storage_options(site_storage(durability))
        .decisions(decisions.clone())
        .open(dir)?;
    let store = db.storage().expect("a durable db has a store").clone();
    let acct = db.attach(Arc::new(AccountObject::with_options(
        name,
        RuntimeOptions::default().with_redo(store.clone()),
    )))?;
    let site = Site::spawn_durable(format!("site-{name}"), vec![acct.inner().clone()], store);
    Ok(Incarnation { site, acct, _db: db })
}

/// Run the workload under `base_dir` (one subdirectory per site plus the
/// coordinator's decision log) and assert convergence. Returns the
/// report; panics on any divergence — this is a test harness.
pub fn multisite_crash_converges(base_dir: &Path, opts: MultisiteOptions) -> MultisiteReport {
    assert!(opts.sites >= 3, "need at least 3 sites for interesting kill sets");
    let coord_dir = base_dir.join("coordinator");
    let clock = Arc::new(LogicalClock::new());
    let coord_store = DurableStore::open(&coord_dir, site_storage(opts.durability))
        .expect("open coordinator decision log");
    let coord = Coordinator::new(clock)
        .with_vote_timeout(Duration::from_millis(100))
        .with_decision_log(coord_store);

    let mut sites: Vec<LiveSite> = (0..opts.sites)
        .map(|i| {
            let name = format!("acct-{i}");
            let dir = base_dir.join(format!("site-{i}"));
            let live =
                spawn_site(&dir, &name, opts.durability, &Default::default()).expect("fresh site");
            LiveSite { name, dir, live: Some(live), crashed: false }
        })
        .collect();

    // The oracle: per-site balance deltas of *decided* transactions.
    let mut expected: Vec<Rational> = vec![Rational::ZERO; opts.sites];
    let mut report = MultisiteReport::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);

    for round in 0..opts.rounds {
        // Pick 2–3 distinct participant sites.
        let k = 2 + (rng.gen_range(0..2u32) as usize);
        let mut chosen: Vec<usize> = Vec::new();
        while chosen.len() < k {
            let s = rng.gen_range(0..opts.sites);
            if !chosen.contains(&s) {
                chosen.push(s);
            }
        }

        // Execute the round's operations against the live objects (ops
        // self-log into each site's WAL as they execute).
        let txn = TxnHandle::new(TxnId(round as u64 + 1));
        let mut deltas: Vec<(usize, Rational)> = Vec::new();
        let mut exec_failed = false;
        for (j, &s) in chosen.iter().enumerate() {
            let acct = &sites[s].up().acct;
            if j == 0 || rng.gen_range(0..100u32) < 60 {
                let v = Rational::from_int(rng.gen_range(1..50i64));
                if acct.credit(&txn, v).is_err() {
                    exec_failed = true;
                    break;
                }
                deltas.push((s, v));
            } else {
                let v = Rational::from_int(rng.gen_range(1..30i64));
                match acct.debit(&txn, v) {
                    Ok(true) => deltas.push((s, -v)),
                    Ok(false) => {} // overdraft refusal: logged, no delta
                    Err(_) => {
                        exec_failed = true;
                        break;
                    }
                }
            }
        }

        // Inject this round's failure before running the protocol.
        let dice = rng.gen_range(0..100u32);
        let mut killed_sites: Vec<usize> = Vec::new();
        let mut coord_kill = CoordinatorKill::None;
        if !exec_failed {
            if dice < 30 {
                // Kill 2 participants in the prepare→commit window.
                killed_sites = chosen.iter().copied().take(2).collect();
                for &s in &killed_sites {
                    sites[s].up().site.crash_after_prepare();
                }
                report.site_kill_rounds += 1;
            } else if dice < 45 {
                coord_kill = CoordinatorKill::AfterDecision;
                report.coordinator_kill_rounds += 1;
            }
        }

        let outcome = if exec_failed {
            // A refused execution should be impossible in this sequential
            // driver (rounds heal before the next begins); stay defensive
            // and roll the transaction back at its objects.
            for p in txn.participants() {
                p.abort_txn(txn.id());
            }
            CommitOutcome::Aborted { site: "driver".into() }
        } else {
            let refs: Vec<&Site> = chosen.iter().map(|&s| &sites[s].up().site).collect();
            coord.commit_with_kill(&txn, &refs, coord_kill)
        };

        for &s in &killed_sites {
            sites[s].crashed = true;
        }

        // Account the outcome.
        let (decided_ts, missed) = match outcome {
            CommitOutcome::Committed(ts) => (Some(ts), Vec::new()),
            CommitOutcome::CommittedPartial { ts, missed } => (Some(ts), missed),
            CommitOutcome::Aborted { .. } => (None, Vec::new()),
        };
        if let Some(_ts) = decided_ts {
            report.decided += 1;
            for (s, delta) in &deltas {
                expected[*s] += *delta;
            }
        } else {
            report.aborted += 1;
            // Make sure no site is left holding the aborted intent: the
            // coordinator already sent aborts to live sites; crashed ones
            // are rebuilt below.
        }

        // Heal: revive crashed sites from their WALs + the decision log,
        // then redeliver any unacknowledged phase 2.
        if sites.iter().any(|s| s.crashed) || !missed.is_empty() {
            let decisions = coordinator_decisions(&coord_dir).expect("decision log readable");
            for s in 0..opts.sites {
                if !sites[s].crashed {
                    continue;
                }
                // Drop the dead incarnation first: it holds the WAL's
                // appender, and two appenders on one log directory would
                // be a correctness bug, not a simulation.
                let site = &mut sites[s];
                site.live = None;
                site.live = Some(
                    spawn_site(&site.dir, &site.name, opts.durability, &decisions)
                        .expect("site revives from its WAL"),
                );
                site.crashed = false;
            }
            if let Some(ts) = decided_ts {
                if !missed.is_empty() {
                    let targets: Vec<&Site> = chosen.iter().map(|&s| &sites[s].up().site).collect();
                    match coord.retry_phase2(txn.id(), ts, &targets, opts.retries) {
                        CommitOutcome::Committed(_) => report.healed_partials += 1,
                        other => panic!("healing retry failed in round {round}: {other:?}"),
                    }
                }
            }
        }

        // Invariant after healing: every participant site's live balance
        // reflects exactly the decided history.
        for &s in &chosen {
            assert_eq!(
                sites[s].up().acct.committed_balance(),
                expected[s],
                "round {round}: site {s} diverged (outcome decided={decided_ts:?})",
            );
        }
    }

    // Final convergence: every site, live and — once the live incarnation
    // has let go of its directory — restarted from scratch.
    let decisions = coordinator_decisions(&coord_dir).expect("decision log readable");
    for (s, mut site) in sites.into_iter().enumerate() {
        assert_eq!(site.up().acct.committed_balance(), expected[s], "live site {s} diverged");
        site.live = None;
        let fresh = spawn_site(&site.dir, &site.name, opts.durability, &decisions)
            .expect("site WAL recovers");
        assert_eq!(
            fresh.acct.committed_balance(),
            expected[s],
            "from-scratch recovery of site {s} diverged"
        );
    }
    assert!(report.decided > 0, "workload decided nothing — kill rates too high?");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp(name: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hcc-multisite-{}-{}-{}",
            std::process::id(),
            name,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn randomized_multisite_crashes_converge() {
        let dir = tmp("converge");
        let report = multisite_crash_converges(&dir, MultisiteOptions::default());
        assert!(report.site_kill_rounds + report.coordinator_kill_rounds > 0, "kills injected");
    }
}
