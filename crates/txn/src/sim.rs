//! A message-passing simulation of distributed two-phase commitment.
//!
//! The paper's model is distributed: objects live at sites, and a commit
//! protocol [9, 19, 26] delivers `commit(t)` events with a single
//! timestamp to every site. This module simulates that setting in-process:
//! each [`Site`] is a thread owning a set of objects and serving
//! prepare/commit/abort messages over crossbeam channels; the
//! [`Coordinator`] runs the two-phase protocol with a vote timeout, and
//! sites can be *crashed* to exercise the abort path.
//!
//! ## Durability
//!
//! The simulation speaks the same self-logging dialect as the single-site
//! manager:
//!
//! * objects hosted at a site are built with options carrying the
//!   site's [`DurableStore`] as their redo sink, so every mutating
//!   operation appends to that site's own WAL automatically — and one
//!   the WAL could not take dooms its transaction, which the site then
//!   votes down;
//! * a durable [`Site`] (see [`Site::spawn_durable`]) logs each phase-2
//!   commit decision to its WAL *before* applying it;
//! * the [`Coordinator`] can carry a decision log
//!   ([`Coordinator::with_decision_log`]): the commit decision is made
//!   durable before any phase-2 message is sent — the classic 2PC
//!   write-ahead rule;
//! * a site restarts as an ordinary database: `hcc_db`'s
//!   `Db::builder().decisions(..).open(dir)` recovers its WAL, resolving
//!   *in-doubt* transactions (ops logged, no local decision — the site
//!   crashed between its yes-vote and the phase-2 message) against the
//!   coordinator's recovered decisions ([`coordinator_decisions`]); the
//!   site's objects, built over that database's store, join it with
//!   `Db::attach`.
//!
//! A site crashed between Prepare and Commit no longer vanishes silently:
//! phase 2 collects acknowledgements, and the coordinator reports
//! [`CommitOutcome::CommittedPartial`] naming the sites that never
//! confirmed — the commit *is* decided (phase 1 closed), but delivery is
//! known-incomplete until those sites recover.

use crate::clock::LogicalClock;
use crate::registry::Decisions;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use hcc_core::runtime::{TxParticipant, TxnHandle, TxnPhase};
use hcc_spec::TxnId;
use hcc_storage::{DurableStore, StorageError};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Messages a site serves.
enum SiteMsg {
    /// Phase 1: vote on committing `txn`.
    Prepare { txn: Arc<TxnHandle>, reply: Sender<bool> },
    /// Phase 2: `txn` committed at timestamp `ts`; acknowledge on `ack`.
    Commit { txn: TxnId, ts: u64, ack: Sender<()> },
    /// `txn` aborted.
    Abort { txn: TxnId },
    /// Stop responding (simulated crash).
    Crash,
    /// Reply to the next Prepare, then crash — the window between a
    /// yes-vote and the phase-2 message.
    CrashAfterPrepare,
    /// Clean shutdown.
    Shutdown,
}

/// A simulated site hosting a set of objects.
pub struct Site {
    name: String,
    tx: Sender<SiteMsg>,
    thread: Option<JoinHandle<()>>,
}

impl Site {
    /// Spawn a site thread serving the given objects (no durable log).
    pub fn spawn(name: impl Into<String>, objects: Vec<Arc<dyn TxParticipant>>) -> Site {
        Self::spawn_inner(name.into(), objects, None)
    }

    /// Spawn a site whose WAL discipline is full 2PC-participant grade:
    /// hosted objects self-log through `store` (pass it as the redo sink
    /// in their options), a yes-vote **forces the WAL to disk first** (ops
    /// must survive once the coordinator may decide commit), and phase-2
    /// decisions are logged before being applied.
    pub fn spawn_durable(
        name: impl Into<String>,
        objects: Vec<Arc<dyn TxParticipant>>,
        store: Arc<DurableStore>,
    ) -> Site {
        Self::spawn_inner(name.into(), objects, Some(store))
    }

    fn spawn_inner(
        name: String,
        objects: Vec<Arc<dyn TxParticipant>>,
        wal: Option<Arc<DurableStore>>,
    ) -> Site {
        let (tx, rx): (Sender<SiteMsg>, Receiver<SiteMsg>) = unbounded();
        let thread_name = name.clone();
        let thread = std::thread::Builder::new()
            .name(format!("site-{thread_name}"))
            .spawn(move || {
                let mut crashed = false;
                let mut crash_after_prepare = false;
                while let Ok(msg) = rx.recv() {
                    match msg {
                        SiteMsg::Prepare { txn, reply } => {
                            if !crashed {
                                // An object votes no for a transaction
                                // that lost one of its op records (the
                                // loss doomed it).
                                let mut vote = objects.iter().all(|o| o.prepare(&txn));
                                if let Some(wal) = &wal {
                                    // Classic 2PC: the participant forces
                                    // its log before voting yes — once the
                                    // coordinator may decide commit, the
                                    // ops must survive a crash. A failed
                                    // force means the log is incomplete:
                                    // vote no.
                                    vote = vote && wal.sync().is_ok();
                                }
                                let _ = reply.send(vote);
                                if crash_after_prepare {
                                    crashed = true;
                                }
                            }
                            // A crashed site never replies: the coordinator
                            // times out and aborts.
                        }
                        SiteMsg::Commit { txn, ts, ack } => {
                            if !crashed {
                                // Write-ahead at the participant: the local
                                // decision record must reach the site's WAL
                                // before the effects are applied. A site
                                // that cannot make the decision durable
                                // behaves like a crashed one — no apply, no
                                // ack — so the coordinator reports partial
                                // delivery and recovery heals it from the
                                // decision logs, instead of acknowledging a
                                // commit a restart would lose.
                                let logged = match &wal {
                                    Some(wal) => wal.log_commit(txn.0, ts).is_ok(),
                                    None => true,
                                };
                                if logged {
                                    for o in &objects {
                                        o.commit_at(txn, ts);
                                    }
                                    let _ = ack.send(());
                                }
                            }
                            // A crashed site neither applies nor
                            // acknowledges: the coordinator reports the
                            // delivery as partial.
                        }
                        SiteMsg::Abort { txn } => {
                            if !crashed {
                                if let Some(wal) = &wal {
                                    let _ = wal.log_abort(txn.0);
                                }
                                for o in &objects {
                                    o.abort_txn(txn);
                                }
                            }
                        }
                        SiteMsg::Crash => crashed = true,
                        SiteMsg::CrashAfterPrepare => crash_after_prepare = true,
                        SiteMsg::Shutdown => break,
                    }
                }
            })
            .expect("spawn site thread");
        Site { name, tx, thread: Some(thread) }
    }

    /// The site's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Simulate a crash: the site stops voting and applying.
    pub fn crash(&self) {
        let _ = self.tx.send(SiteMsg::Crash);
    }

    /// Simulate a crash in the prepare→commit window: the site answers
    /// the next Prepare (voting normally), then stops responding — so the
    /// phase-2 Commit message finds it dead.
    pub fn crash_after_prepare(&self) {
        let _ = self.tx.send(SiteMsg::CrashAfterPrepare);
    }
}

impl Drop for Site {
    fn drop(&mut self) {
        let _ = self.tx.send(SiteMsg::Shutdown);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The two-phase-commit coordinator.
pub struct Coordinator {
    clock: Arc<LogicalClock>,
    vote_timeout: Duration,
    /// The coordinator's own durable decision log: commit decisions are
    /// persisted here before any phase-2 message goes out, so recovering
    /// sites can resolve their in-doubt transactions.
    decisions: Option<Arc<DurableStore>>,
}

/// Outcome of a distributed commit attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// All sites voted yes and acknowledged the phase-2 commit.
    Committed(u64),
    /// The commit was *decided* (every site voted yes) but one or more
    /// sites never acknowledged the phase-2 message — crashed in the
    /// prepare→commit window. Their durable effects are recovered when
    /// the site reopens against the coordinator's decision log; reporting
    /// this as a plain `Committed` would silently hide that live replicas
    /// disagree until then.
    CommittedPartial {
        /// The commit timestamp.
        ts: u64,
        /// Sites that did not acknowledge within the timeout.
        missed: Vec<String>,
    },
    /// Aborted: a site voted no or failed to vote in time (or the
    /// coordinator could not persist its decision).
    Aborted {
        /// The site that caused the abort.
        site: String,
    },
}

/// An injected coordinator failure for crash workloads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CoordinatorKill {
    /// Run the protocol to completion.
    #[default]
    None,
    /// Crash right after the decision record is durable and before any
    /// phase-2 message is sent — the window the decision log exists for.
    /// Every site is left in doubt; the outcome reports them all missed.
    AfterDecision,
}

impl Coordinator {
    /// A coordinator over the given clock.
    pub fn new(clock: Arc<LogicalClock>) -> Coordinator {
        Coordinator { clock, vote_timeout: Duration::from_millis(200), decisions: None }
    }

    /// Set the prepare-vote (and phase-2 acknowledgement) timeout.
    pub fn with_vote_timeout(mut self, t: Duration) -> Coordinator {
        self.vote_timeout = t;
        self
    }

    /// Attach a durable decision log: every commit decision is persisted
    /// before phase 2 begins. [`coordinator_decisions`] reads it back for
    /// in-doubt resolution at recovering sites.
    pub fn with_decision_log(mut self, store: Arc<DurableStore>) -> Coordinator {
        self.decisions = Some(store);
        self
    }

    /// Run two-phase commit for `txn` across `sites`.
    ///
    /// Phase 1 collects votes with a timeout; if every site votes yes, a
    /// timestamp above the transaction's bound is generated, the decision
    /// is made durable (when a decision log is attached), and phase 2
    /// distributes it, collecting acknowledgements. Either way all sites
    /// reach the same verdict: atomic commitment.
    pub fn commit(&self, txn: &Arc<TxnHandle>, sites: &[Site]) -> CommitOutcome {
        let refs: Vec<&Site> = sites.iter().collect();
        self.commit_with_kill(txn, &refs, CoordinatorKill::None)
    }

    /// [`Coordinator::commit`] with an injected coordinator crash — the
    /// crash workloads' kill-point hook. Takes site references so
    /// long-lived harnesses can keep ownership of their sites.
    pub fn commit_with_kill(
        &self,
        txn: &Arc<TxnHandle>,
        sites: &[&Site],
        kill: CoordinatorKill,
    ) -> CommitOutcome {
        // Phase 1.
        let mut pending = Vec::new();
        for site in sites {
            let (rtx, rrx) = bounded(1);
            let _ = site.tx.send(SiteMsg::Prepare { txn: txn.clone(), reply: rtx });
            pending.push((site, rrx));
        }
        for (site, rrx) in &pending {
            match rrx.recv_timeout(self.vote_timeout) {
                Ok(true) => {}
                _ => {
                    // Vote no or timeout: abort everywhere.
                    txn.set_phase(TxnPhase::Aborted);
                    for s in sites {
                        let _ = s.tx.send(SiteMsg::Abort { txn: txn.id() });
                    }
                    if let Some(log) = &self.decisions {
                        let _ = log.log_abort(txn.id().0);
                    }
                    return CommitOutcome::Aborted { site: site.name.clone() };
                }
            }
        }
        // The decision point: generate the timestamp and (when configured)
        // persist the decision before any site hears about it — a
        // recovering participant must always be able to learn the verdict.
        let ts = self.clock.timestamp_after(txn.bound());
        if let Some(log) = &self.decisions {
            if log.log_commit(txn.id().0, ts).is_err() {
                // An undecidable decision log means the verdict could be
                // lost; aborting is the only outcome recovery can always
                // reconstruct. The commit frame may still have reached
                // disk even though its fsync failed — a durable abort
                // record makes recovery's abort-wins rule suppress it, so
                // no recovering site can resurrect a decision every live
                // site is about to discard.
                let _ = log.log_abort_durable(txn.id().0);
                txn.set_phase(TxnPhase::Aborted);
                for s in sites {
                    let _ = s.tx.send(SiteMsg::Abort { txn: txn.id() });
                }
                return CommitOutcome::Aborted { site: "coordinator".to_string() };
            }
        }
        // The decision is now durable (or no log is configured). A
        // coordinator crash from here on cannot change the verdict — only
        // delay its delivery.
        txn.set_phase(TxnPhase::Committed(ts));
        if kill == CoordinatorKill::AfterDecision {
            // Crash before phase 2: every site stays in doubt until a
            // recovered coordinator redelivers ([`Coordinator::retry_phase2`])
            // or the site restarts and consults the decision log.
            return CommitOutcome::CommittedPartial {
                ts,
                missed: sites.iter().map(|s| s.name.clone()).collect(),
            };
        }
        // Phase 2: distribute the timestamp and collect acknowledgements.
        match self.deliver_phase2(txn.id(), ts, sites) {
            missed if missed.is_empty() => CommitOutcome::Committed(ts),
            missed => CommitOutcome::CommittedPartial { ts, missed },
        }
    }

    /// Send `Commit {txn, ts}` to every site in `sites` and collect
    /// acknowledgements under one shared deadline (k dead sites cost one
    /// timeout, not k of them). Returns the names of sites that did not
    /// acknowledge.
    fn deliver_phase2(&self, txn: TxnId, ts: u64, sites: &[&Site]) -> Vec<String> {
        let mut acks = Vec::new();
        for s in sites {
            let (atx, arx) = bounded(1);
            let _ = s.tx.send(SiteMsg::Commit { txn, ts, ack: atx });
            acks.push((s, arx));
        }
        let deadline = std::time::Instant::now() + self.vote_timeout;
        let mut missed = Vec::new();
        for (site, arx) in &acks {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if arx.recv_timeout(remaining).is_err() {
                missed.push(site.name.clone());
            }
        }
        missed
    }

    /// Redeliver a *decided* commit to sites that never acknowledged
    /// phase 2, up to `max_rounds` times — the recovery half of
    /// [`CommitOutcome::CommittedPartial`]. The caller passes the live
    /// `Site` handles to retry against (typically freshly recovered
    /// replacements of the crashed ones); delivery
    /// is idempotent at the sites, so redelivering to a site that already
    /// applied the commit (live or via recovery) is harmless. Returns
    /// `Committed` once every site acknowledged, or `CommittedPartial`
    /// naming the still-unreachable ones.
    pub fn retry_phase2(
        &self,
        txn: TxnId,
        ts: u64,
        sites: &[&Site],
        max_rounds: usize,
    ) -> CommitOutcome {
        let mut pending: Vec<&Site> = sites.to_vec();
        for _ in 0..max_rounds {
            let missed = self.deliver_phase2(txn, ts, &pending);
            if missed.is_empty() {
                return CommitOutcome::Committed(ts);
            }
            pending.retain(|s| missed.contains(&s.name));
        }
        CommitOutcome::CommittedPartial {
            ts,
            missed: pending.into_iter().map(|s| s.name.clone()).collect(),
        }
    }
}

/// The commit decisions a coordinator's log survived with: `txn → ts` —
/// what a restarting site hands to `Db::builder().decisions(..)`.
pub fn coordinator_decisions(dir: impl AsRef<Path>) -> Result<Decisions, StorageError> {
    let recovered = DurableStore::recover(dir)?;
    Ok(recovered.committed.into_iter().map(|c| (c.txn, c.ts)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_adts::account::AccountObject;
    use hcc_spec::{Rational, TxnId};

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn wait_for_balance(a: &AccountObject, expect: Rational) {
        for _ in 0..100 {
            if a.committed_balance() == expect {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(a.committed_balance(), expect);
    }

    #[test]
    fn distributed_commit_reaches_all_sites() {
        let a = Arc::new(AccountObject::hybrid("a"));
        let b = Arc::new(AccountObject::hybrid("b"));
        let site1 = Site::spawn("s1", vec![a.inner().clone()]);
        let site2 = Site::spawn("s2", vec![b.inner().clone()]);
        let clock = Arc::new(LogicalClock::new());
        let coord = Coordinator::new(clock);

        let t = TxnHandle::new(TxnId(1));
        a.credit(&t, r(5)).unwrap();
        b.credit(&t, r(7)).unwrap();
        match coord.commit(&t, &[site1, site2]) {
            CommitOutcome::Committed(ts) => assert!(ts > 0),
            other => panic!("expected commit, got {other:?}"),
        }
        wait_for_balance(&a, r(5));
        wait_for_balance(&b, r(7));
    }

    #[test]
    fn crashed_site_aborts_the_transaction_everywhere() {
        let a = Arc::new(AccountObject::hybrid("a"));
        let b = Arc::new(AccountObject::hybrid("b"));
        let site1 = Site::spawn("s1", vec![a.inner().clone()]);
        let site2 = Site::spawn("s2", vec![b.inner().clone()]);
        let clock = Arc::new(LogicalClock::new());
        let coord = Coordinator::new(clock).with_vote_timeout(Duration::from_millis(50));

        let t = TxnHandle::new(TxnId(1));
        a.credit(&t, r(5)).unwrap();
        b.credit(&t, r(7)).unwrap();
        site2.crash();
        match coord.commit(&t, &[site1, site2]) {
            CommitOutcome::Aborted { site } => assert_eq!(site, "s2"),
            other => panic!("expected abort, got {other:?}"),
        }
        // The surviving site aborted too: all-or-nothing.
        wait_for_balance(&a, r(0));
        assert_eq!(t.phase(), TxnPhase::Aborted);
    }

    #[test]
    fn doomed_transaction_is_voted_down() {
        let a = Arc::new(AccountObject::hybrid("a"));
        let site1 = Site::spawn("s1", vec![a.inner().clone()]);
        let clock = Arc::new(LogicalClock::new());
        let coord = Coordinator::new(clock);
        let t = TxnHandle::new(TxnId(1));
        a.credit(&t, r(5)).unwrap();
        t.doom();
        assert!(matches!(coord.commit(&t, &[site1]), CommitOutcome::Aborted { .. }));
    }

    /// Regression: a site crashed between Prepare and Commit used to drop
    /// the phase-2 message silently — the coordinator reported a clean
    /// `Committed` while one replica had never applied (or logged) the
    /// transaction. The outcome now names the site.
    #[test]
    fn crash_between_prepare_and_commit_is_reported_not_swallowed() {
        let a = Arc::new(AccountObject::hybrid("a"));
        let b = Arc::new(AccountObject::hybrid("b"));
        let site1 = Site::spawn("s1", vec![a.inner().clone()]);
        let site2 = Site::spawn("s2", vec![b.inner().clone()]);
        let clock = Arc::new(LogicalClock::new());
        let coord = Coordinator::new(clock).with_vote_timeout(Duration::from_millis(100));

        let t = TxnHandle::new(TxnId(1));
        a.credit(&t, r(5)).unwrap();
        b.credit(&t, r(7)).unwrap();
        site2.crash_after_prepare();
        match coord.commit(&t, &[site1, site2]) {
            CommitOutcome::CommittedPartial { ts, missed } => {
                assert!(ts > 0);
                assert_eq!(missed, vec!["s2".to_string()]);
            }
            other => panic!("expected partial commit, got {other:?}"),
        }
        // The commit *was* decided; the surviving site applied it.
        wait_for_balance(&a, r(5));
        assert_eq!(b.committed_balance(), r(0), "crashed site never applied");
    }

    /// A durable site whose WAL could not take one op record — the
    /// rotation it needs finds no directory to create its segment in —
    /// votes no for that transaction and yes for the next one.
    #[test]
    fn a_lost_op_record_votes_down_only_its_transaction() {
        use hcc_core::runtime::RuntimeOptions;
        use hcc_storage::{CompactionPolicy, Durability, StorageOptions};

        let dir = std::env::temp_dir().join(format!("hcc-sim-lost-op-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StorageOptions {
            segment_max_bytes: 1, // every append rotates
            durability: Durability::Buffered,
            policy: CompactionPolicy::never(),
        };
        let store = DurableStore::open(&dir, opts).unwrap();
        let a = Arc::new(AccountObject::with_options(
            "a",
            RuntimeOptions::default().with_redo(store.clone()),
        ));
        let site = Site::spawn_durable("s", vec![a.inner().clone()], store.clone());
        let coord = Coordinator::new(Arc::new(LogicalClock::new()));
        let commit =
            |t: &Arc<TxnHandle>| coord.commit_with_kill(t, &[&site], CoordinatorKill::None);

        let stream = dir.join(hcc_storage::wal::STREAM_DIR);
        let away = dir.join("moved-away");
        std::fs::rename(&stream, &away).unwrap();
        let t1 = TxnHandle::new(TxnId(1));
        a.credit(&t1, r(5)).unwrap();
        std::fs::rename(&away, &stream).unwrap();
        assert_eq!(commit(&t1), CommitOutcome::Aborted { site: "s".into() });

        let t2 = TxnHandle::new(TxnId(2));
        a.credit(&t2, r(7)).unwrap();
        assert!(matches!(commit(&t2), CommitOutcome::Committed(_)));
        wait_for_balance(&a, r(7));
        drop(site);
        let recovered = DurableStore::recover(&dir).unwrap();
        assert_eq!(recovered.committed.iter().map(|c| c.txn).collect::<Vec<_>>(), vec![2]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
