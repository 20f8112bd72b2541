//! The LOCK state machine (Section 5.1) with Section-6 compaction.
//!
//! State components follow the paper exactly:
//!
//! * `s.pending` — pending invocation per transaction;
//! * `s.intentions` — each active transaction's intentions list (the locks
//!   are implicit in it);
//! * `s.committed` — commit timestamps; committed intentions are kept in
//!   timestamp order and folded into a compact `base` frontier when the
//!   horizon passes them;
//! * `s.aborted` — aborted transactions;
//! * `s.clock` / `s.bound` — the Section-6 auxiliary components: the latest
//!   observed commit timestamp, and a lower bound on each active
//!   transaction's eventual commit timestamp.
//!
//! A response event can occur only if the operation is legal in the
//! transaction's *view* (committed state + own intentions) and conflicts
//! with no operation of another active transaction; this is the whole
//! algorithm.

use hcc_relations::relation::Relation;
use hcc_spec::adt::SharedAdt;
use hcc_spec::{Event, Frontier, History, Inv, ObjectId, Operation, Timestamp, TxnId, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Outcome of attempting a response event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RespondOutcome {
    /// The response event occurred with this value; the operation was
    /// appended to the transaction's intentions list.
    Responded(Value),
    /// Every legal response conflicts with an operation of some other
    /// active transaction; the invocation stays pending and should be
    /// retried after one of them completes.
    Blocked {
        /// Active transactions holding conflicting locks.
        conflicts_with: Vec<TxnId>,
    },
    /// The operation is not (yet) defined in the transaction's view — a
    /// *partial* operation such as `Deq` on an empty queue. The invocation
    /// stays pending.
    Undefined,
}

/// A violated precondition or well-formedness constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// The transaction already has a pending invocation.
    InvocationWhilePending(TxnId),
    /// No invocation is pending for the transaction.
    NoPendingInvocation(TxnId),
    /// The transaction has already committed or aborted.
    TxnCompleted(TxnId),
    /// Commit attempted while an invocation is pending.
    CommitWhilePending(TxnId),
    /// Commit attempted after an abort (or vice versa).
    CommitAbortConflict(TxnId),
    /// A different transaction already committed with this timestamp.
    TimestampReused(Timestamp, TxnId),
    /// The transaction previously committed with a different timestamp.
    TimestampMismatch(TxnId),
    /// The timestamp is not later than the transaction's recorded lower
    /// bound — committing with it would contradict `precedes ⊆ TS`.
    TimestampTooEarly {
        /// Offending transaction.
        txn: TxnId,
        /// Exclusive lower bound on admissible timestamps.
        bound: Timestamp,
    },
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::InvocationWhilePending(t) => {
                write!(f, "transaction {t:?} already has a pending invocation")
            }
            MachineError::NoPendingInvocation(t) => {
                write!(f, "no invocation is pending for transaction {t:?}")
            }
            MachineError::TxnCompleted(t) => {
                write!(f, "transaction {t:?} has already committed or aborted")
            }
            MachineError::CommitWhilePending(t) => {
                write!(f, "commit of {t:?} attempted while an invocation is pending")
            }
            MachineError::CommitAbortConflict(t) => {
                write!(f, "commit and abort both attempted for transaction {t:?}")
            }
            MachineError::TimestampReused(ts, t) => {
                write!(f, "timestamp {ts:?} was already committed by transaction {t:?}")
            }
            MachineError::TimestampMismatch(t) => {
                write!(f, "transaction {t:?} previously committed with a different timestamp")
            }
            MachineError::TimestampTooEarly { txn, bound } => {
                write!(
                    f,
                    "timestamp for {txn:?} is not above its lower bound {bound:?} \
                     (precedes ⊆ TS would be violated)"
                )
            }
        }
    }
}

impl std::error::Error for MachineError {}

/// The formal LOCK machine for one object.
pub struct LockMachine {
    obj: ObjectId,
    adt: SharedAdt,
    conflict: Arc<Relation>,
    pending: HashMap<TxnId, Inv>,
    intentions: HashMap<TxnId, Vec<Operation>>,
    committed: HashMap<TxnId, Timestamp>,
    committed_intents: BTreeMap<Timestamp, (TxnId, Vec<Operation>)>,
    aborted: HashSet<TxnId>,
    /// Compacted common prefix, as a specification frontier.
    base: Frontier,
    /// Number of operations folded into `base` (metrics / Theorem 24).
    base_ops: usize,
    clock: Option<Timestamp>,
    bounds: HashMap<TxnId, Timestamp>,
    auto_compact: bool,
    history: History,
}

impl LockMachine {
    /// A machine for object `obj` with serial specification `adt` and the
    /// conflict relation (the symmetric closure of `conflict`'s atoms).
    pub fn new(obj: ObjectId, adt: SharedAdt, conflict: Arc<Relation>) -> LockMachine {
        let base = Frontier::initial(adt.as_ref());
        LockMachine {
            obj,
            adt,
            conflict,
            pending: HashMap::new(),
            intentions: HashMap::new(),
            committed: HashMap::new(),
            committed_intents: BTreeMap::new(),
            aborted: HashSet::new(),
            base,
            base_ops: 0,
            clock: None,
            bounds: HashMap::new(),
            auto_compact: false,
            history: History::new(),
        }
    }

    /// Enable/disable automatic compaction after completion events
    /// (the appendix calls `forget()` from `commit` and `abort`).
    pub fn set_auto_compact(&mut self, on: bool) -> &mut Self {
        self.auto_compact = on;
        self
    }

    /// The object this machine implements.
    pub fn object(&self) -> ObjectId {
        self.obj
    }

    /// The recorded event history (for the verifier).
    pub fn history(&self) -> &History {
        &self.history
    }

    fn is_completed(&self, txn: TxnId) -> bool {
        self.committed.contains_key(&txn) || self.aborted.contains(&txn)
    }

    /// `⟨inv, X, Q⟩`: record a pending invocation.
    pub fn invoke(&mut self, txn: TxnId, inv: Inv) -> Result<(), MachineError> {
        if self.pending.contains_key(&txn) {
            return Err(MachineError::InvocationWhilePending(txn));
        }
        if self.is_completed(txn) {
            return Err(MachineError::TxnCompleted(txn));
        }
        self.history.push(Event::Invoke { obj: self.obj, txn, inv: inv.clone() });
        self.pending.insert(txn, inv);
        Ok(())
    }

    /// The transaction's view (Section 5.1): committed intentions in
    /// timestamp order followed by its own intentions list, *after* the
    /// compacted base.
    fn view_frontier(&self, txn: TxnId) -> Frontier {
        let mut f = self.base.clone();
        for (_, ops) in self.committed_intents.values() {
            f = f.advance_seq(self.adt.as_ref(), ops);
        }
        if let Some(own) = self.intentions.get(&txn) {
            f = f.advance_seq(self.adt.as_ref(), own);
        }
        f
    }

    /// The operations of the transaction's view after the compacted base
    /// (diagnostics and tests).
    pub fn view_ops(&self, txn: TxnId) -> Vec<Operation> {
        let mut out = Vec::new();
        for (_, ops) in self.committed_intents.values() {
            out.extend(ops.iter().cloned());
        }
        if let Some(own) = self.intentions.get(&txn) {
            out.extend(own.iter().cloned());
        }
        out
    }

    /// Attempt the response event for `txn`'s pending invocation.
    ///
    /// Candidate responses are drawn from the serial specification applied
    /// to the view; a candidate can be returned only if the resulting
    /// operation conflicts with no operation executed by another active
    /// transaction. On success the pending invocation is consumed; when
    /// blocked or undefined it stays pending (the paper: "the response is
    /// discarded, and the invocation is later retried").
    pub fn try_respond(&mut self, txn: TxnId) -> Result<RespondOutcome, MachineError> {
        let inv = self.pending.get(&txn).cloned().ok_or(MachineError::NoPendingInvocation(txn))?;
        if self.is_completed(txn) {
            return Err(MachineError::TxnCompleted(txn));
        }
        let frontier = self.view_frontier(txn);
        let candidates = frontier.responses(self.adt.as_ref(), &inv);
        if candidates.is_empty() {
            return Ok(RespondOutcome::Undefined);
        }
        let mut blockers: Vec<TxnId> = Vec::new();
        for res in candidates {
            let op = Operation { inv: inv.clone(), res };
            let mut conflicting = self.conflicting_txns(txn, &op);
            if conflicting.is_empty() {
                // Response event occurs.
                let res = op.res.clone();
                self.pending.remove(&txn);
                self.history.push(Event::Respond { obj: self.obj, txn, res: res.clone() });
                self.intentions.entry(txn).or_default().push(op);
                // Section 6: bound(Q) := clock.
                if let Some(c) = self.clock {
                    self.bounds.insert(txn, c);
                }
                return Ok(RespondOutcome::Responded(res));
            }
            blockers.append(&mut conflicting);
        }
        blockers.sort();
        blockers.dedup();
        Ok(RespondOutcome::Blocked { conflicts_with: blockers })
    }

    /// Transactions (other than `txn`, active) holding operations that
    /// conflict with `op`.
    fn conflicting_txns(&self, txn: TxnId, op: &Operation) -> Vec<TxnId> {
        let mut out = Vec::new();
        for (&p, ops) in &self.intentions {
            if p == txn || self.is_completed(p) {
                continue;
            }
            if ops.iter().any(|q| self.conflict.conflicts(q, op)) {
                out.push(p);
            }
        }
        out
    }

    /// Convenience: invoke and retry-respond in one call, for tests and the
    /// oracle driver. Returns the outcome of the single response attempt.
    pub fn execute(&mut self, txn: TxnId, inv: Inv) -> Result<RespondOutcome, MachineError> {
        self.invoke(txn, inv)?;
        self.try_respond(txn)
    }

    /// Drop a pending invocation (a client giving up on a blocked retry).
    /// The recorded invocation event is removed too: a later retry is a
    /// fresh invocation.
    pub fn cancel_pending(&mut self, txn: TxnId) {
        if self.pending.remove(&txn).is_some() {
            self.history.cancel_pending_invocation(txn);
        }
    }

    /// `⟨commit(t), X, Q⟩`.
    pub fn commit(&mut self, txn: TxnId, ts: Timestamp) -> Result<(), MachineError> {
        if self.aborted.contains(&txn) {
            return Err(MachineError::CommitAbortConflict(txn));
        }
        if self.pending.contains_key(&txn) {
            return Err(MachineError::CommitWhilePending(txn));
        }
        if let Some(&prev) = self.committed.get(&txn) {
            if prev != ts {
                return Err(MachineError::TimestampMismatch(txn));
            }
            self.history.push(Event::Commit { obj: self.obj, txn, ts });
            return Ok(()); // repeated commit, same timestamp: allowed
        }
        if let Some(&b) = self.bounds.get(&txn) {
            if ts <= b {
                return Err(MachineError::TimestampTooEarly { txn, bound: b });
            }
        }
        if let Some((other, _)) = self.committed_intents.get(&ts).map(|(t, o)| (*t, o)) {
            if other != txn {
                return Err(MachineError::TimestampReused(ts, other));
            }
        }
        self.history.push(Event::Commit { obj: self.obj, txn, ts });
        let ops = self.intentions.remove(&txn).unwrap_or_default();
        self.committed.insert(txn, ts);
        self.committed_intents.insert(ts, (txn, ops));
        self.clock = Some(self.clock.map_or(ts, |c| c.max(ts)));
        self.bounds.remove(&txn);
        if self.auto_compact {
            self.compact();
        }
        Ok(())
    }

    /// `⟨abort, X, Q⟩`: release locks and discard the intentions list.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), MachineError> {
        if self.committed.contains_key(&txn) {
            return Err(MachineError::CommitAbortConflict(txn));
        }
        self.history.push(Event::Abort { obj: self.obj, txn });
        self.aborted.insert(txn);
        self.pending.remove(&txn);
        self.intentions.remove(&txn);
        self.bounds.remove(&txn);
        if self.auto_compact {
            self.compact();
        }
        Ok(())
    }

    /// The horizon time (Definition 20): a lower bound on the commit
    /// timestamp any active transaction can still choose. `None` encodes
    /// `-∞` (nothing committed).
    pub fn horizon(&self) -> Option<Timestamp> {
        let max_committed = self.committed_intents.keys().next_back().copied()?;
        Some(match self.bounds.values().min() {
            Some(&min_bound) => min_bound.min(max_committed),
            None => max_committed,
        })
    }

    /// Fold committed intentions with timestamps strictly before the
    /// horizon into the compacted base (the appendix's `forget()`).
    ///
    /// Views are unaffected: the folded prefix is a prefix of every view
    /// that will henceforth be assembled (Theorem 24 guarantees the common
    /// prefix only grows).
    pub fn compact(&mut self) {
        let Some(h) = self.horizon() else { return };
        let to_fold: Vec<Timestamp> =
            self.committed_intents.range(..h).map(|(&ts, _)| ts).collect();
        for ts in to_fold {
            let (_, ops) = self.committed_intents.remove(&ts).unwrap();
            self.base = self.base.advance_seq(self.adt.as_ref(), &ops);
            self.base_ops += ops.len();
            debug_assert!(!self.base.is_empty(), "folding committed ops cannot be illegal");
        }
    }

    /// Number of operations folded into the compacted base so far.
    pub fn compacted_ops(&self) -> usize {
        self.base_ops
    }

    /// Number of committed-but-unforgotten transactions (representation
    /// size driver for Section 6 experiments).
    pub fn retained_committed(&self) -> usize {
        self.committed_intents.len()
    }

    /// Number of active (uncommitted, unaborted) transactions with a
    /// non-empty intentions list.
    pub fn active_txns(&self) -> usize {
        self.intentions.keys().filter(|t| !self.is_completed(**t)).count()
    }

    /// The latest observed commit timestamp (`s.clock`), if any.
    pub fn clock(&self) -> Option<Timestamp> {
        self.clock
    }

    /// The recorded lower bound for an active transaction (`s.bound`).
    pub fn bound(&self, txn: TxnId) -> Option<Timestamp> {
        self.bounds.get(&txn).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_relations::tables::{paper_table_ii, AdtConfig};
    use hcc_spec::specs::QueueSpec;

    fn queue_machine() -> LockMachine {
        // Table II conflicts: deq↔enq of different items, deq↔deq of same.
        let conflict = Relation::new(AdtConfig::queue().classify, paper_table_ii());
        LockMachine::new(ObjectId(0), Arc::new(QueueSpec), Arc::new(conflict))
    }

    /// The empty relation: not a dependency relation for the queue.
    fn no_conflict() -> Arc<Relation> {
        Arc::new(Relation::empty(AdtConfig::queue().classify))
    }

    fn ts(n: u64) -> Timestamp {
        Timestamp(n)
    }
    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn concurrent_enqueues_are_admitted() {
        // The headline example: P and Q enqueue concurrently even though
        // enqueues do not commute.
        let mut m = queue_machine();
        assert_eq!(
            m.execute(t(1), QueueSpec::enq(1)).unwrap(),
            RespondOutcome::Responded(Value::Unit)
        );
        assert_eq!(
            m.execute(t(2), QueueSpec::enq(2)).unwrap(),
            RespondOutcome::Responded(Value::Unit)
        );
        m.commit(t(2), ts(1)).unwrap();
        m.commit(t(1), ts(2)).unwrap();
        // A reader dequeues in commit-timestamp order: 2 then 1.
        assert_eq!(
            m.execute(t(3), QueueSpec::deq()).unwrap(),
            RespondOutcome::Responded(Value::Int(2))
        );
        assert_eq!(
            m.execute(t(3), QueueSpec::deq()).unwrap(),
            RespondOutcome::Responded(Value::Int(1))
        );
        m.commit(t(3), ts(5)).unwrap();
        m.history().well_formed().unwrap();
    }

    #[test]
    fn deq_blocks_on_concurrent_enqueue_of_other_item() {
        let mut m = queue_machine();
        m.execute(t(1), QueueSpec::enq(7)).unwrap();
        m.commit(t(1), ts(1)).unwrap();
        // P enqueues 9 but has not committed.
        m.execute(t(2), QueueSpec::enq(9)).unwrap();
        // R wants to dequeue; the committed front is 7, and deq→7
        // conflicts with the uncommitted enq(9).
        let out = m.execute(t(3), QueueSpec::deq()).unwrap();
        assert_eq!(out, RespondOutcome::Blocked { conflicts_with: vec![t(2)] });
        // After P commits, the retry succeeds.
        m.commit(t(2), ts(2)).unwrap();
        assert_eq!(m.try_respond(t(3)).unwrap(), RespondOutcome::Responded(Value::Int(7)));
    }

    #[test]
    fn deq_on_empty_queue_is_undefined() {
        let mut m = queue_machine();
        assert_eq!(m.execute(t(1), QueueSpec::deq()).unwrap(), RespondOutcome::Undefined);
        // Invocation stays pending; enq+commit by another txn unblocks it.
        m.execute(t(2), QueueSpec::enq(4)).unwrap();
        m.commit(t(2), ts(1)).unwrap();
        assert_eq!(m.try_respond(t(1)).unwrap(), RespondOutcome::Responded(Value::Int(4)));
    }

    #[test]
    fn transactions_see_their_own_intentions() {
        let mut m = queue_machine();
        m.execute(t(1), QueueSpec::enq(3)).unwrap();
        assert_eq!(
            m.execute(t(1), QueueSpec::deq()).unwrap(),
            RespondOutcome::Responded(Value::Int(3))
        );
    }

    #[test]
    fn aborted_transaction_releases_locks() {
        let mut m = queue_machine();
        m.execute(t(1), QueueSpec::enq(7)).unwrap();
        m.commit(t(1), ts(1)).unwrap();
        m.execute(t(2), QueueSpec::enq(9)).unwrap();
        assert!(matches!(
            m.execute(t(3), QueueSpec::deq()).unwrap(),
            RespondOutcome::Blocked { .. }
        ));
        m.abort(t(2)).unwrap();
        assert_eq!(m.try_respond(t(3)).unwrap(), RespondOutcome::Responded(Value::Int(7)));
        // The aborted enqueue leaves no trace.
        m.commit(t(3), ts(2)).unwrap();
        assert_eq!(m.execute(t(4), QueueSpec::deq()).unwrap(), RespondOutcome::Undefined);
    }

    #[test]
    fn commit_preconditions() {
        let mut m = queue_machine();
        m.invoke(t(1), QueueSpec::enq(1)).unwrap();
        assert_eq!(m.commit(t(1), ts(1)), Err(MachineError::CommitWhilePending(t(1))));
        m.try_respond(t(1)).unwrap();
        // t2 executes before t1 commits, so it has no bound yet.
        m.execute(t(2), QueueSpec::enq(2)).unwrap();
        m.commit(t(1), ts(1)).unwrap();
        // Repeat commit with the same timestamp is fine; different is not.
        m.commit(t(1), ts(1)).unwrap();
        assert_eq!(m.commit(t(1), ts(2)), Err(MachineError::TimestampMismatch(t(1))));
        // Another transaction cannot reuse the timestamp.
        assert_eq!(m.commit(t(2), ts(1)), Err(MachineError::TimestampReused(ts(1), t(1))));
        // Abort after commit is rejected.
        assert_eq!(m.abort(t(1)), Err(MachineError::CommitAbortConflict(t(1))));
    }

    #[test]
    fn timestamp_must_exceed_bound() {
        let mut m = queue_machine();
        m.execute(t(1), QueueSpec::enq(1)).unwrap();
        m.commit(t(1), ts(10)).unwrap();
        // t2 executes after t1 committed: bound(t2) = 10.
        m.execute(t(2), QueueSpec::enq(2)).unwrap();
        assert_eq!(m.bound(t(2)), Some(ts(10)));
        assert_eq!(
            m.commit(t(2), ts(10)),
            Err(MachineError::TimestampTooEarly { txn: t(2), bound: ts(10) })
        );
        m.commit(t(2), ts(11)).unwrap();
    }

    #[test]
    fn double_invocation_rejected() {
        let mut m = queue_machine();
        m.invoke(t(1), QueueSpec::enq(1)).unwrap();
        assert_eq!(
            m.invoke(t(1), QueueSpec::enq(2)),
            Err(MachineError::InvocationWhilePending(t(1)))
        );
        assert_eq!(m.try_respond(t(2)), Err(MachineError::NoPendingInvocation(t(2))));
    }

    #[test]
    fn completed_transactions_cannot_operate() {
        let mut m = queue_machine();
        m.execute(t(1), QueueSpec::enq(1)).unwrap();
        m.commit(t(1), ts(1)).unwrap();
        assert_eq!(m.invoke(t(1), QueueSpec::enq(2)), Err(MachineError::TxnCompleted(t(1))));
        m.abort(t(2)).unwrap();
        assert_eq!(m.invoke(t(2), QueueSpec::enq(2)), Err(MachineError::TxnCompleted(t(2))));
    }

    #[test]
    fn horizon_and_compaction() {
        let mut m = queue_machine();
        assert_eq!(m.horizon(), None);
        m.execute(t(1), QueueSpec::enq(1)).unwrap();
        m.commit(t(1), ts(5)).unwrap();
        // No active transactions: horizon = max committed = 5; ts 5 itself
        // is retained (strictly-before fold).
        assert_eq!(m.horizon(), Some(ts(5)));
        m.compact();
        assert_eq!(m.retained_committed(), 1);
        m.execute(t(2), QueueSpec::enq(2)).unwrap();
        m.commit(t(2), ts(6)).unwrap();
        m.compact();
        // ts 5 < horizon 6: folded.
        assert_eq!(m.retained_committed(), 1);
        assert_eq!(m.compacted_ops(), 1);
        // An active transaction with bound 6 pins the horizon at 6.
        m.execute(t(3), QueueSpec::enq(3)).unwrap();
        assert_eq!(m.bound(t(3)), Some(ts(6)));
        m.execute(t(4), QueueSpec::enq(4)).unwrap();
        m.commit(t(4), ts(9)).unwrap();
        assert_eq!(m.horizon(), Some(ts(6)));
        m.compact();
        assert_eq!(m.retained_committed(), 2, "ts 6 and 9 retained while t3 is active");
    }

    #[test]
    fn compaction_preserves_views() {
        let mut with = queue_machine();
        with.set_auto_compact(true);
        let mut without = queue_machine();
        for i in 1..=6u64 {
            for m in [&mut with, &mut without] {
                m.execute(t(i), QueueSpec::enq(i as i64)).unwrap();
                m.commit(t(i), ts(i)).unwrap();
            }
        }
        assert!(with.retained_committed() < without.retained_committed());
        // Both machines answer a fresh reader identically.
        for m in [&mut with, &mut without] {
            assert_eq!(
                m.execute(t(100), QueueSpec::deq()).unwrap(),
                RespondOutcome::Responded(Value::Int(1))
            );
        }
    }

    #[test]
    fn histories_are_well_formed_and_ts_serializable() {
        let mut m = queue_machine();
        m.execute(t(1), QueueSpec::enq(1)).unwrap();
        m.execute(t(2), QueueSpec::enq(2)).unwrap();
        m.commit(t(2), ts(1)).unwrap();
        m.commit(t(1), ts(2)).unwrap();
        m.execute(t(3), QueueSpec::deq()).unwrap();
        m.commit(t(3), ts(3)).unwrap();
        let h = m.history();
        h.well_formed().unwrap();
        // Hybrid atomicity: committed transactions serializable in ts order.
        let order = h.permanent().ts_order();
        let ops = h.permanent().serial_ops_at(&order, ObjectId(0));
        assert!(hcc_spec::legal(&QueueSpec, &ops));
    }

    /// Theorem 17 in miniature: with a conflict relation that is *not* a
    /// dependency relation, LOCK accepts a history that is not
    /// serializable in timestamp order.
    #[test]
    fn non_dependency_conflict_breaks_hybrid_atomicity() {
        let mut m = LockMachine::new(ObjectId(0), Arc::new(QueueSpec), no_conflict());
        // P enqueues 1 and commits.
        m.execute(t(1), QueueSpec::enq(1)).unwrap();
        m.commit(t(1), ts(1)).unwrap();
        // Q enqueues 2; R dequeues 1 concurrently (no conflicts!).
        m.execute(t(2), QueueSpec::enq(2)).unwrap();
        m.execute(t(3), QueueSpec::deq()).unwrap();
        // Q commits *before* R in timestamp order.
        m.commit(t(2), ts(2)).unwrap();
        m.commit(t(3), ts(3)).unwrap();
        let h = m.history();
        h.well_formed().unwrap();
        let order = h.permanent().ts_order();
        let ops = h.permanent().serial_ops_at(&order, ObjectId(0));
        // enq(1); enq(2); deq→1 ... wait: serialized as P, Q, R gives
        // enq(1), enq(2), deq→1 which IS legal. The broken interleaving is
        // R dequeuing 1 while Q's enq(2) commits first with a smaller
        // timestamp — i.e. Q at ts 2, R read state without Q's item yet R
        // serialized after Q. deq must then return... still 1. So instead:
        // the classic failure needs R to deq twice or P/Q to race. Check
        // the stronger property directly: this history IS ts-serializable,
        // so build the real counterexample below.
        assert!(hcc_spec::legal(&QueueSpec, &ops));

        // Real counterexample (the Theorem-17 proof scenario with h = Λ,
        // p = Q's enq(2), k = R's enq(1)·deq→1): R dequeues its own
        // enqueued item while Q's enqueue runs concurrently without
        // conflicting; Q then commits with the smaller timestamp, so the
        // timestamp serialization enq(2)·enq(1)·deq→1 is illegal.
        let mut m = LockMachine::new(ObjectId(0), Arc::new(QueueSpec), no_conflict());
        m.execute(t(2), QueueSpec::enq(2)).unwrap(); // Q: p
        m.execute(t(3), QueueSpec::enq(1)).unwrap(); // R: k begins
        m.execute(t(3), QueueSpec::deq()).unwrap(); // R: deq → its own 1
        m.commit(t(2), ts(1)).unwrap(); // Q commits first
        m.commit(t(3), ts(2)).unwrap();
        let h = m.history();
        h.well_formed().unwrap();
        let order = h.permanent().ts_order();
        assert_eq!(order, vec![t(2), t(3)]);
        let ops = h.permanent().serial_ops_at(&order, ObjectId(0));
        assert!(
            !hcc_spec::legal(&QueueSpec, &ops),
            "LOCK with a non-dependency conflict relation accepted a non-hybrid-atomic history"
        );
    }

    #[test]
    fn cancel_pending_discards_invocation() {
        let mut m = queue_machine();
        assert_eq!(m.execute(t(1), QueueSpec::deq()).unwrap(), RespondOutcome::Undefined);
        m.cancel_pending(t(1));
        assert_eq!(m.try_respond(t(1)), Err(MachineError::NoPendingInvocation(t(1))));
        // With no pending invocation the transaction may commit.
        m.commit(t(1), ts(1)).unwrap();
    }

    #[test]
    fn clock_tracks_max_commit_timestamp() {
        let mut m = queue_machine();
        assert_eq!(m.clock(), None);
        m.execute(t(1), QueueSpec::enq(1)).unwrap();
        m.commit(t(1), ts(7)).unwrap();
        assert_eq!(m.clock(), Some(ts(7)));
        m.execute(t(2), QueueSpec::enq(2)).unwrap();
        m.commit(t(2), ts(9)).unwrap();
        assert_eq!(m.clock(), Some(ts(9)));
    }
}
