//! # hcc-verify — atomicity checkers (the test oracle)
//!
//! Implements the correctness properties of Section 3 as executable
//! checks over recorded histories:
//!
//! * [`serializable_in`] — is `H` serializable in a given total order
//!   (Section 3.2: `Serial(H, T)` acceptable at every object)?
//! * [`serializable`] / [`atomic`] — existential serializability and
//!   atomicity (brute-force over orders; histories are small in tests).
//! * [`hybrid_atomic`] — `permanent(H)` serializable in timestamp order
//!   (Section 3.3).
//! * [`online_hybrid_atomic`] — for every commit set `C` and every total
//!   order `T` consistent with `Known(H|X)`, `H|C|X` is serializable in `T`
//!   (Section 3.4). Exponential; intended for bounded histories.
//! * [`dynamic_atomic`] — serializable in *every* total order consistent
//!   with `precedes(H)` (Section 7), the property commutativity-based
//!   schemes guarantee.
//!
//! Histories to check come from the production runtime's logs or from
//! the reference automaton kept here: [`machine::LockMachine`] is the
//! literal Section-5.1 state machine — per-transaction intentions lists,
//! views assembled by concatenating committed intentions in timestamp
//! order, response events gated on view-legality and conflict-freedom,
//! plus the Section-6 bookkeeping (`clock`, `bound`, `horizon`) and
//! common-prefix compaction. It is slow, obviously correct and records
//! its own history. Its conflict relation is the same value the runtime
//! lock holds, an `hcc_relations::Relation` (a classifier plus
//! class-level atoms, closed symmetrically at lookup), so it generalizes
//! beyond the derivation domain and can be the derived hybrid relation, a
//! rival scheme's, or a deliberately wrong one such as the empty relation
//! of the Theorem-17 counterexample.

pub mod machine;

pub use machine::{LockMachine, MachineError, RespondOutcome};

use hcc_spec::adt::SharedAdt;
use hcc_spec::{legal, History, ObjectId, TxnId};
use std::collections::{HashMap, HashSet};

/// The serial specifications of every object in a system, keyed by id.
#[derive(Clone, Default)]
pub struct SystemSpecs {
    specs: HashMap<ObjectId, SharedAdt>,
}

impl SystemSpecs {
    /// An empty registry.
    pub fn new() -> SystemSpecs {
        SystemSpecs::default()
    }

    /// Register an object's specification.
    pub fn insert(&mut self, obj: ObjectId, spec: SharedAdt) -> &mut Self {
        self.specs.insert(obj, spec);
        self
    }

    /// Builder-style registration.
    pub fn with(mut self, obj: ObjectId, spec: SharedAdt) -> SystemSpecs {
        self.specs.insert(obj, spec);
        self
    }

    /// The specification for `obj`.
    pub fn get(&self, obj: ObjectId) -> &SharedAdt {
        self.specs.get(&obj).unwrap_or_else(|| panic!("no spec registered for {obj:?}"))
    }
}

/// Is `h` serializable in the order `order` — i.e. is
/// `OpSeq(Serial(h, order))` acceptable at every object?
pub fn serializable_in(h: &History, order: &[TxnId], specs: &SystemSpecs) -> bool {
    h.objects().into_iter().all(|x| {
        let ops = h.serial_ops_at(order, x);
        legal(specs.get(x).as_ref(), &ops)
    })
}

fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let x = rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x.clone());
            out.push(p);
        }
    }
    out
}

const MAX_BRUTE_FORCE_TXNS: usize = 8;

/// Is the failure-free history `h` serializable in *some* total order?
///
/// Brute force over permutations; panics if `h` has more than 8
/// transactions (the checkers are oracles for bounded tests, not
/// production tools).
pub fn serializable(h: &History, specs: &SystemSpecs) -> bool {
    let txns = h.txns();
    assert!(
        txns.len() <= MAX_BRUTE_FORCE_TXNS,
        "brute-force serializability limited to {MAX_BRUTE_FORCE_TXNS} transactions"
    );
    permutations(&txns).into_iter().any(|order| serializable_in(h, &order, specs))
}

/// Is `h` atomic — `permanent(h)` serializable (Section 3.2)?
pub fn atomic(h: &History, specs: &SystemSpecs) -> bool {
    serializable(&h.permanent(), specs)
}

/// Is `h` hybrid atomic — `permanent(h)` serializable in timestamp order
/// (Section 3.3)?
pub fn hybrid_atomic(h: &History, specs: &SystemSpecs) -> bool {
    hybrid_atomic_violation(h, specs).is_none()
}

/// Why a history is not hybrid atomic: the first object (in id order)
/// whose permanent operations, serialized in timestamp order, are not a
/// legal sequence of its specification. `None` means `h` is hybrid
/// atomic. The library entry point for tools that need to *report* a
/// violation, not just detect one — `hcc-check` confirms every
/// counterexample its static soundness search finds through this
/// function, so the search and the oracle can never silently disagree.
pub fn hybrid_atomic_violation(h: &History, specs: &SystemSpecs) -> Option<ObjectId> {
    let p = h.permanent();
    let order = p.ts_order();
    p.objects().into_iter().find(|&x| !legal(specs.get(x).as_ref(), &p.serial_ops_at(&order, x)))
}

/// Is `h` dynamic atomic — `permanent(h)` serializable in **every** total
/// order consistent with `precedes(h)` (Section 7)?
pub fn dynamic_atomic(h: &History, specs: &SystemSpecs) -> bool {
    let p = h.permanent();
    let txns = p.txns();
    assert!(txns.len() <= MAX_BRUTE_FORCE_TXNS);
    let prec = h.precedes();
    permutations(&txns)
        .into_iter()
        .filter(|order| consistent(order, &prec))
        .all(|order| serializable_in(&p, &order, specs))
}

/// Does a total order (as a sequence) respect a set of pairs?
fn consistent(order: &[TxnId], pairs: &HashSet<(TxnId, TxnId)>) -> bool {
    let pos: HashMap<TxnId, usize> = order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    pairs.iter().all(|(a, b)| match (pos.get(a), pos.get(b)) {
        (Some(i), Some(j)) => i < j,
        _ => true,
    })
}

/// Is `h` online hybrid atomic at `x` (Section 3.4)?
///
/// For every commit set `C` (a superset of `committed(h)` disjoint from
/// `aborted(h)`) and every total order `T` on `C` consistent with
/// `Known(h|x)`, `h|C|x` must be serializable in `T`.
pub fn online_hybrid_atomic_at(h: &History, x: ObjectId, specs: &SystemSpecs) -> bool {
    let hx = h.restrict_obj(x);
    let txns = hx.txns();
    assert!(txns.len() <= MAX_BRUTE_FORCE_TXNS, "online check limited to 8 transactions");
    let committed: HashSet<TxnId> = hx.committed().keys().copied().collect();
    let aborted = hx.aborted();
    let known = hx.known();
    let candidates: Vec<TxnId> =
        txns.iter().copied().filter(|t| !committed.contains(t) && !aborted.contains(t)).collect();
    // Every subset of the active transactions may still commit.
    for bits in 0..(1u32 << candidates.len()) {
        let mut c: HashSet<TxnId> = committed.clone();
        for (i, t) in candidates.iter().enumerate() {
            if bits & (1 << i) != 0 {
                c.insert(*t);
            }
        }
        let members: Vec<TxnId> = txns.iter().copied().filter(|t| c.contains(t)).collect();
        let restricted = hx.restrict_txns(&c);
        for order in permutations(&members) {
            if !consistent(&order, &known) {
                continue;
            }
            if !serializable_in(&restricted, &order, specs) {
                return false;
            }
        }
    }
    true
}

/// Is `h` online hybrid atomic at every object?
pub fn online_hybrid_atomic(h: &History, specs: &SystemSpecs) -> bool {
    h.objects().into_iter().all(|x| online_hybrid_atomic_at(h, x, specs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_spec::history::HistoryBuilder;
    use hcc_spec::specs::{FileSpec, QueueSpec};
    use hcc_spec::{Inv, Value};
    use std::sync::Arc;

    fn queue_specs() -> SystemSpecs {
        SystemSpecs::new().with(ObjectId(0), Arc::new(QueueSpec))
    }

    fn enq(v: i64) -> Inv {
        QueueSpec::enq(v)
    }
    fn deq() -> Inv {
        QueueSpec::deq()
    }

    /// The paper's Section-3 example: serializable in the order Q, P, R.
    fn paper_history() -> History {
        HistoryBuilder::new()
            .op(0, 1, enq(1), Value::Unit)
            .op(0, 2, enq(2), Value::Unit)
            .op(0, 1, enq(3), Value::Unit)
            .commit(0, 1, 2)
            .commit(0, 2, 1)
            .op(0, 3, deq(), 2)
            .op(0, 3, deq(), 1)
            .commit(0, 3, 5)
            .build()
    }

    #[test]
    fn paper_history_is_hybrid_atomic() {
        let h = paper_history();
        let specs = queue_specs();
        assert!(hybrid_atomic(&h, &specs));
        assert!(atomic(&h, &specs));
        assert!(serializable(&h, &specs));
        assert!(online_hybrid_atomic(&h, &specs));
    }

    #[test]
    fn wrong_timestamp_order_is_not_hybrid_atomic() {
        // Same events, but P gets the smaller timestamp — then the ts
        // order P,Q,R would have to dequeue 1 first, not 2.
        let h = HistoryBuilder::new()
            .op(0, 1, enq(1), Value::Unit)
            .op(0, 2, enq(2), Value::Unit)
            .commit(0, 1, 1)
            .commit(0, 2, 2)
            .op(0, 3, deq(), 2)
            .commit(0, 3, 5)
            .build();
        let specs = queue_specs();
        assert!(!hybrid_atomic(&h, &specs));
        assert_eq!(hybrid_atomic_violation(&h, &specs), Some(ObjectId(0)), "names the object");
        // It *is* serializable in some order (Q, P, R), hence atomic...
        assert!(atomic(&h, &specs));
        // ...and dynamic atomicity fails too: P, Q, R is consistent with
        // precedes but unacceptable.
        assert!(!dynamic_atomic(&h, &specs));
    }

    #[test]
    fn aborted_transactions_are_invisible() {
        let h = HistoryBuilder::new()
            .op(0, 1, enq(1), Value::Unit)
            .abort(0, 1)
            .op(0, 2, enq(2), Value::Unit)
            .commit(0, 2, 1)
            .op(0, 3, deq(), 2)
            .commit(0, 3, 2)
            .build();
        assert!(hybrid_atomic(&h, &queue_specs()));
    }

    #[test]
    fn serializable_in_checks_each_object() {
        let mut specs = queue_specs();
        specs.insert(ObjectId(1), Arc::new(FileSpec::default()));
        let h = HistoryBuilder::new()
            .op(0, 1, enq(1), Value::Unit)
            .op(1, 1, FileSpec::write(9), Value::Unit)
            .op(1, 2, FileSpec::read(), 9)
            .op(0, 2, deq(), 1)
            .build();
        // T1 before T2: enq then deq, write then read-9: fine.
        assert!(serializable_in(&h, &[TxnId(1), TxnId(2)], &specs));
        // T2 first: read-9 before the write and deq on empty: illegal.
        assert!(!serializable_in(&h, &[TxnId(2), TxnId(1)], &specs));
    }

    #[test]
    fn online_check_catches_premature_responses() {
        // R dequeues an item enqueued by the *uncommitted* P. If P is in a
        // commit set ordered after R... actually the violation: commit set
        // {P, R} with order R before P (both orders are consistent with
        // empty Known) makes deq→1 precede enq(1).
        let h = HistoryBuilder::new()
            .op(0, 1, enq(1), Value::Unit) // P (uncommitted)
            .op(0, 3, deq(), 1) // R dequeues P's item!
            .build();
        assert!(!online_hybrid_atomic(&h, &queue_specs()));
        // Plain hybrid atomicity does not see it (nobody committed).
        assert!(hybrid_atomic(&h, &queue_specs()));
    }

    #[test]
    fn online_check_accepts_own_item_dequeue() {
        // A transaction dequeuing its *own* enqueue is fine.
        let h = HistoryBuilder::new().op(0, 1, enq(1), Value::Unit).op(0, 1, deq(), 1).build();
        assert!(online_hybrid_atomic(&h, &queue_specs()));
    }

    #[test]
    fn consistent_order_helper() {
        let pairs: HashSet<(TxnId, TxnId)> = [(TxnId(1), TxnId(2))].into();
        assert!(consistent(&[TxnId(1), TxnId(2)], &pairs));
        assert!(!consistent(&[TxnId(2), TxnId(1)], &pairs));
        // Pairs mentioning absent transactions are vacuous.
        assert!(consistent(&[TxnId(3)], &pairs));
    }

    #[test]
    #[should_panic(expected = "no spec registered")]
    fn missing_spec_panics() {
        let h = HistoryBuilder::new().op(9, 1, enq(1), Value::Unit).build();
        serializable_in(&h, &[TxnId(1)], &SystemSpecs::new());
    }
}
