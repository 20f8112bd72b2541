//! Satellite check: the symmetric closure is applied *consistently*.
//!
//! A `Relation` lets a type state each dependency once, in either
//! direction, with the closure applied at lookup: `conflicts(a, b)` is
//! `related(a, b) || related(b, a)`, where `related` probes the stated
//! atoms under the pair's key condition. The lookup order must therefore
//! never matter, no matter how lopsidedly the atoms were stated:
//! `conflicts(a, b)` and `conflicts(b, a)` query the atom set as
//! `(req, held)` and `(held, req)` respectively, and must give one
//! answer. The runtime lock, the reference automaton and every analysis
//! in this crate hold this one value, so one check covers them all.
//!
//! Exercised against probe classes whose table we control completely:
//! one deterministic maximally-asymmetric table, then random atom sets.

use hcc_relations::relation::{Cond, OpClass, Relation};
use hcc_spec::{Inv, Operation, Value};
use proptest::prelude::*;

fn probe_classify(q: &Operation) -> OpClass {
    OpClass::new(q.inv.op)
}

/// A probe instance: class name (`a`/`b`/`c`) and key.
fn op(class: &'static str, key: i64) -> Operation {
    Operation::new(Inv::unary(class, key), Value::Unit)
}

/// Three classes × two keys: enough instances that `KeyEq` and `KeyNeq`
/// atoms each hit some pairs and miss others.
fn alphabet() -> Vec<Operation> {
    ["a", "b", "c"].iter().flat_map(|&c| [op(c, 0), op(c, 1)]).collect()
}

/// Assert, over every ordered pair of probe instances, that the closure
/// is symmetric and is the union of the stated one-directional lookups.
fn assert_closure_consistent(rel: &Relation) {
    for x in &alphabet() {
        for y in &alphabet() {
            let forward = rel.conflicts(x, y);
            assert_eq!(forward, rel.conflicts(y, x), "lookup order disagrees on {x:?} vs {y:?}");
            assert_eq!(
                forward,
                rel.related(x, y) || rel.related(y, x),
                "the closure is not the union of the directional lookups for {x:?} vs {y:?}"
            );
        }
    }
}

/// The worst case stated by hand: every atom in one direction only.
#[test]
fn asymmetric_entries_close_symmetrically() {
    let rel = Relation::empty(probe_classify)
        .rule("a", "b", Cond::KeyEq)
        .rule("b", "c", Cond::KeyNeq)
        .rule("c", "a", Cond::KeyEq)
        .rule("a", "a", Cond::KeyNeq);
    assert_closure_consistent(&rel);

    // Spot-check the deliberate asymmetries through the closed lookup.
    assert!(rel.conflicts(&op("a", 0), &op("b", 0)), "stated direction");
    assert!(rel.conflicts(&op("b", 0), &op("a", 0)), "closed direction");
    assert!(rel.conflicts(&op("c", 1), &op("b", 0)), "closed KeyNeq direction");
    assert!(!rel.conflicts(&op("b", 0), &op("c", 0)), "KeyNeq spares equal keys");
    assert!(rel.conflicts(&op("a", 0), &op("a", 1)), "self-class KeyNeq");
    assert!(!rel.conflicts(&op("a", 0), &op("a", 0)), "no a=a atom under KeyEq");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random tables: whatever subset of atoms is stated, in whatever
    /// directions, the closed relation never disagrees with itself.
    #[test]
    fn random_tables_close_symmetrically(
        entries in prop::collection::vec((0usize..3, 0usize..3, 0usize..2), 0..12)
    ) {
        let classes = ["a", "b", "c"];
        let mut rel = Relation::empty(probe_classify);
        for (r, c, cond) in entries {
            let cond = if cond == 0 { Cond::KeyEq } else { Cond::KeyNeq };
            rel = rel.rule(classes[r], classes[c], cond);
        }
        assert_closure_consistent(&rel);
    }
}
