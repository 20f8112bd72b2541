//! Satellite check: the symmetric closure is applied *consistently*.
//!
//! `ConflictTable` lets a type state each dependency once, in either
//! direction, with the closure applied at lookup: `conflicts(a, b)` is
//! `related(a, b) || related(b, a)`, where `related` probes the stated
//! atoms under the pair's key condition. Two things must therefore
//! never disagree, no matter how lopsidedly the atoms were stated:
//!
//! * the lookup order — `conflicts(a, b)` and `conflicts(b, a)` query
//!   the atom set as `(req, held)` and `(held, req)` respectively, and
//!   must give one answer;
//! * the two closures — the live `SpecLock` (what the lock manager
//!   enforces) and `CheckInput` (what every analysis in this crate
//!   searches under) close the same stated atoms independently, and
//!   must agree pairwise.
//!
//! Exercised against a probe type whose table we control completely:
//! one deterministic maximally-asymmetric table, then random atom sets.

use hcc_check::CheckInput;
use hcc_core::runtime::{
    AdtDef, ConflictSpec, ConflictTable, LockSpec, RedoDecodeError, SpecAdt, SpecLock,
};
use hcc_relations::relation::{Atom, Cond, OpClass};
use hcc_spec::adt::{Adt, SharedAdt, SpecState};
use hcc_spec::{Inv, Operation, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// The atoms the probe's next `conflict_spec()` call will state.
/// `SpecLock::from_def` copies a `Table`'s atoms without memoizing, so
/// each test case installs its set and builds a fresh lock.
static PROBE_ATOMS: Mutex<BTreeSet<Atom>> = Mutex::new(BTreeSet::new());

/// Both tests mutate [`PROBE_ATOMS`]; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

/// Probe invocations: class name (`a`/`b`/`c`) and key (`0`/`1`).
#[derive(Clone, Debug, PartialEq)]
struct ProbeOp(&'static str, i64);

/// A total serial specification over the probe alphabet — every op is
/// legal everywhere (this file audits the closure, not legality).
struct ProbeSpec;

impl Adt for ProbeSpec {
    fn initial(&self) -> SpecState {
        SpecState(Value::Unit)
    }
    fn step(&self, state: &SpecState, _inv: &Inv) -> Vec<(Value, SpecState)> {
        vec![(Value::Unit, state.clone())]
    }
    fn type_name(&self) -> &'static str {
        "Probe"
    }
}

/// The probe `AdtDef`: just enough to build a [`SpecLock`] — the
/// storage-facing half is unreachable in these tests.
#[derive(Default)]
struct Probe;

impl AdtDef for Probe {
    type State = ();
    type Op = ProbeOp;
    type Res = ();

    fn type_name(&self) -> &'static str {
        "Probe"
    }
    fn initial(&self) -> Self::State {}
    fn respond(&self, _state: &Self::State, _op: &Self::Op) -> Vec<Self::Res> {
        vec![()]
    }
    fn apply(&self, _state: &mut Self::State, _op: &Self::Op, _res: &Self::Res) {}
    fn is_read(&self, _op: &Self::Op, _res: &Self::Res) -> bool {
        false
    }
    fn spec_op(&self, op: &Self::Op, _res: &Self::Res) -> Operation {
        Operation::new(Inv::unary(op.0, op.1), Value::Unit)
    }
    fn conflict_spec(&self) -> ConflictSpec {
        ConflictSpec::Table(ConflictTable {
            name: "probe",
            classify: probe_classify,
            atoms: PROBE_ATOMS.lock().unwrap().clone(),
        })
    }
    fn encode_op(&self, _op: &Self::Op, _res: &Self::Res) -> Vec<u8> {
        unreachable!("the probe never touches storage")
    }
    fn decode_op(&self, _bytes: &[u8]) -> Result<(Self::Op, Self::Res), RedoDecodeError> {
        unreachable!("the probe never touches storage")
    }
    fn encode_state(&self, _state: &Self::State) -> Vec<u8> {
        unreachable!("the probe never touches storage")
    }
    fn decode_state(&self, _bytes: &[u8]) -> Result<Self::State, RedoDecodeError> {
        unreachable!("the probe never touches storage")
    }
}

fn probe_classify(q: &Operation) -> OpClass {
    OpClass::new(q.inv.op)
}

/// Three classes × two keys: enough instances that `KeyEq` and `KeyNeq`
/// atoms each hit some pairs and miss others.
fn executed_alphabet() -> Vec<ProbeOp> {
    ["a", "b", "c"].iter().flat_map(|&c| [ProbeOp(c, 0), ProbeOp(c, 1)]).collect()
}

/// Assert, over every ordered pair of probe instances, that the lock's
/// closure is symmetric, matches the stated one-directional lookups,
/// and agrees with the analyzer's independent closure of `table`.
fn assert_closure_consistent(table: &ConflictTable) {
    let lock = SpecLock::<SpecAdt<Probe>>::from_def();
    let input = CheckInput::from_table(
        Arc::new(ProbeSpec) as SharedAdt,
        executed_alphabet().iter().map(|op| Probe.spec_op(op, &())).collect(),
        table,
    );
    for x in &executed_alphabet() {
        for y in &executed_alphabet() {
            let (ex, ey) = ((x.clone(), ()), (y.clone(), ()));
            let (qx, qy) = (Probe.spec_op(x, &()), Probe.spec_op(y, &()));
            let forward = lock.conflicts(&ex, &ey);
            assert_eq!(
                forward,
                lock.conflicts(&ey, &ex),
                "lookup order disagrees on {x:?} vs {y:?}"
            );
            assert_eq!(
                forward,
                lock.related(&qx, &qy) || lock.related(&qy, &qx),
                "the closure is not the union of the directional lookups for {x:?} vs {y:?}"
            );
            assert_eq!(
                forward,
                input.conflicts(&qx, &qy),
                "SpecLock and CheckInput disagree on {x:?} vs {y:?}"
            );
        }
    }
}

/// The worst case stated by hand: every atom in one direction only.
#[test]
fn asymmetric_entries_close_symmetrically() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let table = ConflictTable::new("probe", probe_classify)
        .rule("a", "b", Cond::KeyEq)
        .rule("b", "c", Cond::KeyNeq)
        .rule("c", "a", Cond::KeyEq)
        .rule("a", "a", Cond::KeyNeq);
    *PROBE_ATOMS.lock().unwrap() = table.atoms.clone();
    assert_closure_consistent(&table);

    // Spot-check the deliberate asymmetries through the closed lookup.
    let lock = SpecLock::<SpecAdt<Probe>>::from_def();
    let e = |c, k| (ProbeOp(c, k), ());
    assert!(lock.conflicts(&e("a", 0), &e("b", 0)), "stated direction");
    assert!(lock.conflicts(&e("b", 0), &e("a", 0)), "closed direction");
    assert!(lock.conflicts(&e("c", 1), &e("b", 0)), "closed KeyNeq direction");
    assert!(!lock.conflicts(&e("b", 0), &e("c", 0)), "KeyNeq spares equal keys");
    assert!(lock.conflicts(&e("a", 0), &e("a", 1)), "self-class KeyNeq");
    assert!(!lock.conflicts(&e("a", 0), &e("a", 0)), "no a=a atom under KeyEq");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random tables: whatever subset of atoms is stated, in whatever
    /// directions, the closed relation never disagrees with itself.
    #[test]
    fn random_tables_close_symmetrically(
        entries in prop::collection::vec((0usize..3, 0usize..3, 0usize..2), 0..12)
    ) {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let classes = ["a", "b", "c"];
        let mut table = ConflictTable::new("probe", probe_classify);
        for (r, c, cond) in entries {
            let cond = if cond == 0 { Cond::KeyEq } else { Cond::KeyNeq };
            table = table.rule(classes[r], classes[c], cond);
        }
        *PROBE_ATOMS.lock().unwrap() = table.atoms.clone();
        assert_closure_consistent(&table);
    }
}
