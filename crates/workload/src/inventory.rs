//! The inventory: the second bundled `define_adt!` type, and the one
//! definition of it — `examples/custom_adt.rs` runs it durably and
//! `adtcheck` audits it alongside the leaderboard and the built-ins, so
//! the type the audit certifies is the type the example runs. Everything
//! a user writes to define an ADT is in this file: the serial
//! specification, the typed operations, the executable semantics and
//! the derivation inputs.
//!
//! `restock(item, n)` adds stock, `take(item, n)` claims it (responding
//! whether the stock sufficed), `check(item)` reads the level. The
//! derived relation comes out per-item and response-sensitive: restocks
//! commute with each other, successful takes of one item compete, a
//! refused take is invalidated by that item's restock, and checks
//! conflict with same-item stock changes.

use hcc_adts::define::{Bounds, ConflictSpec, DeriveSpec, OpClass, SpecObject};
use hcc_adts::define_adt;
use hcc_spec::adt::{Adt, SharedAdt, SpecState};
use hcc_spec::{Inv, Operation, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Inventory as a dynamic state machine over `item → stock` tables
/// (zero-stock entries dropped, so states compare canonically).
pub struct InventorySpec;

fn entries(state: &SpecState) -> Vec<(String, i64)> {
    match &state.0 {
        Value::List(es) => es
            .iter()
            .map(|e| match e {
                Value::Pair(k, v) => (k.as_str().to_string(), v.as_int()),
                other => unreachable!("inventory entries are pairs, got {other:?}"),
            })
            .collect(),
        other => unreachable!("inventory state is a list, got {other:?}"),
    }
}

fn state_of(mut es: Vec<(String, i64)>) -> SpecState {
    es.retain(|(_, n)| *n > 0);
    es.sort();
    SpecState(Value::List(
        es.into_iter()
            .map(|(k, n)| Value::Pair(Box::new(Value::Str(k)), Box::new(Value::Int(n))))
            .collect(),
    ))
}

impl Adt for InventorySpec {
    fn initial(&self) -> SpecState {
        SpecState(Value::List(Vec::new()))
    }

    fn step(&self, state: &SpecState, inv: &Inv) -> Vec<(Value, SpecState)> {
        let mut es = entries(state);
        let item = inv.args[0].as_str().to_string();
        let stock = es.iter().find(|(k, _)| *k == item).map(|(_, n)| *n).unwrap_or(0);
        match inv.op {
            "restock" => {
                let n = inv.args[1].as_int();
                es.retain(|(k, _)| *k != item);
                es.push((item, stock + n));
                vec![(Value::Unit, state_of(es))]
            }
            "take" => {
                let n = inv.args[1].as_int();
                if stock >= n {
                    es.retain(|(k, _)| *k != item);
                    es.push((item, stock - n));
                    vec![(Value::Bool(true), state_of(es))]
                } else {
                    vec![(Value::Bool(false), state.clone())]
                }
            }
            "check" => vec![(Value::Int(stock), state.clone())],
            _ => vec![],
        }
    }

    fn type_name(&self) -> &'static str {
        "Inventory"
    }
}

/// The shared specification handle.
pub fn spec() -> SharedAdt {
    Arc::new(InventorySpec)
}

/// Inventory invocations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum InvOp {
    /// Add `n` units of `item`.
    Restock(String, i64),
    /// Take `n` units; responds whether the stock sufficed.
    Take(String, i64),
    /// Read an item's stock level.
    Check(String),
}

/// Inventory responses.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum InvRes {
    /// Restock acknowledgement.
    Ok,
    /// Did the take succeed?
    Taken(bool),
    /// The stock level read.
    Level(i64),
}

/// The inventory's operation classifier — public so `adtcheck` audits
/// exactly what the runtime lock classifies.
pub fn inv_classify(op: &Operation) -> OpClass {
    OpClass::new(match (op.inv.op, &op.res) {
        ("restock", _) => "Restock",
        ("take", Value::Bool(true)) => "Take-Ok",
        ("take", _) => "Take-Out",
        _ => "Check",
    })
}

/// The derivation alphabet: items a/b × counts 1/2 for restock and both
/// take outcomes, plus check levels 0..2.
pub fn inv_alphabet() -> Vec<Operation> {
    let mut ops = Vec::new();
    for item in ["a", "b"] {
        for n in [1i64, 2] {
            ops.push(Operation::new(Inv::binary("restock", item, n), Value::Unit));
            ops.push(Operation::new(Inv::binary("take", item, n), true));
            ops.push(Operation::new(Inv::binary("take", item, n), false));
        }
        for level in [0i64, 1, 2] {
            ops.push(Operation::new(Inv::unary("check", item), level));
        }
    }
    ops
}

/// The full derivation spec exactly as [`InventoryDef`]'s `conflicts`
/// states it.
pub fn inv_derive_spec() -> DeriveSpec {
    DeriveSpec {
        adt: spec(),
        alphabet: inv_alphabet(),
        classify: inv_classify,
        bounds: Bounds { max_h1: 2, max_h2: 2 },
    }
}

define_adt! {
    /// The inventory's runtime definition: state + ops + executable
    /// semantics + the spec to derive locking from.
    pub struct InventoryDef {
        name: "Inventory",
        state: BTreeMap<String, i64>,
        op: InvOp,
        res: InvRes,
        initial: BTreeMap::new,
        respond: |state: &BTreeMap<String, i64>, op: &InvOp| {
            let stock = |item: &String| state.get(item).copied().unwrap_or(0);
            match op {
                InvOp::Restock(..) => vec![InvRes::Ok],
                InvOp::Take(item, n) => vec![InvRes::Taken(stock(item) >= *n)],
                InvOp::Check(item) => vec![InvRes::Level(stock(item))],
            }
        },
        apply: |state: &mut BTreeMap<String, i64>, op: &InvOp, res: &InvRes| match (op, res) {
            (InvOp::Restock(item, n), _) => {
                *state.entry(item.clone()).or_insert(0) += n;
            }
            (InvOp::Take(item, n), InvRes::Taken(true)) => {
                let left = state.get(item).copied().unwrap_or(0) - n;
                if left > 0 {
                    state.insert(item.clone(), left);
                } else {
                    state.remove(item);
                }
            }
            _ => {}
        },
        read: |op: &InvOp, _res: &InvRes| matches!(op, InvOp::Check(_)),
        spec_op: |op: &InvOp, res: &InvRes| match (op, res) {
            (InvOp::Restock(item, n), _) => {
                Operation::new(Inv::binary("restock", item.as_str(), *n), Value::Unit)
            }
            (InvOp::Take(item, n), InvRes::Taken(ok)) => {
                Operation::new(Inv::binary("take", item.as_str(), *n), *ok)
            }
            (InvOp::Check(item), InvRes::Level(v)) => {
                Operation::new(Inv::unary("check", item.as_str()), *v)
            }
            other => unreachable!("ill-typed inventory op {other:?}"),
        },
        conflicts: || ConflictSpec::Derived(inv_derive_spec()),
    }
}

/// The typed handle.
pub type Inventory = SpecObject<InventoryDef>;

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::runtime::{LockSpec, SpecAdt, SpecLock};

    /// The derived relation, pinned: per-item and response-sensitive.
    #[test]
    fn derived_relation_is_per_item() {
        let lock = SpecLock::<SpecAdt<InventoryDef>>::from_def();
        let restock = |i: &str, n: i64| (InvOp::Restock(i.into(), n), InvRes::Ok);
        let take = |i: &str, n: i64, ok: bool| (InvOp::Take(i.into(), n), InvRes::Taken(ok));
        let check = |i: &str, v: i64| (InvOp::Check(i.into()), InvRes::Level(v));
        assert!(!lock.conflicts(&restock("a", 1), &restock("a", 2)), "suppliers commute");
        assert!(lock.conflicts(&take("a", 1, true), &take("a", 1, true)), "takes compete");
        assert!(lock.conflicts(&take("a", 2, false), &restock("a", 1)), "restock unblocks refusal");
        assert!(lock.conflicts(&check("a", 1), &restock("a", 1)), "reads see stock changes");
        assert!(!lock.conflicts(&take("a", 1, true), &take("b", 1, true)), "items independent");
        assert_eq!(lock.name(), "hybrid-derived");
    }

    /// The ROADMAP's debug-build self-check for the second bundled
    /// user-defined type: doubling the stated bounds derives the same
    /// atoms.
    #[cfg(debug_assertions)]
    #[test]
    fn inventory_bounds_are_invariant_under_doubling() {
        hcc_adts::define::check_bounds_invariance(&inv_derive_spec())
            .expect("inventory derivation bounds have converged");
    }
}
