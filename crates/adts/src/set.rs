//! A Set — operations report whether they changed anything, giving
//! response-dependent, per-element conflicts (extension type).
//!
//! The hybrid conflict relation is the symmetric closure of the derived
//! invalidated-by relation (verified against the derivation engine in the
//! integration tests): all conflicts are per-element, and "no-op" outcomes
//! conflict only with the operations that could invalidate them.

use crate::define::{decode_json_state, encode_json_state};
use crate::object::{Object, ObjectAdt};
use hcc_core::runtime::{ExecError, LockSpec, RedoDecodeError, RuntimeAdt, TxnHandle};
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::SetSpec;
use hcc_spec::{Operation, Value};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::Arc;

/// Bound alias for set elements. Serde bounds make the type self-logging
/// (redo payloads) and checkpointable (snapshots).
pub trait Elem: Clone + Ord + Debug + Send + Sync + Serialize + Deserialize + 'static {}
impl<T: Clone + Ord + Debug + Send + Sync + Serialize + Deserialize + 'static> Elem for T {}

/// Set invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetInv<T> {
    /// Insert; responds whether the element was new.
    Add(T),
    /// Delete; responds whether the element was present.
    Remove(T),
    /// Membership test.
    Contains(T),
}

/// Intent steps (replayed at fold time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetOp<T> {
    /// Insert `T`.
    Add(T),
    /// Delete `T`.
    Remove(T),
}

/// The Set runtime type.
pub struct SetAdt<T>(PhantomData<fn() -> T>);

impl<T> Default for SetAdt<T> {
    fn default() -> Self {
        SetAdt(PhantomData)
    }
}

impl<T: Elem> RuntimeAdt for SetAdt<T> {
    type Version = BTreeSet<T>;
    type Intent = Vec<SetOp<T>>;
    type Inv = SetInv<T>;
    type Res = bool;

    fn initial(&self) -> BTreeSet<T> {
        BTreeSet::new()
    }

    fn candidates(
        &self,
        version: &BTreeSet<T>,
        committed: &[&Vec<SetOp<T>>],
        own: &Vec<SetOp<T>>,
        inv: &SetInv<T>,
        out: &mut Vec<(bool, Vec<SetOp<T>>)>,
    ) {
        // Membership of the single element in question, folded over the
        // view (cheaper than materializing the whole set).
        let elem = match inv {
            SetInv::Add(x) | SetInv::Remove(x) | SetInv::Contains(x) => x,
        };
        let mut present = version.contains(elem);
        for intent in committed.iter().copied().chain(std::iter::once(own)) {
            for op in intent.iter() {
                match op {
                    SetOp::Add(y) if y == elem => present = true,
                    SetOp::Remove(y) if y == elem => present = false,
                    _ => {}
                }
            }
        }
        out.push(match inv {
            SetInv::Add(x) => {
                if present {
                    (false, own.clone())
                } else {
                    let mut next = own.clone();
                    next.push(SetOp::Add(x.clone()));
                    (true, next)
                }
            }
            SetInv::Remove(x) => {
                if present {
                    let mut next = own.clone();
                    next.push(SetOp::Remove(x.clone()));
                    (true, next)
                } else {
                    (false, own.clone())
                }
            }
            SetInv::Contains(_) => (present, own.clone()),
        });
    }

    fn apply(&self, version: &mut BTreeSet<T>, intent: &Vec<SetOp<T>>) {
        for op in intent {
            match op {
                SetOp::Add(x) => {
                    version.insert(x.clone());
                }
                SetOp::Remove(x) => {
                    version.remove(x);
                }
            }
        }
    }

    fn redo(&self, inv: &SetInv<T>, res: &bool) -> Option<Vec<u8>> {
        let v = match inv {
            // No-op outcomes (`ok: false` adds of present elements, …)
            // change no state but carry a response the verifier checks, so
            // they are logged and replayed like refused debits.
            SetInv::Add(x) => json!({"op": "add", "v": (x), "ok": (*res)}),
            SetInv::Remove(x) => json!({"op": "rem", "v": (x), "ok": (*res)}),
            SetInv::Contains(_) => return None, // pure read
        };
        Some(serde_json::to_vec(&v).expect("JSON values serialize"))
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(SetInv<T>, bool), RedoDecodeError> {
        let (op, v) = crate::decode_op(bytes)?;
        let elem: T = crate::decode_field(&v, "v")?;
        let ok: bool = crate::decode_field(&v, "ok")?;
        match op.as_str() {
            "add" => Ok((SetInv::Add(elem), ok)),
            "rem" => Ok((SetInv::Remove(elem), ok)),
            other => Err(RedoDecodeError::new(format!("unknown set op {other:?}"))),
        }
    }

    fn type_name(&self) -> &'static str {
        "Set"
    }
}

/// Hybrid conflicts (symmetric closure of the derived invalidated-by
/// relation): per element `x`,
///
/// * `Add(x)→true` ↔ `Add(x)→true`, `Remove(x)→false`, `Contains(x)→false`
/// * `Remove(x)→true` ↔ `Remove(x)→true`, `Add(x)→false`, `Contains(x)→true`
pub struct SetHybrid;

impl<T: Elem> LockSpec<SetAdt<T>> for SetHybrid {
    fn conflicts(&self, a: &(SetInv<T>, bool), b: &(SetInv<T>, bool)) -> bool {
        let elem = |o: &(SetInv<T>, bool)| match &o.0 {
            SetInv::Add(x) | SetInv::Remove(x) | SetInv::Contains(x) => x.clone(),
        };
        if elem(a) != elem(b) {
            return false;
        }
        let dep = |q: &(SetInv<T>, bool), p: &(SetInv<T>, bool)| -> bool {
            match (&q.0, q.1, &p.0, p.1) {
                // Mutating add invalidates: add→true, remove→false,
                // contains→false.
                (SetInv::Add(_), true, SetInv::Add(_), true) => true,
                (SetInv::Remove(_), false, SetInv::Add(_), true) => true,
                (SetInv::Contains(_), false, SetInv::Add(_), true) => true,
                // Mutating remove invalidates: add→false, remove→true,
                // contains→true.
                (SetInv::Add(_), false, SetInv::Remove(_), true) => true,
                (SetInv::Remove(_), true, SetInv::Remove(_), true) => true,
                (SetInv::Contains(_), true, SetInv::Remove(_), true) => true,
                _ => false,
            }
        };
        dep(a, b) || dep(b, a)
    }
    fn name(&self) -> &'static str {
        "hybrid"
    }
}

impl<T: Elem> ObjectAdt for SetAdt<T> {
    fn canonical_locks() -> Arc<dyn LockSpec<SetAdt<T>>> {
        Arc::new(SetHybrid)
    }

    fn encode_version(&self, members: &BTreeSet<T>) -> Vec<u8> {
        encode_json_state(members)
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<BTreeSet<T>, RedoDecodeError> {
        decode_json_state(bytes)
    }
}

/// A set object: an [`Object`] over [`SetAdt`].
pub type SetObject<T> = Object<SetAdt<T>>;

impl<T: Elem> Object<SetAdt<T>> {
    /// Insert; `Ok(true)` iff the element was new.
    pub fn add(&self, txn: &Arc<TxnHandle>, x: T) -> Result<bool, ExecError> {
        self.execute(txn, SetInv::Add(x))
    }

    /// Delete; `Ok(true)` iff the element was present.
    pub fn remove(&self, txn: &Arc<TxnHandle>, x: T) -> Result<bool, ExecError> {
        self.execute(txn, SetInv::Remove(x))
    }

    /// Membership test.
    pub fn contains(&self, txn: &Arc<TxnHandle>, x: T) -> Result<bool, ExecError> {
        self.execute(txn, SetInv::Contains(x))
    }

    /// Committed cardinality (diagnostics).
    pub fn committed_len(&self) -> usize {
        self.committed_state().len()
    }
}

/// The Set restated through the declarative [`AdtDef`] surface — the
/// **ported twin** of [`SetAdt`] + [`SetHybrid`]: the per-element,
/// response-dependent conflict relation is *derived* from
/// [`SetSpec`](hcc_spec::specs::SetSpec) at first construction (cached
/// per type) instead of hand-encoded, and snapshots/replay/`Db` handles
/// are generic. The wire format reuses [`SetAdt`]'s encoders, so
/// `SpecObject<SetDef<T>>` writes byte-identical WAL traces and
/// checkpoint images — proven by the differential test in
/// `tests/defined_adts.rs`.
pub struct SetDef<T>(PhantomData<fn() -> T>);

impl<T> Default for SetDef<T> {
    fn default() -> Self {
        SetDef(PhantomData)
    }
}

impl<T: Elem + Into<Value>> crate::define::AdtDef for SetDef<T> {
    type State = BTreeSet<T>;
    type Op = SetInv<T>;
    type Res = bool;

    fn type_name(&self) -> &'static str {
        "Set"
    }

    fn initial(&self) -> BTreeSet<T> {
        BTreeSet::new()
    }

    fn respond(&self, state: &BTreeSet<T>, op: &SetInv<T>) -> Vec<bool> {
        let elem = match op {
            SetInv::Add(x) | SetInv::Remove(x) | SetInv::Contains(x) => x,
        };
        let present = state.contains(elem);
        match op {
            SetInv::Add(_) => vec![!present],
            SetInv::Remove(_) | SetInv::Contains(_) => vec![present],
        }
    }

    fn apply(&self, state: &mut BTreeSet<T>, op: &SetInv<T>, res: &bool) {
        match (op, res) {
            (SetInv::Add(x), true) => {
                state.insert(x.clone());
            }
            (SetInv::Remove(x), true) => {
                state.remove(x);
            }
            _ => {}
        }
    }

    fn is_read(&self, op: &SetInv<T>, _res: &bool) -> bool {
        // No-op adds/removes are *not* reads: their refusals carry
        // verifier-checked responses and are logged, exactly as the
        // hand-written twin logs them.
        matches!(op, SetInv::Contains(_))
    }

    fn spec_op(&self, op: &SetInv<T>, res: &bool) -> Operation {
        to_spec_op(op, res)
    }

    fn conflict_spec(&self) -> crate::define::ConflictSpec {
        crate::define::ConflictSpec::Derived(crate::define::AdtConfig::set().into())
    }

    fn encode_op(&self, op: &SetInv<T>, res: &bool) -> Vec<u8> {
        SetAdt::<T>::default().redo(op, res).expect("set updates have redo payloads")
    }

    fn decode_op(&self, bytes: &[u8]) -> Result<(SetInv<T>, bool), RedoDecodeError> {
        SetAdt::<T>::default().decode_redo(bytes)
    }

    fn encode_state(&self, state: &BTreeSet<T>) -> Vec<u8> {
        SetAdt::<T>::default().encode_version(state)
    }

    fn decode_state(&self, bytes: &[u8]) -> Result<BTreeSet<T>, RedoDecodeError> {
        SetAdt::<T>::default().decode_version(bytes)
    }
}

/// Map a runtime operation onto the dynamic specification operation.
pub fn to_spec_op<T: Elem + Into<Value>>(inv: &SetInv<T>, res: &bool) -> Operation {
    match inv {
        SetInv::Add(x) => Operation::new(SetSpec::add(x.clone()), *res),
        SetInv::Remove(x) => Operation::new(SetSpec::remove(x.clone()), *res),
        SetInv::Contains(x) => Operation::new(SetSpec::contains(x.clone()), *res),
    }
}

/// The dynamic serial specification matching [`SetAdt`].
pub fn spec() -> SharedAdt {
    Arc::new(SetSpec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_core::runtime::{RuntimeOptions, TxParticipant};
    use hcc_spec::TxnId;
    use std::time::Duration;

    fn h(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }
    fn short<T: Elem>() -> SetObject<T> {
        SetObject::with(
            "s",
            Arc::new(SetHybrid),
            RuntimeOptions::with_timeout(Some(Duration::from_millis(30))),
        )
    }

    #[test]
    fn operations_on_distinct_elements_never_conflict() {
        let s: SetObject<i64> = SetObject::hybrid("s");
        let (t1, t2, t3) = (h(1), h(2), h(3));
        assert!(s.add(&t1, 1).unwrap());
        assert!(s.add(&t2, 2).unwrap());
        assert!(!s.remove(&t3, 3).unwrap());
        assert_eq!(s.inner().stats().conflicts, 0);
    }

    #[test]
    fn concurrent_adds_of_same_element_conflict() {
        let s: SetObject<i64> = short();
        let (t1, t2) = (h(1), h(2));
        assert!(s.add(&t1, 5).unwrap());
        assert_eq!(s.add(&t2, 5), Err(ExecError::Timeout));
    }

    #[test]
    fn contains_false_conflicts_with_pending_add() {
        let s: SetObject<i64> = short();
        let (t1, t2) = (h(1), h(2));
        assert!(s.add(&t1, 5).unwrap());
        // t2's contains(5) would answer false (t1 uncommitted) but that
        // answer is invalidated by t1's add.
        assert_eq!(s.contains(&t2, 5), Err(ExecError::Timeout));
    }

    #[test]
    fn contains_true_coexists_with_pending_add_dup() {
        let s: SetObject<i64> = SetObject::hybrid("s");
        let t0 = h(1);
        assert!(s.add(&t0, 5).unwrap());
        s.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert!(!s.add(&t1, 5).unwrap(), "duplicate add is a no-op");
        assert!(s.contains(&t2, 5).unwrap(), "no conflict with a no-op add");
    }

    #[test]
    fn remove_conflicts_with_contains_true() {
        let s: SetObject<i64> = short();
        let t0 = h(1);
        assert!(s.add(&t0, 5).unwrap());
        s.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert!(s.remove(&t1, 5).unwrap());
        assert_eq!(s.contains(&t2, 5), Err(ExecError::Timeout));
    }

    #[test]
    fn own_ops_fold_correctly() {
        let s: SetObject<i64> = SetObject::hybrid("s");
        let t1 = h(1);
        assert!(s.add(&t1, 1).unwrap());
        assert!(s.remove(&t1, 1).unwrap());
        assert!(!s.contains(&t1, 1).unwrap());
        assert!(s.add(&t1, 1).unwrap());
        s.inner().commit_at(t1.id(), 1);
        assert_eq!(s.committed_len(), 1);
    }

    #[test]
    fn abort_rolls_back_membership() {
        let s: SetObject<i64> = SetObject::hybrid("s");
        let t1 = h(1);
        assert!(s.add(&t1, 9).unwrap());
        s.inner().abort_txn(t1.id());
        let t2 = h(2);
        assert!(!s.contains(&t2, 9).unwrap());
    }
}
