//! The Semiqueue (Table IV): a multiset with nondeterministic removal.
//!
//! `Rem` may return *any* present item, so the runtime offers every
//! distinct committed-or-own item as a candidate and grants the first whose
//! lock is free: two removers simply take different items instead of
//! conflicting. Only removers that would take the *same* item conflict —
//! strictly more concurrency than the FIFO queue, which is the paper's
//! point about nondeterminism.

use crate::define::{decode_json_state, encode_json_state};
use crate::object::{Object, ObjectAdt};
use hcc_core::runtime::{ExecError, LockSpec, RedoDecodeError, RuntimeAdt, TxnHandle};
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::SemiqueueSpec;
use hcc_spec::{Operation, Value};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::Arc;

/// Bound alias for semiqueue items (ordered so candidate enumeration is
/// deterministic). Serde bounds make the type self-logging (redo
/// payloads) and checkpointable (snapshots).
pub trait Item: Clone + Ord + Debug + Send + Sync + Serialize + Deserialize + 'static {}
impl<T: Clone + Ord + Debug + Send + Sync + Serialize + Deserialize + 'static> Item for T {}

/// Semiqueue invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqInv<T> {
    /// Insert an item.
    Ins(T),
    /// Remove some item (partial: blocks when empty).
    Rem,
}

/// Semiqueue responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqRes<T> {
    /// Insert acknowledgement.
    Ok,
    /// The removed item.
    Item(T),
}

/// Intent steps, replayed at fold time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SqOp<T> {
    /// Insert `T`.
    Ins(T),
    /// Remove one copy of `T` (the concrete choice is recorded).
    Rem(T),
}

/// The Semiqueue runtime type. The version is a multiset.
pub struct SemiqueueAdt<T>(PhantomData<fn() -> T>);

impl<T> Default for SemiqueueAdt<T> {
    fn default() -> Self {
        SemiqueueAdt(PhantomData)
    }
}

/// The Semiqueue's committed version: item → multiplicity.
pub type Multiset<T> = BTreeMap<T, usize>;

fn ms_insert<T: Ord>(ms: &mut Multiset<T>, x: T) {
    *ms.entry(x).or_insert(0) += 1;
}

fn ms_remove<T: Ord>(ms: &mut Multiset<T>, x: &T) -> bool {
    match ms.get_mut(x) {
        Some(n) if *n > 1 => {
            *n -= 1;
            true
        }
        Some(_) => {
            ms.remove(x);
            true
        }
        None => false,
    }
}

impl<T: Item> RuntimeAdt for SemiqueueAdt<T> {
    type Version = Multiset<T>;
    type Intent = Vec<SqOp<T>>;
    type Inv = SqInv<T>;
    type Res = SqRes<T>;

    fn initial(&self) -> Multiset<T> {
        Multiset::new()
    }

    fn candidates(
        &self,
        version: &Multiset<T>,
        committed: &[&Vec<SqOp<T>>],
        own: &Vec<SqOp<T>>,
        inv: &SqInv<T>,
        out: &mut Vec<(SqRes<T>, Vec<SqOp<T>>)>,
    ) {
        match inv {
            SqInv::Ins(x) => {
                let mut next = own.clone();
                next.push(SqOp::Ins(x.clone()));
                out.push((SqRes::Ok, next));
            }
            SqInv::Rem => {
                let mut view = version.clone();
                for intent in committed {
                    replay(&mut view, intent);
                }
                replay(&mut view, own);
                out.extend(view.keys().cloned().map(|x| {
                    let mut next = own.clone();
                    next.push(SqOp::Rem(x.clone()));
                    (SqRes::Item(x), next)
                }));
            }
        }
    }

    fn apply(&self, version: &mut Multiset<T>, intent: &Vec<SqOp<T>>) {
        replay(version, intent);
    }

    fn redo(&self, inv: &SqInv<T>, res: &SqRes<T>) -> Option<Vec<u8>> {
        let v = match (inv, res) {
            (SqInv::Ins(x), _) => json!({"op": "ins", "v": (x)}),
            // `rem` is nondeterministic; logging the removed item pins the
            // replay to the original choice.
            (SqInv::Rem, SqRes::Item(x)) => json!({"op": "rem", "v": (x)}),
            (SqInv::Rem, SqRes::Ok) => unreachable!("rem returns an item"),
        };
        Some(serde_json::to_vec(&v).expect("JSON values serialize"))
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(SqInv<T>, SqRes<T>), RedoDecodeError> {
        let (op, v) = crate::decode_op(bytes)?;
        let item: T = crate::decode_field(&v, "v")?;
        match op.as_str() {
            "ins" => Ok((SqInv::Ins(item), SqRes::Ok)),
            "rem" => Ok((SqInv::Rem, SqRes::Item(item))),
            other => Err(RedoDecodeError::new(format!("unknown semiqueue op {other:?}"))),
        }
    }

    fn type_name(&self) -> &'static str {
        "Semiqueue"
    }
}

fn replay<T: Ord + Clone>(ms: &mut Multiset<T>, ops: &[SqOp<T>]) {
    for op in ops {
        match op {
            SqOp::Ins(x) => ms_insert(ms, x.clone()),
            SqOp::Rem(x) => {
                let removed = ms_remove(ms, x);
                debug_assert!(removed, "rem of an item the view did not contain");
            }
        }
    }
}

/// Table IV conflicts: `Rem→v` ↔ `Rem→v`; nothing else.
pub struct SemiqueueHybrid;

impl<T: Item> LockSpec<SemiqueueAdt<T>> for SemiqueueHybrid {
    fn conflicts(&self, a: &(SqInv<T>, SqRes<T>), b: &(SqInv<T>, SqRes<T>)) -> bool {
        matches!(
            (a, b),
            ((SqInv::Rem, SqRes::Item(v)), (SqInv::Rem, SqRes::Item(w))) if v == w
        )
    }
    fn name(&self) -> &'static str {
        "hybrid"
    }
    fn class_of(&self, op: &(SqInv<T>, SqRes<T>)) -> Option<String> {
        Some(
            match op.0 {
                SqInv::Ins(_) => "Ins",
                SqInv::Rem => "Rem",
            }
            .to_string(),
        )
    }
}

impl<T: Item> ObjectAdt for SemiqueueAdt<T> {
    fn canonical_locks() -> Arc<dyn LockSpec<SemiqueueAdt<T>>> {
        Arc::new(SemiqueueHybrid)
    }

    /// `[item, multiplicity]` pairs in item order.
    fn encode_version(&self, items: &Multiset<T>) -> Vec<u8> {
        encode_json_state(&items.iter().collect::<Vec<_>>())
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<Multiset<T>, RedoDecodeError> {
        let mut items = Multiset::new();
        for (item, count) in decode_json_state::<Vec<(T, usize)>>(bytes)? {
            if count > 0 {
                *items.entry(item).or_insert(0) += count;
            }
        }
        Ok(items)
    }
}

/// A semiqueue object: an [`Object`] over [`SemiqueueAdt`], canonically
/// under the Table-IV hybrid scheme.
pub type SemiqueueObject<T> = Object<SemiqueueAdt<T>>;

impl<T: Item> Object<SemiqueueAdt<T>> {
    /// Insert an item.
    pub fn ins(&self, txn: &Arc<TxnHandle>, item: T) -> Result<(), ExecError> {
        self.execute(txn, SqInv::Ins(item)).map(|_| ())
    }

    /// Remove some item (blocks while every candidate is locked or the
    /// semiqueue is empty).
    pub fn rem(&self, txn: &Arc<TxnHandle>) -> Result<T, ExecError> {
        match self.execute(txn, SqInv::Rem)? {
            SqRes::Item(x) => Ok(x),
            SqRes::Ok => unreachable!("rem returns an item"),
        }
    }

    /// Total committed item count (diagnostics).
    pub fn committed_len(&self) -> usize {
        self.committed_state().values().sum()
    }
}

/// Map a runtime operation onto the dynamic specification operation.
pub fn to_spec_op<T: Item + Into<Value>>(inv: &SqInv<T>, res: &SqRes<T>) -> Operation {
    match (inv, res) {
        (SqInv::Ins(x), _) => Operation::new(SemiqueueSpec::ins(x.clone()), Value::Unit),
        (SqInv::Rem, SqRes::Item(x)) => Operation::new(SemiqueueSpec::rem(), x.clone()),
        (SqInv::Rem, SqRes::Ok) => unreachable!("rem returns an item"),
    }
}

/// The dynamic serial specification matching [`SemiqueueAdt`].
pub fn spec() -> SharedAdt {
    Arc::new(SemiqueueSpec)
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
    fn short() -> RuntimeOptions {
        RuntimeOptions::with_timeout(Some(Duration::from_millis(30)))
    }

    #[test]
    fn concurrent_removers_take_different_items() {
        let s: SemiqueueObject<i64> = SemiqueueObject::hybrid("s");
        let t0 = h(1);
        s.ins(&t0, 1).unwrap();
        s.ins(&t0, 2).unwrap();
        s.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        let a = s.rem(&t1).unwrap();
        let b = s.rem(&t2).unwrap(); // no conflict: takes the other item
        assert_ne!(a, b);
    }

    #[test]
    fn removers_conflict_only_on_the_last_item() {
        let s: SemiqueueObject<i64> =
            SemiqueueObject::with("s", Arc::new(SemiqueueHybrid), short());
        let t0 = h(1);
        s.ins(&t0, 1).unwrap();
        s.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert_eq!(s.rem(&t1).unwrap(), 1);
        assert_eq!(s.rem(&t2), Err(ExecError::Timeout));
    }

    #[test]
    fn inserts_run_concurrently_with_removes() {
        let s: SemiqueueObject<i64> = SemiqueueObject::hybrid("s");
        let t0 = h(1);
        s.ins(&t0, 1).unwrap();
        s.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        s.ins(&t1, 2).unwrap(); // uncommitted insert
        assert_eq!(s.rem(&t2).unwrap(), 1, "committed item removable concurrently");
    }

    #[test]
    fn duplicate_items_allow_concurrent_removes_of_same_value() {
        // Two copies of 5: removers both get 5... but that is the same
        // item value, so they conflict under Table IV (v = v').
        let s: SemiqueueObject<i64> =
            SemiqueueObject::with("s", Arc::new(SemiqueueHybrid), short());
        let t0 = h(1);
        s.ins(&t0, 5).unwrap();
        s.ins(&t0, 5).unwrap();
        s.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert_eq!(s.rem(&t1).unwrap(), 5);
        assert_eq!(s.rem(&t2), Err(ExecError::Timeout), "same value conflicts");
    }

    #[test]
    fn own_inserts_are_removable() {
        let s: SemiqueueObject<i64> = SemiqueueObject::hybrid("s");
        let t1 = h(1);
        s.ins(&t1, 9).unwrap();
        assert_eq!(s.rem(&t1).unwrap(), 9);
    }

    #[test]
    fn abort_restores_items() {
        let s: SemiqueueObject<i64> = SemiqueueObject::hybrid("s");
        let t0 = h(1);
        s.ins(&t0, 3).unwrap();
        s.inner().commit_at(t0.id(), 1);
        let t1 = h(2);
        assert_eq!(s.rem(&t1).unwrap(), 3);
        s.inner().abort_txn(t1.id());
        let t2 = h(3);
        assert_eq!(s.rem(&t2).unwrap(), 3, "aborted removal rolled back");
    }

    #[test]
    fn committed_len_counts_multiset() {
        let s: SemiqueueObject<i64> = SemiqueueObject::hybrid("s");
        let t0 = h(1);
        for x in [1, 1, 2] {
            s.ins(&t0, x).unwrap();
        }
        s.inner().commit_at(t0.id(), 1);
        assert_eq!(s.committed_len(), 3);
    }
}
