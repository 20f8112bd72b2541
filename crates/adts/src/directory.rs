//! A Directory (key → value map) with per-key, response-dependent
//! conflicts (extension type; the paper's introduction motivates
//! directories as typed objects).

use crate::define::{decode_json_state, encode_json_state};
use crate::object::{derived_hybrid, Object, ObjectAdt};
use hcc_core::runtime::{Classified, ExecError, RedoDecodeError, RuntimeAdt, SpecLock, TxnHandle};
use hcc_relations::relation::{ClassId, Relation};
use hcc_relations::tables::AdtConfig;
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::DirectorySpec;
use hcc_spec::{Operation, Value};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Bound alias for keys. Serde bounds make the type self-logging (redo
/// payloads) and checkpointable (snapshots).
pub trait Key: Clone + Ord + Debug + Send + Sync + Serialize + Deserialize + 'static {}
impl<T: Clone + Ord + Debug + Send + Sync + Serialize + Deserialize + 'static> Key for T {}

/// Bound alias for values. Serde bounds make the type self-logging (redo
/// payloads) and checkpointable (snapshots).
pub trait Val: Clone + Eq + Debug + Send + Sync + Serialize + Deserialize + 'static {}
impl<T: Clone + Eq + Debug + Send + Sync + Serialize + Deserialize + 'static> Val for T {}

/// Directory invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirInv<K, V> {
    /// Bind `k` to `v` if unbound.
    Insert(K, V),
    /// Unbind `k`.
    Remove(K),
    /// Look up `k`.
    Lookup(K),
}

/// Directory responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirRes<V> {
    /// Insert succeeded.
    Inserted,
    /// Insert refused: key already bound.
    Duplicate,
    /// The previously bound value (remove/lookup hit).
    Val(V),
    /// No binding (remove/lookup miss).
    Missing,
}

/// Intent steps.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirOp<K, V> {
    /// Bind `k` to `v`.
    Insert(K, V),
    /// Unbind `k`.
    Remove(K),
}

/// The Directory runtime type.
pub struct DirectoryAdt<K, V>(PhantomData<fn() -> (K, V)>);

impl<K, V> Default for DirectoryAdt<K, V> {
    fn default() -> Self {
        DirectoryAdt(PhantomData)
    }
}

impl<K: Key, V: Val> RuntimeAdt for DirectoryAdt<K, V> {
    type Version = BTreeMap<K, V>;
    type Intent = Vec<DirOp<K, V>>;
    type Inv = DirInv<K, V>;
    type Res = DirRes<V>;

    fn initial(&self) -> BTreeMap<K, V> {
        BTreeMap::new()
    }

    fn candidates(
        &self,
        version: &BTreeMap<K, V>,
        committed: &[&Vec<DirOp<K, V>>],
        own: &Vec<DirOp<K, V>>,
        inv: &DirInv<K, V>,
        out: &mut Vec<(DirRes<V>, Vec<DirOp<K, V>>)>,
    ) {
        let key = match inv {
            DirInv::Insert(k, _) | DirInv::Remove(k) | DirInv::Lookup(k) => k,
        };
        // Fold the binding of this key over the view.
        let mut binding: Option<V> = version.get(key).cloned();
        for intent in committed.iter().copied().chain(std::iter::once(own)) {
            for op in intent.iter() {
                match op {
                    DirOp::Insert(k, v) if k == key => binding = Some(v.clone()),
                    DirOp::Remove(k) if k == key => binding = None,
                    _ => {}
                }
            }
        }
        out.push(match inv {
            DirInv::Insert(k, v) => match binding {
                Some(_) => (DirRes::Duplicate, own.clone()),
                None => {
                    let mut next = own.clone();
                    next.push(DirOp::Insert(k.clone(), v.clone()));
                    (DirRes::Inserted, next)
                }
            },
            DirInv::Remove(k) => match binding {
                Some(v) => {
                    let mut next = own.clone();
                    next.push(DirOp::Remove(k.clone()));
                    (DirRes::Val(v), next)
                }
                None => (DirRes::Missing, own.clone()),
            },
            DirInv::Lookup(_) => match binding {
                Some(v) => (DirRes::Val(v), own.clone()),
                None => (DirRes::Missing, own.clone()),
            },
        });
    }

    fn apply(&self, version: &mut BTreeMap<K, V>, intent: &Vec<DirOp<K, V>>) {
        for op in intent {
            match op {
                DirOp::Insert(k, v) => {
                    version.insert(k.clone(), v.clone());
                }
                DirOp::Remove(k) => {
                    version.remove(k);
                }
            }
        }
    }

    fn redo(&self, inv: &DirInv<K, V>, res: &DirRes<V>) -> Option<Vec<u8>> {
        let v = match (inv, res) {
            (DirInv::Insert(k, v), DirRes::Inserted) => {
                json!({"op": "insert", "k": (k), "v": (v), "ok": true})
            }
            // Duplicate inserts change nothing, but the refusal is a
            // response the verifier checks — logged like refused debits.
            (DirInv::Insert(k, v), DirRes::Duplicate) => {
                json!({"op": "insert", "k": (k), "v": (v), "ok": false})
            }
            (DirInv::Remove(k), DirRes::Val(prev)) => {
                json!({"op": "remove", "k": (k), "prev": (prev)})
            }
            (DirInv::Remove(k), DirRes::Missing) => json!({"op": "remove", "k": (k)}),
            (DirInv::Lookup(_), _) => return None, // pure read
            (inv, res) => unreachable!("directory op {inv:?} cannot respond {res:?}"),
        };
        Some(serde_json::to_vec(&v).expect("JSON values serialize"))
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(DirInv<K, V>, DirRes<V>), RedoDecodeError> {
        let (op, v) = crate::decode_op(bytes)?;
        let key: K = crate::decode_field(&v, "k")?;
        match op.as_str() {
            "insert" => {
                let val: V = crate::decode_field(&v, "v")?;
                let ok: bool = crate::decode_field(&v, "ok")?;
                let res = if ok { DirRes::Inserted } else { DirRes::Duplicate };
                Ok((DirInv::Insert(key, val), res))
            }
            "remove" => {
                let prev: Option<V> = crate::decode_field(&v, "prev")?;
                let res = match prev {
                    Some(p) => DirRes::Val(p),
                    None => DirRes::Missing,
                };
                Ok((DirInv::Remove(key), res))
            }
            other => Err(RedoDecodeError::new(format!("unknown directory op {other:?}"))),
        }
    }

    fn type_name(&self) -> &'static str {
        "Directory"
    }

    type Key = K;
    const CLASSES: &'static [&'static str] =
        &["Insert-New", "Insert-Dup", "Remove-Hit", "Remove-Miss", "Lookup-Hit", "Lookup-Miss"];

    /// Each invocation splits by whether it found the key bound; the key
    /// is the directory key.
    fn classify(_: &Relation, inv: &DirInv<K, V>, res: &DirRes<V>) -> Classified<K> {
        let (class, key) = match (inv, res) {
            (DirInv::Insert(k, _), DirRes::Inserted) => (0, k),
            (DirInv::Insert(k, _), _) => (1, k),
            (DirInv::Remove(k), DirRes::Missing) => (3, k),
            (DirInv::Remove(k), _) => (2, k),
            (DirInv::Lookup(k), DirRes::Missing) => (5, k),
            (DirInv::Lookup(k), _) => (4, k),
        };
        Classified { class: ClassId(class), key: Some(key.clone()) }
    }
}

impl<K: Key, V: Val> ObjectAdt for DirectoryAdt<K, V> {
    fn canonical_locks() -> SpecLock<DirectoryAdt<K, V>> {
        static HYBRID: OnceLock<Relation> = OnceLock::new();
        SpecLock::new("hybrid", derived_hybrid(&HYBRID, AdtConfig::directory))
    }

    /// `[key, value]` pairs in key order.
    fn encode_version(&self, entries: &BTreeMap<K, V>) -> Vec<u8> {
        encode_json_state(&entries.iter().collect::<Vec<_>>())
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<BTreeMap<K, V>, RedoDecodeError> {
        Ok(decode_json_state::<Vec<(K, V)>>(bytes)?.into_iter().collect())
    }
}

/// A directory object: an [`Object`] over [`DirectoryAdt`].
pub type DirectoryObject<K, V> = Object<DirectoryAdt<K, V>>;

impl<K: Key, V: Val> Object<DirectoryAdt<K, V>> {
    /// Bind `k` to `v`; `Ok(true)` iff newly bound.
    pub fn insert(&self, txn: &Arc<TxnHandle>, k: K, v: V) -> Result<bool, ExecError> {
        Ok(self.execute(txn, DirInv::Insert(k, v))? == DirRes::Inserted)
    }

    /// Unbind `k`, returning the old value if any.
    pub fn remove(&self, txn: &Arc<TxnHandle>, k: K) -> Result<Option<V>, ExecError> {
        match self.execute(txn, DirInv::Remove(k))? {
            DirRes::Val(v) => Ok(Some(v)),
            DirRes::Missing => Ok(None),
            _ => unreachable!("remove returns a value or missing"),
        }
    }

    /// Look up `k`.
    pub fn lookup(&self, txn: &Arc<TxnHandle>, k: K) -> Result<Option<V>, ExecError> {
        match self.execute(txn, DirInv::Lookup(k))? {
            DirRes::Val(v) => Ok(Some(v)),
            DirRes::Missing => Ok(None),
            _ => unreachable!("lookup returns a value or missing"),
        }
    }

    /// Committed binding count (diagnostics).
    pub fn committed_len(&self) -> usize {
        self.committed_state().len()
    }
}

/// Map a runtime operation onto the dynamic specification operation.
pub fn to_spec_op<K, V>(inv: &DirInv<K, V>, res: &DirRes<V>) -> Operation
where
    K: Key + Into<Value>,
    V: Val + Into<Value>,
{
    match (inv, res) {
        (DirInv::Insert(k, v), DirRes::Inserted) => {
            Operation::new(DirectorySpec::insert(k.clone(), v.clone()), true)
        }
        (DirInv::Insert(k, v), DirRes::Duplicate) => {
            Operation::new(DirectorySpec::insert(k.clone(), v.clone()), false)
        }
        (DirInv::Remove(k), DirRes::Val(v)) => {
            Operation::new(DirectorySpec::remove(k.clone()), v.clone())
        }
        (DirInv::Remove(k), DirRes::Missing) => {
            Operation::new(DirectorySpec::remove(k.clone()), Value::Null)
        }
        (DirInv::Lookup(k), DirRes::Val(v)) => {
            Operation::new(DirectorySpec::lookup(k.clone()), v.clone())
        }
        (DirInv::Lookup(k), DirRes::Missing) => {
            Operation::new(DirectorySpec::lookup(k.clone()), Value::Null)
        }
        _ => unreachable!("invalid (inv, res) combination"),
    }
}

/// The dynamic serial specification matching [`DirectoryAdt`].
pub fn spec() -> SharedAdt {
    Arc::new(DirectorySpec)
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
    fn short() -> DirectoryObject<String, i64> {
        DirectoryObject::with_options(
            "d",
            RuntimeOptions::with_timeout(Some(Duration::from_millis(30))),
        )
    }

    #[test]
    fn distinct_keys_never_conflict() {
        let d: DirectoryObject<String, i64> = DirectoryObject::hybrid("d");
        let (t1, t2) = (h(1), h(2));
        assert!(d.insert(&t1, "a".into(), 1).unwrap());
        assert!(d.insert(&t2, "b".into(), 2).unwrap());
        assert_eq!(d.lookup(&t2, "b".into()).unwrap(), Some(2));
        assert_eq!(d.inner().stats().conflicts, 0);
    }

    #[test]
    fn same_key_inserts_conflict() {
        let d = short();
        let (t1, t2) = (h(1), h(2));
        assert!(d.insert(&t1, "k".into(), 1).unwrap());
        assert_eq!(d.insert(&t2, "k".into(), 2), Err(ExecError::Timeout));
    }

    #[test]
    fn lookup_miss_conflicts_with_pending_insert() {
        let d = short();
        let (t1, t2) = (h(1), h(2));
        assert!(d.insert(&t1, "k".into(), 1).unwrap());
        assert_eq!(d.lookup(&t2, "k".into()), Err(ExecError::Timeout));
    }

    #[test]
    fn lookup_hit_coexists_with_duplicate_insert() {
        let d: DirectoryObject<String, i64> = DirectoryObject::hybrid("d");
        let t0 = h(1);
        assert!(d.insert(&t0, "k".into(), 1).unwrap());
        d.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert!(!d.insert(&t1, "k".into(), 9).unwrap(), "duplicate");
        assert_eq!(d.lookup(&t2, "k".into()).unwrap(), Some(1));
    }

    #[test]
    fn remove_returns_binding_and_conflicts_with_hits() {
        let d = short();
        let t0 = h(1);
        assert!(d.insert(&t0, "k".into(), 7).unwrap());
        d.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert_eq!(d.remove(&t1, "k".into()).unwrap(), Some(7));
        assert_eq!(d.lookup(&t2, "k".into()), Err(ExecError::Timeout));
    }

    #[test]
    fn own_bindings_visible_and_foldable() {
        let d: DirectoryObject<String, i64> = DirectoryObject::hybrid("d");
        let t1 = h(1);
        assert!(d.insert(&t1, "k".into(), 1).unwrap());
        assert_eq!(d.lookup(&t1, "k".into()).unwrap(), Some(1));
        assert_eq!(d.remove(&t1, "k".into()).unwrap(), Some(1));
        assert!(d.insert(&t1, "k".into(), 2).unwrap());
        d.inner().commit_at(t1.id(), 1);
        assert_eq!(d.committed_len(), 1);
        let t2 = h(2);
        assert_eq!(d.lookup(&t2, "k".into()).unwrap(), Some(2));
    }

    #[test]
    fn abort_rolls_back_bindings() {
        let d: DirectoryObject<String, i64> = DirectoryObject::hybrid("d");
        let t1 = h(1);
        assert!(d.insert(&t1, "k".into(), 1).unwrap());
        d.inner().abort_txn(t1.id());
        let t2 = h(2);
        assert_eq!(d.lookup(&t2, "k".into()).unwrap(), None);
    }
}
