//! The File / register type (Table I — the generalized Thomas Write Rule).
//!
//! Blind writes never conflict: when two transactions write concurrently,
//! later readers see the value written by the transaction with the later
//! commit timestamp. A read conflicts with an uncommitted write only when
//! the written value differs from the value read.

use crate::define::{decode_json_state, encode_json_state};
use crate::object::{Object, ObjectAdt};
use hcc_core::runtime::{ExecError, LockSpec, RedoDecodeError, RuntimeAdt, TxnHandle};
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::FileSpec;
use hcc_spec::{Operation, Value};
use serde::{Deserialize, Serialize};
use serde_json::json;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::Arc;

/// Bound alias for file contents. Serde bounds make the type self-logging
/// (redo payloads) and checkpointable (snapshots).
pub trait Content:
    Clone + Eq + Debug + Default + Send + Sync + Serialize + Deserialize + 'static
{
}
impl<T: Clone + Eq + Debug + Default + Send + Sync + Serialize + Deserialize + 'static> Content
    for T
{
}

/// File invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileInv<T> {
    /// Read the current value.
    Read,
    /// Overwrite the value.
    Write(T),
}

/// File responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileRes<T> {
    /// Write acknowledgement.
    Ok,
    /// The value read.
    Val(T),
}

/// The File runtime type. The intent is the last value written (if any).
pub struct FileAdt<T>(PhantomData<fn() -> T>);

impl<T> Default for FileAdt<T> {
    fn default() -> Self {
        FileAdt(PhantomData)
    }
}

impl<T: Content> RuntimeAdt for FileAdt<T> {
    type Version = T;
    type Intent = Option<T>;
    type Inv = FileInv<T>;
    type Res = FileRes<T>;

    fn initial(&self) -> T {
        T::default()
    }

    fn candidates(
        &self,
        version: &T,
        committed: &[&Option<T>],
        own: &Option<T>,
        inv: &FileInv<T>,
        out: &mut Vec<(FileRes<T>, Option<T>)>,
    ) {
        out.push(match inv {
            FileInv::Write(v) => (FileRes::Ok, Some(v.clone())),
            FileInv::Read => {
                let mut cur = version.clone();
                for v in committed.iter().copied().flatten() {
                    cur = v.clone();
                }
                if let Some(v) = own {
                    cur = v.clone();
                }
                (FileRes::Val(cur), own.clone())
            }
        });
    }

    fn apply(&self, version: &mut T, intent: &Option<T>) {
        if let Some(v) = intent {
            *version = v.clone();
        }
    }

    fn redo(&self, inv: &FileInv<T>, _res: &FileRes<T>) -> Option<Vec<u8>> {
        match inv {
            FileInv::Write(x) => Some(
                serde_json::to_vec(&json!({"op": "write", "v": (x)}))
                    .expect("JSON values serialize"),
            ),
            FileInv::Read => None, // pure read: nothing to redo
        }
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(FileInv<T>, FileRes<T>), RedoDecodeError> {
        let (op, v) = crate::decode_op(bytes)?;
        match op.as_str() {
            "write" => Ok((FileInv::Write(crate::decode_field(&v, "v")?), FileRes::Ok)),
            other => Err(RedoDecodeError::new(format!("unknown file op {other:?}"))),
        }
    }

    fn type_name(&self) -> &'static str {
        "File"
    }
}

/// Table I conflicts: `Read→v` ↔ `Write(v′)` when `v ≠ v′`; nothing else.
pub struct FileHybrid;

impl<T: Content> LockSpec<FileAdt<T>> for FileHybrid {
    fn conflicts(&self, a: &(FileInv<T>, FileRes<T>), b: &(FileInv<T>, FileRes<T>)) -> bool {
        match (a, b) {
            ((FileInv::Read, FileRes::Val(v)), (FileInv::Write(w), _))
            | ((FileInv::Write(w), _), (FileInv::Read, FileRes::Val(v))) => v != w,
            _ => false,
        }
    }
    fn name(&self) -> &'static str {
        "hybrid"
    }
}

impl<T: Content> ObjectAdt for FileAdt<T> {
    fn canonical_locks() -> Arc<dyn LockSpec<FileAdt<T>>> {
        Arc::new(FileHybrid)
    }

    fn encode_version(&self, value: &T) -> Vec<u8> {
        encode_json_state(value)
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<T, RedoDecodeError> {
        decode_json_state(bytes)
    }
}

/// A file object: an [`Object`] over [`FileAdt`], canonically under the
/// Table-I hybrid scheme.
pub type FileObject<T> = Object<FileAdt<T>>;

impl<T: Content> Object<FileAdt<T>> {
    /// Read the current value.
    pub fn read(&self, txn: &Arc<TxnHandle>) -> Result<T, ExecError> {
        match self.execute(txn, FileInv::Read)? {
            FileRes::Val(v) => Ok(v),
            FileRes::Ok => unreachable!("read returns a value"),
        }
    }

    /// Overwrite the value.
    pub fn write(&self, txn: &Arc<TxnHandle>, value: T) -> Result<(), ExecError> {
        self.execute(txn, FileInv::Write(value)).map(|_| ())
    }

    /// The committed value (diagnostics).
    pub fn committed_value(&self) -> T {
        self.committed_state()
    }
}

/// Map a runtime operation onto the dynamic specification operation.
pub fn to_spec_op<T: Content + Into<Value>>(inv: &FileInv<T>, res: &FileRes<T>) -> Operation {
    match (inv, res) {
        (FileInv::Write(v), _) => Operation::new(FileSpec::write(v.clone()), Value::Unit),
        (FileInv::Read, FileRes::Val(v)) => Operation::new(FileSpec::read(), v.clone()),
        (FileInv::Read, FileRes::Ok) => unreachable!("read returns a value"),
    }
}

/// The dynamic serial specification matching [`FileAdt<i64>`] (initial 0).
pub fn spec() -> SharedAdt {
    Arc::new(FileSpec::new(Value::Int(0)))
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
    fn thomas_write_rule_last_timestamp_wins() {
        let f: FileObject<i64> = FileObject::hybrid("f");
        let (t1, t2, t3) = (h(1), h(2), h(3));
        f.write(&t1, 10).unwrap();
        f.write(&t2, 20).unwrap();
        f.write(&t3, 30).unwrap(); // three concurrent blind writes
        f.inner().commit_at(t3.id(), 1);
        f.inner().commit_at(t1.id(), 3);
        f.inner().commit_at(t2.id(), 2);
        assert_eq!(f.committed_value(), 10, "t1 has the latest timestamp");
    }

    #[test]
    fn read_conflicts_with_differing_write() {
        let f: FileObject<i64> = FileObject::with("f", Arc::new(FileHybrid), short());
        let (t1, t2) = (h(1), h(2));
        f.write(&t1, 7).unwrap();
        assert_eq!(f.read(&t2), Err(ExecError::Timeout));
    }

    #[test]
    fn read_coexists_with_equal_valued_write() {
        let f: FileObject<i64> = FileObject::hybrid("f");
        let (t1, t2) = (h(1), h(2));
        f.write(&t1, 0).unwrap(); // writes the (default) current value
        assert_eq!(f.read(&t2).unwrap(), 0);
    }

    #[test]
    fn writer_blocks_on_reader_of_other_value() {
        let f: FileObject<i64> = FileObject::with("f", Arc::new(FileHybrid), short());
        let (t1, t2) = (h(1), h(2));
        assert_eq!(f.read(&t1).unwrap(), 0);
        assert_eq!(f.write(&t2, 5), Err(ExecError::Timeout));
    }

    #[test]
    fn own_write_read_back() {
        let f: FileObject<String> = FileObject::hybrid("f");
        let t1 = h(1);
        f.write(&t1, "x".into()).unwrap();
        assert_eq!(f.read(&t1).unwrap(), "x");
    }

    #[test]
    fn abort_discards_write() {
        let f: FileObject<i64> = FileObject::hybrid("f");
        let t1 = h(1);
        f.write(&t1, 9).unwrap();
        f.inner().abort_txn(t1.id());
        assert_eq!(f.committed_value(), 0);
    }
}
