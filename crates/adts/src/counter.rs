//! A Counter — blind `inc`/`dec` updates commute-free under hybrid locking,
//! while `read` takes a value-sensitive lock (extension type).

use crate::define::{decode_json_state, encode_json_state};
use crate::object::{Object, ObjectAdt};
use hcc_core::runtime::{ExecError, LockSpec, RedoDecodeError, RuntimeAdt, TxnHandle};
use hcc_spec::adt::SharedAdt;
use hcc_spec::specs::CounterSpec;
use hcc_spec::{Operation, Value};
use serde_json::json;
use std::sync::Arc;

/// Counter invocations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CounterInv {
    /// Add `n`.
    Inc(i64),
    /// Subtract `n`.
    Dec(i64),
    /// Read the current value.
    Read,
}

/// Counter responses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CounterRes {
    /// Update acknowledgement.
    Ok,
    /// The value read.
    Val(i64),
}

/// The Counter runtime type; an intent is a net delta.
#[derive(Default)]
pub struct CounterAdt;

impl RuntimeAdt for CounterAdt {
    type Version = i64;
    type Intent = i64;
    type Inv = CounterInv;
    type Res = CounterRes;

    fn initial(&self) -> i64 {
        0
    }

    fn candidates(
        &self,
        version: &i64,
        committed: &[&i64],
        own: &i64,
        inv: &CounterInv,
        out: &mut Vec<(CounterRes, i64)>,
    ) {
        out.push(match inv {
            CounterInv::Inc(n) => (CounterRes::Ok, own + n),
            CounterInv::Dec(n) => (CounterRes::Ok, own - n),
            CounterInv::Read => {
                let total: i64 = version + committed.iter().copied().sum::<i64>() + own;
                (CounterRes::Val(total), *own)
            }
        });
    }

    fn apply(&self, version: &mut i64, intent: &i64) {
        *version += intent;
    }

    fn redo(&self, inv: &CounterInv, _res: &CounterRes) -> Option<Vec<u8>> {
        let v = match inv {
            CounterInv::Inc(n) => json!({"op": "inc", "v": (*n)}),
            CounterInv::Dec(n) => json!({"op": "dec", "v": (*n)}),
            CounterInv::Read => return None, // pure read: nothing to redo
        };
        Some(serde_json::to_vec(&v).expect("JSON values serialize"))
    }

    fn decode_redo(&self, bytes: &[u8]) -> Result<(CounterInv, CounterRes), RedoDecodeError> {
        let (op, v) = crate::decode_op(bytes)?;
        let n: i64 = crate::decode_field(&v, "v")?;
        match op.as_str() {
            "inc" => Ok((CounterInv::Inc(n), CounterRes::Ok)),
            "dec" => Ok((CounterInv::Dec(n), CounterRes::Ok)),
            other => Err(RedoDecodeError::new(format!("unknown counter op {other:?}"))),
        }
    }

    fn type_name(&self) -> &'static str {
        "Counter"
    }
}

/// Hybrid conflicts: a read is invalidated by any non-zero update; updates
/// never conflict with each other.
pub struct CounterHybrid;

impl LockSpec<CounterAdt> for CounterHybrid {
    fn conflicts(&self, a: &(CounterInv, CounterRes), b: &(CounterInv, CounterRes)) -> bool {
        let nonzero_update = |o: &(CounterInv, CounterRes)| match o.0 {
            CounterInv::Inc(n) | CounterInv::Dec(n) => n != 0,
            CounterInv::Read => false,
        };
        let is_read = |o: &(CounterInv, CounterRes)| matches!(o.0, CounterInv::Read);
        (is_read(a) && nonzero_update(b)) || (is_read(b) && nonzero_update(a))
    }
    fn name(&self) -> &'static str {
        "hybrid"
    }
}

impl ObjectAdt for CounterAdt {
    fn canonical_locks() -> Arc<dyn LockSpec<CounterAdt>> {
        Arc::new(CounterHybrid)
    }

    fn encode_version(&self, value: &i64) -> Vec<u8> {
        encode_json_state(value)
    }

    fn decode_version(&self, bytes: &[u8]) -> Result<i64, RedoDecodeError> {
        decode_json_state(bytes)
    }
}

/// A counter object: an [`Object`] over [`CounterAdt`].
pub type CounterObject = Object<CounterAdt>;

impl Object<CounterAdt> {
    /// Add `n`.
    pub fn inc(&self, txn: &Arc<TxnHandle>, n: i64) -> Result<(), ExecError> {
        self.execute(txn, CounterInv::Inc(n)).map(|_| ())
    }

    /// Subtract `n`.
    pub fn dec(&self, txn: &Arc<TxnHandle>, n: i64) -> Result<(), ExecError> {
        self.execute(txn, CounterInv::Dec(n)).map(|_| ())
    }

    /// Read the counter.
    pub fn read(&self, txn: &Arc<TxnHandle>) -> Result<i64, ExecError> {
        match self.execute(txn, CounterInv::Read)? {
            CounterRes::Val(v) => Ok(v),
            CounterRes::Ok => unreachable!("read returns a value"),
        }
    }

    /// The committed value (diagnostics).
    pub fn committed_value(&self) -> i64 {
        self.committed_state()
    }
}

/// The Counter restated through the declarative [`AdtDef`] surface — the
/// **ported twin** of [`CounterAdt`] + [`CounterHybrid`]: one definition
/// from which the runtime adapter, the lock relation (derived from
/// [`CounterSpec`] at first construction, cached per type), the snapshot
/// codec, and the `Db` handle are all generic. The wire format reuses
/// [`CounterAdt`]'s encoders, so `SpecObject<CounterDef>` writes
/// byte-identical WAL traces and checkpoint images — proven by the
/// differential test in `tests/defined_adts.rs`.
#[derive(Default)]
pub struct CounterDef;

impl crate::define::AdtDef for CounterDef {
    type State = i64;
    type Op = CounterInv;
    type Res = CounterRes;

    fn type_name(&self) -> &'static str {
        "Counter"
    }

    fn initial(&self) -> i64 {
        0
    }

    fn respond(&self, state: &i64, op: &CounterInv) -> Vec<CounterRes> {
        match op {
            CounterInv::Inc(_) | CounterInv::Dec(_) => vec![CounterRes::Ok],
            CounterInv::Read => vec![CounterRes::Val(*state)],
        }
    }

    fn apply(&self, state: &mut i64, op: &CounterInv, _res: &CounterRes) {
        match op {
            CounterInv::Inc(n) => *state += n,
            CounterInv::Dec(n) => *state -= n,
            CounterInv::Read => {}
        }
    }

    fn is_read(&self, op: &CounterInv, _res: &CounterRes) -> bool {
        matches!(op, CounterInv::Read)
    }

    fn spec_op(&self, op: &CounterInv, res: &CounterRes) -> Operation {
        to_spec_op(op, res)
    }

    fn conflict_spec(&self) -> crate::define::ConflictSpec {
        crate::define::ConflictSpec::Derived(crate::define::AdtConfig::counter().into())
    }

    fn encode_op(&self, op: &CounterInv, res: &CounterRes) -> Vec<u8> {
        CounterAdt.redo(op, res).expect("counter updates have redo payloads")
    }

    fn decode_op(&self, bytes: &[u8]) -> Result<(CounterInv, CounterRes), RedoDecodeError> {
        CounterAdt.decode_redo(bytes)
    }

    fn encode_state(&self, state: &i64) -> Vec<u8> {
        CounterAdt.encode_version(state)
    }

    fn decode_state(&self, bytes: &[u8]) -> Result<i64, RedoDecodeError> {
        CounterAdt.decode_version(bytes)
    }
}

/// Map a runtime operation onto the dynamic specification operation.
pub fn to_spec_op(inv: &CounterInv, res: &CounterRes) -> Operation {
    match (inv, res) {
        (CounterInv::Inc(n), _) => Operation::new(CounterSpec::inc(*n), Value::Unit),
        (CounterInv::Dec(n), _) => Operation::new(CounterSpec::dec(*n), Value::Unit),
        (CounterInv::Read, CounterRes::Val(v)) => Operation::new(CounterSpec::read(), *v),
        (CounterInv::Read, CounterRes::Ok) => unreachable!("read returns a value"),
    }
}

/// The dynamic serial specification matching [`CounterAdt`].
pub fn spec() -> SharedAdt {
    Arc::new(CounterSpec)
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

    #[test]
    fn concurrent_updates_never_block() {
        let c = CounterObject::hybrid("c");
        let handles: Vec<_> = (1..=8).map(h).collect();
        for (i, t) in handles.iter().enumerate() {
            if i % 2 == 0 {
                c.inc(t, 5).unwrap();
            } else {
                c.dec(t, 2).unwrap();
            }
        }
        for (i, t) in handles.iter().enumerate() {
            c.inner().commit_at(t.id(), (i + 1) as u64);
        }
        assert_eq!(c.committed_value(), 4 * 5 - 4 * 2);
        assert_eq!(c.inner().stats().conflicts, 0);
    }

    #[test]
    fn read_blocks_on_uncommitted_update() {
        let c = CounterObject::with(
            "c",
            Arc::new(CounterHybrid),
            RuntimeOptions::with_timeout(Some(Duration::from_millis(30))),
        );
        let (t1, t2) = (h(1), h(2));
        c.inc(&t1, 1).unwrap();
        assert_eq!(c.read(&t2), Err(ExecError::Timeout));
    }

    #[test]
    fn zero_update_is_invisible_to_readers() {
        let c = CounterObject::hybrid("c");
        let (t1, t2) = (h(1), h(2));
        c.inc(&t1, 0).unwrap();
        assert_eq!(c.read(&t2).unwrap(), 0);
    }

    #[test]
    fn own_updates_visible() {
        let c = CounterObject::hybrid("c");
        let t1 = h(1);
        c.inc(&t1, 3).unwrap();
        c.dec(&t1, 1).unwrap();
        assert_eq!(c.read(&t1).unwrap(), 2);
    }

    #[test]
    fn deltas_fold_into_version() {
        let c = CounterObject::hybrid("c");
        for i in 1..=10u64 {
            let t = h(i);
            c.inc(&t, 1).unwrap();
            c.inner().commit_at(t.id(), i);
        }
        assert_eq!(c.committed_value(), 10);
        assert!(c.inner().retained_committed() <= 1);
    }
}
