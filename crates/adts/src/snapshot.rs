//! The checkpoint and recovery hooks of every transactional type, written
//! once for [`Object`]: how a committed frontier is serialized into a
//! checkpoint, installed back during recovery, and replayed from the log.
//!
//! `snapshot_at(w)` encodes `TxObject::snapshot_read(w)` — the version
//! with the committed intents up to `w` applied, which by construction
//! excludes active transactions — through the type's [`ObjectAdt`]
//! codec. The read is checked: an object that has already folded a
//! commit above `w` into its base version (one whose registry the
//! checkpoint's pin does not hold) refuses with [`SnapshotError`] rather
//! than write that commit into the image. `restore` decodes the image
//! and *installs* it into a fresh object as the base version at the
//! checkpoint's timestamp (`TxObject::install_version`): no operation is
//! re-executed, no lock is taken, no transaction is retained, and the
//! object's state depends on the image alone. The object's clock advances to the checkpoint
//! frontier, so tail replay (at strictly greater timestamps) observes a
//! well-formed history, and snapshot reads below the restore point are
//! refused rather than answered from the image.
//!
//! Payloads are compact JSON: human-inspectable, schema-stable, and
//! type-agnostic — the same properties the WAL's op payloads have.

use crate::object::{Object, ObjectAdt};
use hcc_core::runtime::{ReplayError, TxnHandle};
use hcc_storage::{DurableObject, SnapshotError};
use std::sync::Arc;

/// The reserved transaction id the *oracles* model a checkpoint image
/// under: in the formal history a restored image is one bootstrap
/// transaction committed at the checkpoint's timestamp. Real transaction
/// ids are allocated from 1 upward; this cannot collide. (The mechanism
/// installs the image; nothing commits under this id.)
pub const BOOTSTRAP_TXN: u64 = u64::MAX - 1;

/// Written once for every type: an object exposes its name, its checked
/// watermark image, and replays its own redo payloads (the inverse of the
/// self-logging write path), so recovery needs no caller-side dispatch.
impl<A: ObjectAdt> DurableObject for Object<A> {
    fn object_name(&self) -> &str {
        self.inner().name()
    }

    fn snapshot_at(&self, watermark: u64) -> Result<Vec<u8>, SnapshotError> {
        let version =
            self.inner().snapshot_read(watermark).map_err(|e| SnapshotError::new(e.to_string()))?;
        Ok(self.inner().adt().encode_version(&version))
    }

    fn restore(&self, bytes: &[u8], ts: u64) -> Result<(), SnapshotError> {
        let version = self
            .inner()
            .adt()
            .decode_version(bytes)
            .map_err(|e| SnapshotError::new(e.to_string()))?;
        // A non-fresh instance (one with history of its own) refuses as
        // a failed materialization instead of crashing.
        self.inner().install_version(version, ts).map_err(|e| SnapshotError::new(e.to_string()))
    }

    fn replay_op(&self, txn: &Arc<TxnHandle>, op: &[u8]) -> Result<(), ReplayError> {
        self.inner().replay_redo(txn, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CounterDef, CounterInv};
    use crate::{
        AccountObject, CounterObject, DirectoryObject, FileObject, QueueObject, SemiqueueObject,
        SetObject, SpecObject,
    };
    use hcc_core::runtime::{SnapshotStale, TxParticipant};
    use hcc_spec::{Rational, TxnId};

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    fn t(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }

    /// One row of the checkpoint-image table: `build` commits a state at
    /// `TS`; `golden` is the image the commit *before* the one-object-layer
    /// change wrote for it, so old checkpoint directories still open.
    fn check_image<A: ObjectAdt>(golden: &str, build: impl Fn(&Object<A>, &Arc<TxnHandle>))
    where
        A::Version: PartialEq + std::fmt::Debug,
    {
        const TS: u64 = 5;
        let src = Object::<A>::hybrid("src");
        let committed = t(1);
        build(&src, &committed);
        src.inner().commit_at(committed.id(), TS);
        let state = src.committed_state();
        // Active transactions are excluded: the same effects again, never
        // committed, must not reach the image.
        build(&src, &t(2));
        assert_eq!(String::from_utf8(src.snapshot_at(TS).unwrap()).unwrap(), golden, "image bytes");

        // Garbage is refused and leaves the object fresh...
        let dst = Object::<A>::hybrid("dst");
        assert!(dst.restore(b"not json", TS).is_err());
        assert!(dst.restore(br#"{"wrong":"shape"}"#, TS).is_err());
        // ...so the image then installs: state alone, no fabricated history.
        dst.restore(golden.as_bytes(), TS).unwrap();
        assert_eq!(dst.committed_state(), state, "restored state");
        assert_eq!(dst.inner().stats().executed, 0, "restore executes nothing");
        assert_eq!(dst.inner().retained_committed(), 0, "restore retains no transaction");
        assert_eq!(dst.state_at(TS).unwrap(), state);
        assert_eq!(
            dst.state_at(TS - 1),
            Err(SnapshotStale { folded: TS, watermark: TS - 1 }),
            "a read below the restore point is refused, not answered from the image"
        );

        // An object that has committed or merely executed anything refuses
        // and keeps its state.
        assert!(src.restore(golden.as_bytes(), TS + 1).is_err(), "committed history");
        assert_eq!(src.committed_state(), state);
        let used = Object::<A>::hybrid("used");
        let initial = used.committed_state();
        build(&used, &t(3));
        assert!(used.restore(golden.as_bytes(), TS).is_err(), "active transaction");
        assert_eq!(used.committed_state(), initial);
        assert_eq!(used.inner().active_txns(), 1);
    }

    /// An object on a registry no pin holds folds freely: asked for an
    /// image below its fold watermark it refuses, rather than write the
    /// folded commits into the image.
    #[test]
    fn an_object_folded_past_the_watermark_refuses_its_image() {
        let a = AccountObject::hybrid("a");
        for ts in 1..=3 {
            let tx = t(ts);
            a.credit(&tx, r(1)).unwrap();
            a.inner().commit_at(tx.id(), ts);
        }
        assert_eq!(a.inner().stats().forgotten, 2, "nothing pinned: ts 1 and 2 folded");
        let err = a.snapshot_at(1).unwrap_err();
        assert!(err.0.contains("stale"), "{err}");
        assert_eq!(a.snapshot_at(2).unwrap(), br#"{"num":2,"den":1}"#);
        assert_eq!(a.snapshot_at(3).unwrap(), br#"{"num":3,"den":1}"#);
    }

    #[test]
    fn checkpoint_images_install_for_every_type() {
        check_image(r#"{"num":147,"den":2}"#, |a: &AccountObject, tx| {
            a.credit(tx, Rational::new(7, 2)).unwrap();
            a.credit(tx, r(100)).unwrap();
            assert!(a.debit(tx, r(30)).unwrap());
        });
        check_image("5", |c: &CounterObject, tx| {
            c.inc(tx, 9).unwrap();
            c.dec(tx, 4).unwrap();
        });
        check_image("-7", |c: &CounterObject, tx| {
            c.inc(tx, 3).unwrap();
            c.dec(tx, 10).unwrap();
        });
        check_image("-9223372036854775808", |c: &CounterObject, tx| {
            c.inc(tx, i64::MIN).unwrap();
        });
        check_image("[3,1,4,1,5]", |q: &QueueObject<i64>, tx| {
            for i in [3, 1, 4, 1, 5] {
                q.enq(tx, i).unwrap();
            }
        });
        check_image("[[7,2],[9,1]]", |q: &SemiqueueObject<i64>, tx| {
            for i in [7, 7, 9] {
                q.ins(tx, i).unwrap();
            }
        });
        check_image("42", |f: &FileObject<i64>, tx| f.write(tx, 42).unwrap());
        check_image("[-1,2,8]", |s: &SetObject<i64>, tx| {
            for i in [2, -1, 2, 8] {
                s.add(tx, i).unwrap();
            }
        });
        check_image(r#"[["a",1],["b",2]]"#, |d: &DirectoryObject<String, i64>, tx| {
            d.insert(tx, "b".into(), 2).unwrap();
            d.insert(tx, "a".into(), 1).unwrap();
        });
        check_image("-4", |c: &SpecObject<CounterDef>, tx| {
            c.execute(tx, CounterInv::Inc(9)).unwrap();
            c.execute(tx, CounterInv::Dec(13)).unwrap();
        });
    }

    /// `decode_redo` is the exact inverse of `redo` for every type: the
    /// write path and the recovery path can never disagree on the payload
    /// format.
    #[test]
    fn redo_roundtrips_for_every_type() {
        use hcc_core::runtime::RuntimeAdt;

        fn roundtrip<A: RuntimeAdt>(adt: &A, inv: A::Inv, res: A::Res)
        where
            A::Inv: PartialEq + std::fmt::Debug,
        {
            let bytes = adt.redo(&inv, &res).expect("mutating op has a redo payload");
            let (inv2, res2) = adt.decode_redo(&bytes).expect("payload decodes");
            assert_eq!(inv2, inv, "invocation roundtrips");
            assert_eq!(res2, res, "response roundtrips");
        }

        use crate::account::{AccountAdt, AccountInv, AccountRes};
        roundtrip(&AccountAdt, AccountInv::Credit(Rational::new(5, 2)), AccountRes::Ok);
        roundtrip(&AccountAdt, AccountInv::Post(r(5)), AccountRes::Ok);
        roundtrip(&AccountAdt, AccountInv::Debit(r(3)), AccountRes::Debited);
        roundtrip(&AccountAdt, AccountInv::Debit(r(9)), AccountRes::Overdraft);

        use crate::counter::{CounterAdt, CounterInv, CounterRes};
        roundtrip(&CounterAdt, CounterInv::Inc(7), CounterRes::Ok);
        roundtrip(&CounterAdt, CounterInv::Dec(2), CounterRes::Ok);
        assert!(CounterAdt.redo(&CounterInv::Read, &CounterRes::Val(0)).is_none());

        use crate::fifo_queue::{QueueAdt, QueueInv, QueueRes};
        let q: QueueAdt<i64> = QueueAdt::default();
        roundtrip(&q, QueueInv::Enq(42), QueueRes::Ok);
        roundtrip(&q, QueueInv::Deq, QueueRes::Item(42));

        use crate::semiqueue::{SemiqueueAdt, SqInv, SqRes};
        let sq: SemiqueueAdt<String> = SemiqueueAdt::default();
        roundtrip(&sq, SqInv::Ins("x".into()), SqRes::Ok);
        roundtrip(&sq, SqInv::Rem, SqRes::Item("x".to_string()));

        use crate::file::{FileAdt, FileInv, FileRes};
        let f: FileAdt<i64> = FileAdt::default();
        roundtrip(&f, FileInv::Write(9), FileRes::Ok);
        assert!(f.redo(&FileInv::Read, &FileRes::Val(0)).is_none());

        use crate::set::{SetAdt, SetInv};
        let s: SetAdt<i64> = SetAdt::default();
        roundtrip(&s, SetInv::Add(1), true);
        roundtrip(&s, SetInv::Add(1), false);
        roundtrip(&s, SetInv::Remove(1), true);
        assert!(s.redo(&SetInv::Contains(1), &true).is_none());

        use crate::directory::{DirInv, DirRes, DirectoryAdt};
        let d: DirectoryAdt<String, i64> = DirectoryAdt::default();
        roundtrip(&d, DirInv::Insert("k".into(), 1), DirRes::Inserted);
        roundtrip(&d, DirInv::Insert("k".into(), 1), DirRes::Duplicate);
        roundtrip(&d, DirInv::Remove("k".into()), DirRes::Val(1));
        roundtrip(&d, DirInv::Remove("k".into()), DirRes::Missing);
        assert!(d.redo(&DirInv::Lookup("k".into()), &DirRes::Missing).is_none());
    }
}
