//! # hcc-baselines — the comparator concurrency-control schemes
//!
//! Section 7 compares hybrid locking against two families:
//!
//! * **Commutativity-based 2PL** (Eswaran et al., Korth, Bernstein et al.,
//!   Weihl): lock modes conflict when the operations fail to
//!   forward-commute. For the Account this is Table VI — strictly more
//!   conflicts than the hybrid Table V (`Credit↔Post`, `Post↔Debit-Ok`
//!   added). For the FIFO queue it coincides with Table III; for the
//!   Semiqueue and Counter it coincides with the hybrid relation (the
//!   paper: the relations "may be weaker than or incomparable to" each
//!   other).
//! * **Untyped read/write strict 2PL**: every operation is classified by
//!   its *invocation* as a read or a write; writes exclude everything.
//!   This is the classical baseline that ignores type semantics entirely.
//!
//! All schemes run on the same [`hcc_core::runtime::TxObject`] runtime —
//! only the [`LockSpec`] changes — so throughput comparisons isolate the
//! conflict relation. Running a commutativity-based (dynamic atomic) object
//! in the hybrid runtime is sound: the paper notes hybrid atomicity is
//! upward compatible with dynamic atomicity, since the timestamp order is
//! one of the orders consistent with `precedes`.

use hcc_adts::account::{AccountAdt, AccountInv, AccountRes};
use hcc_adts::counter::{CounterAdt, CounterInv};
use hcc_adts::fifo_queue::{Item, QueueAdt};
use hcc_adts::file::{Content, FileAdt, FileInv, FileRes};
use hcc_adts::semiqueue::SemiqueueAdt;
use hcc_core::runtime::{LockSpec, RuntimeAdt};

/// Re-export: the counter's commutativity relation coincides with the
/// hybrid relation.
pub use hcc_adts::counter::CounterHybrid as CounterCommutativity;
/// Re-export: the queue's commutativity-induced conflict relation is
/// exactly Table III (Section 7).
pub use hcc_adts::fifo_queue::QueueTableIII as QueueCommutativity;
/// Re-export: the semiqueue's commutativity relation coincides with the
/// hybrid Table IV.
pub use hcc_adts::semiqueue::SemiqueueHybrid as SemiqueueCommutativity;

/// The "failure to commute" relation for Account (Table VI).
pub struct AccountCommutativity;

impl LockSpec<AccountAdt> for AccountCommutativity {
    fn conflicts(&self, a: &(AccountInv, AccountRes), b: &(AccountInv, AccountRes)) -> bool {
        use AccountInv::{Credit, Debit, Post};
        use AccountRes::{Debited, Overdraft};
        let class = |o: &(AccountInv, AccountRes)| match (&o.0, &o.1) {
            (Credit(_), _) => 0u8,
            (Post(_), _) => 1,
            (Debit(_), Debited) => 2,
            (Debit(_), Overdraft) => 3,
            (Debit(_), _) => unreachable!("debit responses are Debited/Overdraft"),
        };
        // Table VI pairs: {C,P}, {C,O}, {P,D}, {P,O}, {D,D}.
        matches!(
            (class(a), class(b)),
            (0, 1) | (1, 0) | (0, 3) | (3, 0) | (1, 2) | (2, 1) | (1, 3) | (3, 1) | (2, 2)
        )
    }
    fn name(&self) -> &'static str {
        "commutativity"
    }
}

/// The "failure to commute" relation for File: distinct writes do not
/// commute (no Thomas Write Rule), and a read fails to commute with a
/// write of a different value.
pub struct FileCommutativity;

impl<T: Content> LockSpec<FileAdt<T>> for FileCommutativity {
    fn conflicts(&self, a: &(FileInv<T>, FileRes<T>), b: &(FileInv<T>, FileRes<T>)) -> bool {
        match (a, b) {
            ((FileInv::Write(v), _), (FileInv::Write(w), _)) => v != w,
            ((FileInv::Read, FileRes::Val(v)), (FileInv::Write(w), _))
            | ((FileInv::Write(w), _), (FileInv::Read, FileRes::Val(v))) => v != w,
            _ => false,
        }
    }
    fn name(&self) -> &'static str {
        "commutativity"
    }
}

/// Untyped strict read/write 2PL: operations are classified by invocation;
/// writers exclude everything.
pub struct Rw2pl<A: RuntimeAdt> {
    is_read: fn(&A::Inv) -> bool,
}

impl<A: RuntimeAdt> Rw2pl<A> {
    /// Classify invocations with `is_read`; everything else is a write.
    pub fn new(is_read: fn(&A::Inv) -> bool) -> Rw2pl<A> {
        Rw2pl { is_read }
    }
}

impl<A: RuntimeAdt> LockSpec<A> for Rw2pl<A> {
    fn conflicts(&self, a: &(A::Inv, A::Res), b: &(A::Inv, A::Res)) -> bool {
        !((self.is_read)(&a.0) && (self.is_read)(&b.0))
    }
    fn name(&self) -> &'static str {
        "rw-2pl"
    }
}

/// RW-2PL for accounts: every operation writes (debit reads *and* writes).
pub fn rw_account() -> Rw2pl<AccountAdt> {
    Rw2pl::new(|_| false)
}

/// RW-2PL for queues: both `enq` and `deq` write.
pub fn rw_queue<T: Item>() -> Rw2pl<QueueAdt<T>> {
    Rw2pl::new(|_| false)
}

/// RW-2PL for semiqueues: both operations write.
pub fn rw_semiqueue<T: hcc_adts::semiqueue::Item>() -> Rw2pl<SemiqueueAdt<T>> {
    Rw2pl::new(|_| false)
}

/// RW-2PL for files: `read` reads, `write` writes.
pub fn rw_file<T: Content>() -> Rw2pl<FileAdt<T>> {
    Rw2pl::new(|inv| matches!(inv, FileInv::Read))
}

/// RW-2PL for counters: `read` reads, updates write.
pub fn rw_counter() -> Rw2pl<CounterAdt> {
    Rw2pl::new(|inv| matches!(inv, CounterInv::Read))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_adts::account::AccountObject;
    use hcc_adts::fifo_queue::QueueObject;
    use hcc_adts::file::FileObject;
    use hcc_core::runtime::{ExecError, RuntimeOptions, TxParticipant, TxnHandle};
    use hcc_spec::{Rational, TxnId};
    use std::sync::Arc;
    use std::time::Duration;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }
    fn h(n: u64) -> Arc<TxnHandle> {
        TxnHandle::new(TxnId(n))
    }
    fn short() -> RuntimeOptions {
        RuntimeOptions::with_timeout(Some(Duration::from_millis(30)))
    }

    #[test]
    fn commutativity_blocks_credit_during_post() {
        // Table VI: Credit ↔ Post conflict (hybrid admits them).
        let a = AccountObject::with("a", Arc::new(AccountCommutativity), short());
        let (t1, t2) = (h(1), h(2));
        a.post(&t1, r(5)).unwrap();
        assert_eq!(a.credit(&t2, r(10)), Err(ExecError::Timeout));
    }

    #[test]
    fn commutativity_blocks_post_during_debit() {
        let a = AccountObject::with("a", Arc::new(AccountCommutativity), short());
        let t0 = h(1);
        a.credit(&t0, r(100)).unwrap();
        a.inner().commit_at(t0.id(), 1);
        let (t1, t2) = (h(2), h(3));
        assert!(a.debit(&t1, r(10)).unwrap());
        assert_eq!(a.post(&t2, r(5)), Err(ExecError::Timeout));
    }

    #[test]
    fn commutativity_still_admits_concurrent_credits() {
        let a = AccountObject::with("a", Arc::new(AccountCommutativity), short());
        let (t1, t2) = (h(1), h(2));
        a.credit(&t1, r(5)).unwrap();
        a.credit(&t2, r(7)).unwrap();
        a.inner().commit_at(t1.id(), 1);
        a.inner().commit_at(t2.id(), 2);
        assert_eq!(a.committed_balance(), r(12));
    }

    #[test]
    fn rw_2pl_serializes_everything_on_accounts() {
        let a = AccountObject::with("a", Arc::new(rw_account()), short());
        let (t1, t2) = (h(1), h(2));
        a.credit(&t1, r(5)).unwrap();
        assert_eq!(a.credit(&t2, r(7)), Err(ExecError::Timeout));
    }

    #[test]
    fn commutativity_queue_blocks_concurrent_enqueues() {
        // Table III = commutativity: enq(v) ↔ enq(v') conflict.
        let q: QueueObject<i64> = QueueObject::with("q", Arc::new(QueueCommutativity), short());
        let (t1, t2) = (h(1), h(2));
        q.enq(&t1, 1).unwrap();
        assert_eq!(q.enq(&t2, 2), Err(ExecError::Timeout));
    }

    #[test]
    fn rw_queue_blocks_everything() {
        let q: QueueObject<i64> = QueueObject::with("q", Arc::new(rw_queue()), short());
        let (t1, t2) = (h(1), h(2));
        q.enq(&t1, 1).unwrap();
        assert_eq!(q.enq(&t2, 1), Err(ExecError::Timeout));
    }

    #[test]
    fn file_commutativity_blocks_blind_writes() {
        let f: FileObject<i64> = FileObject::with("f", Arc::new(FileCommutativity), short());
        let (t1, t2) = (h(1), h(2));
        f.write(&t1, 1).unwrap();
        assert_eq!(f.write(&t2, 2), Err(ExecError::Timeout), "no Thomas Write Rule");
        // Same-value writes commute.
        let (t3, f2) = (h(3), FileObject::<i64>::with("f2", Arc::new(FileCommutativity), short()));
        let t4 = h(4);
        f2.write(&t3, 5).unwrap();
        f2.write(&t4, 5).unwrap();
    }

    #[test]
    fn rw_file_readers_share() {
        let f: FileObject<i64> = FileObject::with("f", Arc::new(rw_file()), short());
        let (t1, t2) = (h(1), h(2));
        assert_eq!(f.read(&t1).unwrap(), 0);
        assert_eq!(f.read(&t2).unwrap(), 0, "readers coexist");
        let t3 = h(3);
        assert_eq!(f.write(&t3, 1), Err(ExecError::Timeout), "writer excluded");
    }

    #[test]
    fn scheme_names() {
        assert_eq!(LockSpec::<AccountAdt>::name(&AccountCommutativity), "commutativity");
        assert_eq!(LockSpec::<AccountAdt>::name(&rw_account()), "rw-2pl");
    }
}
