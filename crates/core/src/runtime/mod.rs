//! The Avalon-style threaded object runtime (paper appendix, generalized).
//!
//! The appendix implements `Account` with four data structures — a lock
//! table, an intent table, a bound table and a heap of committed-but-
//! unforgotten transactions — plus a `when` guarded-command that blocks the
//! caller until its lock request is grantable. [`TxObject`] packages those
//! pieces generically:
//!
//! * a typed data type plugs in through [`RuntimeAdt`] (compact version +
//!   per-transaction intent summaries + candidate evaluation);
//! * a concurrency-control scheme plugs in through [`LockSpec`] (hybrid,
//!   commutativity-based, or read/write conflict tests over executed
//!   operations);
//! * transactions are driven through shared [`TxnHandle`]s, which track the
//!   commit-timestamp lower bound (`s.bound`), the set of touched objects,
//!   a doom flag set by deadlock victims, and the wake token a blocked
//!   execution parks on;
//! * blocking is event-driven — [`TxObject::execute`] is the atomic `when`,
//!   woken by completions at the object and by dooms, bounded only by
//!   [`BlockPolicy`]'s timeout — with [`WaitObserver`] callbacks feeding a
//!   waits-for-graph deadlock detector (`hcc-txn`).

mod adt;
mod handle;
mod horizon;
mod object;
mod options;
mod spec_adt;

pub use adt::{ClassifiedOp, LockSpec, RedoDecodeError, RuntimeAdt};
pub use handle::{Participants, TxnHandle, TxnPhase, WakeToken};
/// Re-exported so a [`RedoSink`] implementor (the durable store) can name
/// it without depending on `hcc-spec`.
pub use hcc_spec::TxnId;
pub use horizon::{HorizonPins, PinGuard};
pub use object::{
    CacheAligned, ExecError, NotFresh, ObjectStats, ReplayError, SnapshotStale, TryExecOutcome,
    TxObject, TxParticipant,
};
pub use options::{BlockPolicy, NullObserver, RedoSink, RedoTicket, RuntimeOptions, WaitObserver};
pub use spec_adt::{AdtDef, ConflictSpec, SpecAdt, SpecLock};
