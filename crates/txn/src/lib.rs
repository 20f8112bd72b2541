//! # hcc-txn — the transaction substrate
//!
//! The paper assumes three services around the LOCK algorithm; this crate
//! provides all of them:
//!
//! * **Timestamp generation** ([`clock`]): a Lamport-style logical clock.
//!   Each operation raises the transaction's lower bound to the object's
//!   clock; commit timestamps are generated above both the global clock and
//!   that bound, which yields exactly the paper's well-formedness
//!   constraint `precedes(H|X) ⊆ TS(H)`.
//! * **Atomic commitment** ([`manager`]): a transaction manager running a
//!   two-phase protocol over every object the transaction touched, so a
//!   transaction never commits at some objects and aborts at others. The
//!   manager binds its objects to its durable store, the one **redo
//!   sink** they self-log through (`object_options`); [`registry`]
//!   holds what recovery is made of — the 2PC resolution rule and the
//!   one replay step — while the recovery front end itself, and the one
//!   name → object table checkpoints walk, is `hcc-db`'s `Db`. A
//!   message-passing simulation of the distributed version — with
//!   per-site WALs and a coordinator decision log — lives in [`sim`].
//! * **Deadlock handling** ([`deadlock`]): the paper names "the usual
//!   remedies (e.g., timeout or detection)"; both are here — a
//!   waits-for-graph detector with youngest-victim selection, and the
//!   timeout policy built into `hcc-core`'s blocking.
//!
//! The write-ahead log itself lives in `hcc-storage`; `hcc-db`'s
//! `Db::open` replays it in commit-timestamp order, and nothing else
//! does.

pub mod clock;
pub mod deadlock;
pub mod manager;
mod marks;
pub mod registry;
pub mod sim;

pub use clock::LogicalClock;
pub use deadlock::DeadlockDetector;
pub use manager::{CommitError, ReplicatedOps, TxnManager};
pub use registry::{RecoveryError, RecoveryReport};
