//! # hcc-core — the hybrid-atomic object runtime
//!
//! [`runtime::TxObject`] is the appendix-style production object: a
//! compact version, per-transaction intent summaries, a lock table keyed
//! by executed operations, `when`-style blocking on conflicts, and
//! horizon-based forgetting of committed transactions. Typed data types
//! plug in through [`runtime::RuntimeAdt`]; a concurrency-control scheme
//! (hybrid, commutativity, read/write) is a [`runtime::SpecLock`] over a
//! relation derived from the type's serial specification.
//!
//! The literal Section-5.1 LOCK state machine it is tested against —
//! slow, obviously correct, recording its own history — is a test oracle
//! and lives beside the atomicity checkers in `hcc-verify`.

pub mod runtime;

pub use runtime::{
    AdtDef, BlockPolicy, ConflictSpec, ExecError, RuntimeAdt, RuntimeOptions, SpecAdt, SpecLock,
    TxObject, TxParticipant, TxnHandle, TxnPhase, WaitObserver,
};
