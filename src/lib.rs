//! # hybrid-cc — Hybrid Concurrency Control for Abstract Data Types
//!
//! A Rust reproduction of Herlihy & Weihl, *Hybrid Concurrency Control for
//! Abstract Data Types* (PODS 1988; JCSS 43, 1991). This facade crate
//! re-exports the workspace so that examples and downstream users need a
//! single dependency:
//!
//! * [`db`] — **the front door**: the [`Db`] session facade — typed
//!   durable handles, scoped retrying transactions, the unified
//!   [`HccError`] taxonomy (see `docs/API.md`).
//! * [`spec`] — events, histories, well-formedness, serial specifications
//!   and the example data types (paper Sections 2–3).
//! * [`relations`] — dependency relations, invalidated-by and
//!   failure-to-commute derivation, minimal-relation enumeration, and the
//!   paper's Tables I–VI (Sections 4 and 7).
//! * [`core`] — the Avalon-style threaded object runtime with horizon
//!   compaction (Sections 5–6, appendix).
//! * [`adts`] — production object implementations (Account, FIFO queue,
//!   Semiqueue, File, Counter, Set, Directory), plus the **declarative
//!   ADT surface** (`adts::define`, `define_adt!`): state a type's
//!   serial specification once and get locking (derived), logging,
//!   recovery, and typed [`Db`] handles generically — see
//!   `docs/API.md`, "Defining your own ADT".
//! * [`storage`] — the durable storage subsystem: segmented CRC-framed
//!   write-ahead log, checkpoints, compaction policies, and group commit.
//! * [`txn`] — logical clocks, the transaction manager, two-phase commit,
//!   deadlock detection and the write-ahead log (the low-level escape
//!   hatch under [`Db`]).
//! * [`obs`] — dependency-free metric primitives behind `db.stats()`:
//!   sharded counters/gauges, log-scale histograms, snapshots and deltas,
//!   the `HCC_METRICS` dump hook and the `HCC_TRACE` flight recorder
//!   (see `docs/OBSERVABILITY.md`).
//! * [`verify`] — serializability / hybrid-atomicity / online checkers and
//!   the Section-5.1 LOCK state machine they are run against.
//! * [`check`] — the static auditor: bounded soundness verification of
//!   conflict tables against the hybrid-atomicity oracle, conservatism
//!   reporting, deadlock-potential analysis, and the `adtcheck` /
//!   `repolint` CI binaries (see `docs/CHECKING.md`).
//! * [`workload`] — the scheme-comparison driver and the crash workloads
//!   the tests, CI and examples run.
//! * [`wire`] / [`server`] / [`client`] — the network front door: the
//!   length-prefixed CRC-framed TCP protocol (sharing the WAL's frame
//!   envelope), the session/worker-pool server with bounded admission
//!   control and graceful drain, and the reconnecting synchronous
//!   client with the local error taxonomy (see `docs/NETWORK.md`).
//! * [`repl`] — log-shipping replication: the primary-side shipper
//!   tailing the WAL in global ticket order, followers serving
//!   watermark-bounded consistent-prefix snapshot reads while lagging,
//!   and promote-on-failure via ordinary recovery (see
//!   `docs/REPLICATION.md`).
//!
//! ## Quickstart
//!
//! ```
//! use hybrid_cc::adts::account::AccountObject;
//! use hybrid_cc::Db;
//!
//! // One `Db` per system. `Db::open(dir)` gives the same API durably
//! // (WAL + checkpoints + recovery); in-memory matches the paper's model.
//! let db = Db::in_memory();
//!
//! // Typed handles construct, register, and (when durable) recover the
//! // object in one call — reopening "checking" later returns this same
//! // instance, never a blank twin.
//! let checking = db.object::<AccountObject>("checking").unwrap();
//!
//! // Scoped transactions: commit on Ok, abort on Err; transient failures
//! // (deadlock victims, refused prepare votes) retry with bounded
//! // backoff, applying effects exactly once.
//! db.transact(|tx| {
//!     checking.credit(tx, 100.into())?;
//!     Ok(())
//! })
//! .unwrap();
//!
//! let debited = db
//!     .transact(|tx| {
//!         let ok = checking.debit(tx, 30.into())?;
//!         Ok(ok)
//!     })
//!     .unwrap();
//! assert!(debited);
//! assert_eq!(checking.committed_balance(), 70.into());
//! ```

pub use hcc_adts as adts;
pub use hcc_check as check;
pub use hcc_client as client;
pub use hcc_core as core;
pub use hcc_db as db;
pub use hcc_obs as obs;
pub use hcc_relations as relations;
pub use hcc_repl as repl;
pub use hcc_server as server;
pub use hcc_spec as spec;
pub use hcc_storage as storage;
pub use hcc_txn as txn;
pub use hcc_verify as verify;
pub use hcc_wire as wire;
pub use hcc_workload as workload;

pub use hcc_db::{Db, DbBuilder, DbObject, HccError, ReadTx, RetryPolicy, Tx};
