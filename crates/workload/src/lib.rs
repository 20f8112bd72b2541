//! # hcc-workload — workload generators and the multithreaded driver
//!
//! The claim experiments (E7–E13, asserted by each module's unit tests)
//! and the crash-recovery matrix run through this crate: it constructs
//! objects under a chosen [`Scheme`], drives them with worker threads
//! through the `hcc-txn` manager (abort-and-retry on timeouts and
//! deadlock victims), and reports [`Metrics`].
//!
//! Scenario families:
//!
//! * [`queue`] — enqueue-only producers and producer/consumer pipelines
//!   (E7, E10);
//! * [`bank`] — single-account operation mixes with a controllable
//!   overdraft rate, and multi-account transfers (E8, E13);
//! * [`register`] — write-heavy register workloads for the Thomas Write
//!   Rule experiment (E9);
//! * [`compaction`] — retained-state probes for the Section-6 experiment
//!   (E11);
//! * [`crash`] / [`multisite`] / [`custom`] — randomized crash-recovery
//!   scenarios (single-site, distributed, and a user-defined
//!   `define_adt!` type written only against the public API);
//! * [`socket`] — the crash workload over a real TCP socket: client
//!   drivers for the `hcc-server` front door, ack-record reports, and
//!   the recovery verifier that holds the log against them;
//! * [`repl`] — the socket workload with a replication pair:
//!   kill-primary → promote-follower failover under load, lagging
//!   consistent-prefix read sampling, and the failover verifier.

pub mod bank;
pub mod compaction;
pub mod crash;
pub mod custom;
pub mod durable;
pub mod inventory;
pub mod metrics;
pub mod multisite;
pub mod queue;
pub mod register;
pub mod repl;
pub mod scheme;
pub mod socket;

pub use metrics::Metrics;
pub use scheme::Scheme;
