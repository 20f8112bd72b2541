//! # hcc-workload — the scheme driver and the crash workloads
//!
//! Every module here is run by a test, a CI job or an example:
//!
//! * [`scheme`] — the lock of a chosen [`Scheme`] (hybrid,
//!   commutativity, read/write 2PL), for `Db::object_with`, and
//!   [`scheme::run`], which runs transaction bodies on worker threads
//!   over a `Db`'s manager (abort-and-retry on timeouts and deadlock
//!   victims); `tests/end_to_end.rs` states the claim experiments E7–E13
//!   as bodies for it;
//! * [`crash`] / [`multisite`] / [`custom`] — randomized crash-recovery
//!   scenarios (single-site, distributed, and a user-defined
//!   `define_adt!` type written only against the public API), run by
//!   `tests/{recovery,self_logging,multisite,db_facade,defined_adts}.rs`
//!   and the CI recovery matrix;
//! * [`inventory`] — the inventory `define_adt!` type that
//!   `examples/custom_adt.rs` runs and `adtcheck` audits;
//! * [`socket`] — the crash workload over a real TCP socket: client
//!   drivers for the `hcc-server` front door, ack-record reports, and
//!   the recovery verifier that holds the log against them
//!   (`examples/server_client.rs`);
//! * [`repl`] — the socket workload with a replication pair:
//!   kill-primary → promote-follower failover under load, lagging
//!   consistent-prefix read sampling, and the failover verifier.

pub mod crash;
pub mod custom;
pub mod inventory;
pub mod multisite;
pub mod repl;
pub mod scheme;
pub mod socket;

pub use scheme::Scheme;

/// Scratch paths for this crate's durable tests.
#[cfg(test)]
mod tmp {
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A fresh scratch path under the temp directory. Dropping it removes
    /// what a test left there (a store directory or a report file) and its
    /// `.addr` file, so a test cleans up whether it passes or panics.
    pub(crate) struct Tmp(PathBuf);

    impl Tmp {
        /// `<temp>/<prefix>-<pid>-<name>-<n>`, with `n` unique in the
        /// process; anything already at that path is removed first.
        pub(crate) fn new(prefix: &str, name: &str) -> Tmp {
            static N: AtomicU64 = AtomicU64::new(0);
            let n = N.fetch_add(1, Ordering::Relaxed);
            let p =
                std::env::temp_dir().join(format!("{prefix}-{}-{name}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&p);
            Tmp(p)
        }
    }

    impl std::ops::Deref for Tmp {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Tmp {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(self.0.with_extension("addr"));
        }
    }
}
