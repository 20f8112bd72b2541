//! Concurrency-control scheme selection, object construction, and the
//! one multithreaded driver the scheme comparisons (E7–E13,
//! `tests/end_to_end.rs`) run their transaction bodies through.

use hcc_adts::account::{AccountHybrid, AccountObject};
use hcc_adts::fifo_queue::{QueueObject, QueueTableII};
use hcc_adts::file::{FileHybrid, FileObject};
use hcc_adts::semiqueue::{SemiqueueHybrid, SemiqueueObject};
use hcc_baselines::{
    rw_account, rw_file, rw_queue, rw_semiqueue, AccountCommutativity, FileCommutativity,
    QueueCommutativity, SemiqueueCommutativity,
};
use hcc_core::runtime::{BlockPolicy, ExecError, RuntimeOptions, TxnHandle};
use hcc_txn::TxnManager;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The three concurrency-control schemes under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's dependency-based locking (Tables I, II, IV, V).
    Hybrid,
    /// Weihl-style forward-commutativity locking (Table VI et al.).
    Commutativity,
    /// Untyped strict read/write two-phase locking.
    Rw2pl,
}

impl Scheme {
    /// All schemes, in presentation order.
    pub const ALL: [Scheme; 3] = [Scheme::Hybrid, Scheme::Commutativity, Scheme::Rw2pl];

    /// Scheme name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Hybrid => "hybrid",
            Scheme::Commutativity => "commutativity",
            Scheme::Rw2pl => "rw-2pl",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// An account under `scheme`.
pub fn make_account(scheme: Scheme, name: &str, opts: RuntimeOptions) -> AccountObject {
    match scheme {
        Scheme::Hybrid => AccountObject::with(name, Arc::new(AccountHybrid), opts),
        Scheme::Commutativity => AccountObject::with(name, Arc::new(AccountCommutativity), opts),
        Scheme::Rw2pl => AccountObject::with(name, Arc::new(rw_account()), opts),
    }
}

/// An `i64` FIFO queue under `scheme` (hybrid uses Table II).
pub fn make_queue(scheme: Scheme, name: &str, opts: RuntimeOptions) -> QueueObject<i64> {
    match scheme {
        Scheme::Hybrid => QueueObject::with(name, Arc::new(QueueTableII), opts),
        Scheme::Commutativity => QueueObject::with(name, Arc::new(QueueCommutativity), opts),
        Scheme::Rw2pl => QueueObject::with(name, Arc::new(rw_queue()), opts),
    }
}

/// An `i64` semiqueue under `scheme`.
pub fn make_semiqueue(scheme: Scheme, name: &str, opts: RuntimeOptions) -> SemiqueueObject<i64> {
    match scheme {
        Scheme::Hybrid => SemiqueueObject::with(name, Arc::new(SemiqueueHybrid), opts),
        Scheme::Commutativity => {
            SemiqueueObject::with(name, Arc::new(SemiqueueCommutativity), opts)
        }
        Scheme::Rw2pl => SemiqueueObject::with(name, Arc::new(rw_semiqueue()), opts),
    }
}

/// An `i64` register under `scheme`.
pub fn make_file(scheme: Scheme, name: &str, opts: RuntimeOptions) -> FileObject<i64> {
    match scheme {
        Scheme::Hybrid => FileObject::with(name, Arc::new(FileHybrid), opts),
        Scheme::Commutativity => FileObject::with(name, Arc::new(FileCommutativity), opts),
        Scheme::Rw2pl => FileObject::with(name, Arc::new(rw_file()), opts),
    }
}

/// Object options for driven runs: the manager's options (deadlock
/// detection included) with a short lock timeout, so a transaction stuck
/// behind a conflict — or a dequeue on an empty queue — aborts and is
/// retried.
pub fn bench_options(mgr: &Arc<TxnManager>) -> RuntimeOptions {
    let mut opts = mgr.object_options();
    opts.block = BlockPolicy { timeout: Some(Duration::from_millis(500)) };
    opts
}

/// What one [`run`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// Transactions the manager committed during the run.
    pub committed: u64,
    /// Attempts aborted (timeouts, deadlock victims, refused commits);
    /// each was retried.
    pub aborted: u64,
    /// Lock requests refused, from the manager's `lock.refusals.*`
    /// counters.
    pub refusals: u64,
    /// Lock waits, from the manager's `lock.waits.*` counters.
    pub waits: u64,
}

/// Run `threads` workers that start together at a barrier and each
/// commit `txns_per_thread` transactions of `body(txn, worker, rng)`:
/// begin → body → commit, and after an abort (a body error or a refused
/// commit) begin again. Each worker's `rng` is seeded with its index, so
/// the operations drawn are reproducible; the interleaving is not.
pub fn run(
    mgr: &Arc<TxnManager>,
    threads: usize,
    txns_per_thread: usize,
    body: impl Fn(&Arc<TxnHandle>, usize, &mut StdRng) -> Result<(), ExecError> + Sync,
) -> Run {
    let committed_before = mgr.committed_count();
    let metrics_before = mgr.metrics().snapshot();
    let aborted = AtomicU64::new(0);
    let barrier = Barrier::new(threads);
    std::thread::scope(|s| {
        for w in 0..threads {
            let (body, aborted, barrier) = (&body, &aborted, &barrier);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(w as u64);
                barrier.wait();
                for _ in 0..txns_per_thread {
                    loop {
                        let t = mgr.begin();
                        let ok = body(&t, w, &mut rng).is_ok();
                        // Hold the transaction open across a yield so
                        // workers overlap even on one core.
                        std::thread::yield_now();
                        if ok && mgr.commit(t.clone()).is_ok() {
                            break;
                        }
                        mgr.abort(t);
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let delta = mgr.metrics().snapshot().delta(&metrics_before);
    Run {
        committed: mgr.committed_count() - committed_before,
        aborted: aborted.into_inner(),
        refusals: delta.sum_prefix("lock.refusals."),
        waits: delta.sum_prefix("lock.waits."),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = Scheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn constructors_apply_the_scheme() {
        let opts = RuntimeOptions::default;
        assert_eq!(make_account(Scheme::Hybrid, "a", opts()).inner().scheme(), "hybrid");
        assert_eq!(
            make_account(Scheme::Commutativity, "a", opts()).inner().scheme(),
            "commutativity"
        );
        assert_eq!(make_queue(Scheme::Rw2pl, "q", opts()).inner().scheme(), "rw-2pl");
        assert_eq!(make_file(Scheme::Hybrid, "f", opts()).inner().scheme(), "hybrid");
        assert_eq!(make_semiqueue(Scheme::Hybrid, "s", opts()).inner().scheme(), "hybrid");
    }
}
