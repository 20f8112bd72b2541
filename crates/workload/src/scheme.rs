//! Concurrency-control scheme selection, object construction, and the
//! one multithreaded driver the scheme comparisons (E7–E13,
//! `tests/end_to_end.rs`) run their transaction bodies through.

use hcc_adts::account::{self, AccountObject};
use hcc_adts::fifo_queue::{self, QueueObject};
use hcc_adts::file::{self, FileObject};
use hcc_adts::semiqueue::{self, SemiqueueObject};
use hcc_core::runtime::{BlockPolicy, ExecError, RuntimeAdt, RuntimeOptions, SpecLock, TxnHandle};
use hcc_relations::derive::{
    cached_atoms, commutativity_atoms, conflict_atoms, read_write_atoms, DeriveSpec,
};
use hcc_relations::relation::Relation;
use hcc_relations::tables::AdtConfig;
use hcc_spec::Operation;
use hcc_txn::TxnManager;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The three concurrency-control schemes under comparison (Section 7),
/// each a relation derived from the type's serial specification. All run
/// on the same object runtime, so a comparison isolates the relation. A
/// rival in the hybrid runtime is sound: hybrid atomicity is upward
/// compatible with dynamic atomicity, since the timestamp order is one of
/// the orders consistent with `precedes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's dependency-based locking: the invalidated-by relation
    /// (Tables I, II, IV, V).
    Hybrid,
    /// Weihl-style forward-commutativity locking: failure to commute
    /// (Table VI, and Table III for the queue).
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

    /// This scheme's lock for a type whose serial specification `cfg`
    /// describes, mapping executed operations onto it with `to_spec`. Each
    /// type's relation is derived once per scheme and process.
    pub fn lock<A: RuntimeAdt>(
        self,
        cfg: AdtConfig,
        to_spec: fn(&A::Inv, &A::Res) -> Operation,
    ) -> Arc<SpecLock<A>> {
        let spec = DeriveSpec::from(cfg);
        let derive = match self {
            Scheme::Hybrid => conflict_atoms,
            Scheme::Commutativity => commutativity_atoms,
            Scheme::Rw2pl => read_write_atoms,
        };
        let atoms = cached_atoms(spec.adt.type_name(), &spec, derive);
        Arc::new(SpecLock::new(self.name(), to_spec, Arc::new(Relation::new(spec.classify, atoms))))
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// An account under `scheme`.
pub fn make_account(scheme: Scheme, name: &str, opts: RuntimeOptions) -> AccountObject {
    AccountObject::with(name, scheme.lock(AdtConfig::account(), account::to_spec_op), opts)
}

/// An `i64` FIFO queue under `scheme`.
pub fn make_queue(scheme: Scheme, name: &str, opts: RuntimeOptions) -> QueueObject<i64> {
    QueueObject::with(name, scheme.lock(AdtConfig::queue(), fifo_queue::to_spec_op), opts)
}

/// An `i64` semiqueue under `scheme`.
pub fn make_semiqueue(scheme: Scheme, name: &str, opts: RuntimeOptions) -> SemiqueueObject<i64> {
    SemiqueueObject::with(name, scheme.lock(AdtConfig::semiqueue(), semiqueue::to_spec_op), opts)
}

/// An `i64` register under `scheme`.
pub fn make_file(scheme: Scheme, name: &str, opts: RuntimeOptions) -> FileObject<i64> {
    FileObject::with(name, scheme.lock(AdtConfig::file(), file::to_spec_op), opts)
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
