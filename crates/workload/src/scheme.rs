//! Concurrency-control scheme selection, and the one multithreaded
//! driver the scheme comparisons (E7–E13, `tests/end_to_end.rs`) run
//! their transaction bodies through.

use hcc_core::runtime::{ExecError, RuntimeAdt, SpecLock, TxnHandle};
use hcc_db::Db;
use hcc_relations::derive::{commutativity_atoms, conflict_atoms, read_write_atoms};
use hcc_relations::tables::AdtConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

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
    /// describes, for [`Db::object_with`]; the type's own classifier
    /// files its executed operations. Each type's relation is derived
    /// once per scheme and process.
    pub fn lock<A: RuntimeAdt>(self, cfg: AdtConfig) -> SpecLock<A> {
        let derive = match self {
            Scheme::Hybrid => conflict_atoms,
            Scheme::Commutativity => commutativity_atoms,
            Scheme::Rw2pl => read_write_atoms,
        };
        SpecLock::new(self.name(), cfg.cached(derive))
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
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
/// commit `txns_per_thread` transactions of `body(txn, worker, rng)`
/// through `db`'s manager: begin → body → commit, and after an abort (a
/// body error or a refused commit) begin again. A `db` built with a
/// short [`lock_timeout`](hcc_db::DbBuilder::lock_timeout) turns a
/// transaction stuck behind a conflict — or a dequeue on an empty queue
/// — into an abort that is retried. Each worker's `rng` is seeded with
/// its index, so the operations drawn are reproducible; the
/// interleaving is not.
pub fn run(
    db: &Db,
    threads: usize,
    txns_per_thread: usize,
    body: impl Fn(&Arc<TxnHandle>, usize, &mut StdRng) -> Result<(), ExecError> + Sync,
) -> Run {
    let mgr = db.manager();
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
        use hcc_adts::account::AccountAdt;
        use hcc_adts::fifo_queue::QueueAdt;
        use hcc_adts::file::FileAdt;
        use hcc_adts::semiqueue::SemiqueueAdt;

        let db = Db::in_memory();
        let account = |name, scheme: Scheme| {
            db.object_with(name, scheme.lock::<AccountAdt>(AdtConfig::account())).unwrap()
        };
        assert_eq!(account("a", Scheme::Hybrid).inner().scheme(), "hybrid");
        assert_eq!(account("b", Scheme::Commutativity).inner().scheme(), "commutativity");
        let q = db.object_with("q", Scheme::Rw2pl.lock::<QueueAdt<i64>>(AdtConfig::queue()));
        assert_eq!(q.unwrap().inner().scheme(), "rw-2pl");
        let f = db.object_with("f", Scheme::Hybrid.lock::<FileAdt<i64>>(AdtConfig::file()));
        assert_eq!(f.unwrap().inner().scheme(), "hybrid");
        let cfg = AdtConfig::semiqueue();
        let s = db.object_with("s", Scheme::Hybrid.lock::<SemiqueueAdt<i64>>(cfg));
        assert_eq!(s.unwrap().inner().scheme(), "hybrid");
    }
}
