//! Queue workloads: enqueue-only producers (E7) and producer/consumer
//! pipelines, including the Semiqueue comparison (E10).

use crate::metrics::Metrics;
use crate::scheme::{make_queue, make_semiqueue, Scheme};
use hcc_core::runtime::{BlockPolicy, RuntimeOptions};
use hcc_txn::TxnManager;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Blocking options for benchmark runs: short timeout, deadlock
/// detection via the manager.
pub fn bench_options(mgr: &Arc<TxnManager>) -> RuntimeOptions {
    let mut opts = mgr.object_options();
    opts.block = BlockPolicy { timeout: Some(Duration::from_millis(500)) };
    opts
}

/// E7: `threads` producers each run `txns_per_thread` transactions of
/// `ops_per_txn` enqueues against one shared queue.
///
/// Under hybrid (Table II) locking the producers never conflict; under
/// commutativity (Table III) and RW-2PL they serialize.
pub fn enqueue_only(
    scheme: Scheme,
    threads: usize,
    txns_per_thread: usize,
    ops_per_txn: usize,
) -> Metrics {
    let mgr = TxnManager::new();
    let q = Arc::new(make_queue(scheme, "q", bench_options(&mgr)));
    let aborted = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(threads));
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..threads {
            let (mgr, q, aborted) = (mgr.clone(), q.clone(), aborted.clone());
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for i in 0..txns_per_thread {
                    loop {
                        let t = mgr.begin();
                        let mut ok = true;
                        for k in 0..ops_per_txn {
                            let item = (w * 1_000_000 + i * 1_000 + k) as i64;
                            if q.enq(&t, item).is_err() {
                                ok = false;
                                break;
                            }
                            // Encourage interleaving on low core counts so
                            // transactions genuinely overlap.
                            std::thread::yield_now();
                        }
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
    // Conflicts and waits come from the manager's metric registry (one
    // `lock.refusals.*` / `lock.waits.*` counter per type and conflict
    // -class pair), not from per-object plumbing.
    let snap = mgr.metrics().snapshot();
    Metrics {
        scenario: "queue-enq".into(),
        scheme,
        threads,
        committed: mgr.committed_count(),
        aborted: aborted.load(Ordering::Relaxed),
        conflicts: snap.sum_prefix("lock.refusals."),
        waits: snap.sum_prefix("lock.waits."),
        elapsed: start.elapsed(),
    }
}

/// Producer/consumer pipeline over a FIFO queue: `producers` threads each
/// commit `items_per_producer` single-enqueue transactions while
/// `consumers` threads dequeue everything in single-dequeue transactions.
pub fn producer_consumer(
    scheme: Scheme,
    producers: usize,
    consumers: usize,
    items_per_producer: usize,
) -> Metrics {
    let mgr = TxnManager::new();
    let q = Arc::new(make_queue(scheme, "q", bench_options(&mgr)));
    run_pipeline(
        "queue-pipeline",
        scheme,
        &mgr,
        producers,
        consumers,
        items_per_producer,
        {
            let q = q.clone();
            move |mgr, item| {
                let t = mgr.begin();
                q.enq(&t, item).is_ok() && mgr.commit(t).is_ok()
            }
        },
        {
            let q = q.clone();
            move |mgr| {
                let t = mgr.begin();
                q.deq(&t).is_ok() && mgr.commit(t).is_ok()
            }
        },
    )
}

/// The same pipeline over a Semiqueue (E10): removers take different
/// items instead of conflicting.
pub fn semiqueue_producer_consumer(
    scheme: Scheme,
    producers: usize,
    consumers: usize,
    items_per_producer: usize,
) -> Metrics {
    let mgr = TxnManager::new();
    let sq = Arc::new(make_semiqueue(scheme, "sq", bench_options(&mgr)));
    run_pipeline(
        "semiqueue-pipeline",
        scheme,
        &mgr,
        producers,
        consumers,
        items_per_producer,
        {
            let sq = sq.clone();
            move |mgr, item| {
                let t = mgr.begin();
                sq.ins(&t, item).is_ok() && mgr.commit(t).is_ok()
            }
        },
        {
            let sq = sq.clone();
            move |mgr| {
                let t = mgr.begin();
                sq.rem(&t).is_ok() && mgr.commit(t).is_ok()
            }
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn run_pipeline(
    scenario: &str,
    scheme: Scheme,
    mgr: &Arc<TxnManager>,
    producers: usize,
    consumers: usize,
    items_per_producer: usize,
    produce: impl Fn(&Arc<TxnManager>, i64) -> bool + Send + Sync,
    consume: impl Fn(&Arc<TxnManager>) -> bool + Send + Sync,
) -> Metrics {
    let total = producers * items_per_producer;
    let consumed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let produce = &produce;
    let consume = &consume;
    let barrier = Arc::new(Barrier::new(producers + consumers));
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..producers {
            let (mgr, aborted) = (mgr.clone(), aborted.clone());
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                for i in 0..items_per_producer {
                    let item = (w * 1_000_000 + i) as i64;
                    while !produce(&mgr, item) {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
        for _ in 0..consumers {
            let (mgr, aborted, consumed) = (mgr.clone(), aborted.clone(), consumed.clone());
            let barrier = barrier.clone();
            s.spawn(move || {
                barrier.wait();
                loop {
                    // Claim an item slot before consuming.
                    if consumed.fetch_add(1, Ordering::Relaxed) >= total as u64 {
                        consumed.fetch_sub(1, Ordering::Relaxed);
                        break;
                    }
                    while !consume(&mgr) {
                        aborted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let snap = mgr.metrics().snapshot();
    Metrics {
        scenario: scenario.into(),
        scheme,
        threads: producers + consumers,
        committed: mgr.committed_count(),
        aborted: aborted.load(Ordering::Relaxed),
        conflicts: snap.sum_prefix("lock.refusals."),
        waits: snap.sum_prefix("lock.waits."),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_enqueue_only_has_no_conflicts() {
        let m = enqueue_only(Scheme::Hybrid, 4, 5, 4);
        assert_eq!(m.committed, 20);
        assert_eq!(m.conflicts, 0, "concurrent enqueues never conflict");
        assert_eq!(m.aborted, 0);
    }

    #[test]
    fn commutativity_enqueue_only_conflicts() {
        let m = enqueue_only(Scheme::Commutativity, 4, 100, 4);
        assert_eq!(m.committed, 400, "all transactions eventually commit");
        assert!(m.conflicts > 0, "enqueues of distinct items conflict");
    }

    #[test]
    fn pipeline_moves_every_item() {
        for scheme in [Scheme::Hybrid, Scheme::Commutativity] {
            let m = producer_consumer(scheme, 2, 2, 10);
            // 20 produce txns + 20 consume txns.
            assert_eq!(m.committed, 40, "{scheme}");
        }
    }

    #[test]
    fn semiqueue_pipeline_moves_every_item() {
        let m = semiqueue_producer_consumer(Scheme::Hybrid, 2, 2, 10);
        assert_eq!(m.committed, 40);
    }
}
