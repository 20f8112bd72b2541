//! Lamport-style logical clock for commit timestamps (Section 2).
//!
//! Well-formedness requires `precedes(H|X) ⊆ TS(H)`: a transaction that
//! executes at an object after another committed there must pick a later
//! timestamp. Objects expose their latest observed commit timestamp
//! (`s.clock`), operations fold it into the transaction's lower bound, and
//! [`LogicalClock::timestamp_after`] issues a fresh timestamp above both
//! the bound and every previously issued timestamp.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone, unique timestamp source shared by all transactions of one
/// system (in the distributed simulation, piggybacked through the commit
/// protocol).
///
/// Every commit writes it, so it sits on 128-byte lines of its own: it
/// is the only line two unrelated in-memory commits both write (see
/// `docs/API.md`, "What unrelated transactions still share").
///
/// Every write is a read-modify-write, so every issued value heads or
/// continues a release sequence: a [`LogicalClock::now`] that reads a
/// value synchronizes with the draw that wrote it and every draw before
/// it. The stable watermark's read marks rely on that (`marks.rs`).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct LogicalClock {
    last: AtomicU64,
}

impl LogicalClock {
    /// A clock starting at 0 (no timestamps issued; real timestamps are
    /// positive).
    pub fn new() -> LogicalClock {
        LogicalClock::default()
    }

    /// Issue a unique timestamp strictly greater than `bound` and than
    /// every timestamp issued before.
    pub fn timestamp_after(&self, bound: u64) -> u64 {
        let mut cur = self.last.load(Ordering::Relaxed);
        loop {
            let next = cur.max(bound) + 1;
            // Release: the caller's read-mark claim, po-before this draw,
            // hb any reader whose `now` reads this value or a later one.
            // The acquire half orders this draw after every earlier one;
            // the read marks do not rely on it.
            match self.last.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return next,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The last issued timestamp (0 if none).
    pub fn now(&self) -> u64 {
        // Acquire: pairs with the draws' release (see the type docs).
        self.last.load(Ordering::Acquire)
    }

    /// Advance the clock to at least `ts` (merging knowledge from another
    /// site, Lamport's receive rule).
    pub fn witness(&self, ts: u64) {
        // Release: what the caller did before witnessing (a follower
        // sets its manager's replicated flag) hb any reader whose `now`
        // reads this value or a later one.
        self.last.fetch_max(ts, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn timestamps_are_unique_and_increasing() {
        let c = LogicalClock::new();
        let a = c.timestamp_after(0);
        let b = c.timestamp_after(0);
        assert!(b > a);
        assert_eq!(c.now(), b);
    }

    #[test]
    fn bound_is_respected() {
        let c = LogicalClock::new();
        let t = c.timestamp_after(100);
        assert!(t > 100);
        let t2 = c.timestamp_after(5);
        assert!(t2 > t, "monotone even with a small bound");
    }

    #[test]
    fn witness_merges_remote_knowledge() {
        let c = LogicalClock::new();
        c.witness(50);
        assert!(c.timestamp_after(0) > 50);
    }

    #[test]
    fn concurrent_issuance_is_unique() {
        let c = Arc::new(LogicalClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                (0..500).map(|_| c.timestamp_after(0)).collect::<Vec<u64>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "no duplicate timestamps under contention");
    }
}
