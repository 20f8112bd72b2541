//! Waits-for-graph deadlock detection with youngest-victim selection.
//!
//! Section 4.1: "the algorithms described here are subject to deadlock; the
//! usual remedies (e.g., timeout or detection) can be used". This is the
//! detection remedy: objects report block/unblock events through the
//! [`WaitObserver`] hooks, the detector maintains the waits-for graph, and
//! on finding a cycle it *dooms* the youngest transaction in it (highest
//! id); the doom wakes the victim, whose pending operation fails with
//! `ExecError::Doomed`, and the manager aborts it.
//!
//! Every transaction on a cycle is blocked, so the graph learns a
//! transaction's handle when it blocks and forgets it when it unblocks:
//! a transaction that never waits never touches the detector.

use hcc_core::runtime::{TxnHandle, WaitObserver};
use hcc_obs::Counter;
use hcc_spec::TxnId;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// The detector. One instance per system; share it with every object via
/// [`hcc_core::runtime::RuntimeOptions`].
#[derive(Default)]
pub struct DeadlockDetector {
    inner: Mutex<Graph>,
    /// Mirror of the victim tally in the owning system's metric registry
    /// (`deadlock.victims`), wired by the transaction manager.
    victim_counter: OnceLock<Arc<Counter>>,
}

#[derive(Default)]
struct Graph {
    /// Currently blocked transactions.
    blocked: HashMap<TxnId, Blocked>,
    /// Victims doomed so far (metrics).
    victims: u64,
}

struct Blocked {
    /// The waiter itself, for dooming it.
    handle: Arc<TxnHandle>,
    /// The transactions it is blocked on.
    on: Vec<TxnId>,
}

impl DeadlockDetector {
    /// A fresh detector.
    pub fn new() -> Arc<DeadlockDetector> {
        Arc::new(DeadlockDetector::default())
    }

    /// Number of victims doomed so far.
    pub fn victims(&self) -> u64 {
        self.inner.lock().victims
    }

    /// Mirror every future doom into `counter` (idempotent; first wiring
    /// wins). The manager points this at its registry's
    /// `deadlock.victims`.
    pub fn mirror_victims_into(&self, counter: Arc<Counter>) {
        let _ = self.victim_counter.set(counter);
    }

    /// Is there a path `from → … → to` of length ≥ 1 in the waits-for
    /// graph?
    fn reachable(blocked: &HashMap<TxnId, Blocked>, from: TxnId, to: TxnId) -> bool {
        let mut seen: HashSet<TxnId> = HashSet::new();
        let mut stack: Vec<TxnId> = Self::waits_on(blocked, from).to_vec();
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            stack.extend_from_slice(Self::waits_on(blocked, t));
        }
        false
    }

    fn waits_on(blocked: &HashMap<TxnId, Blocked>, txn: TxnId) -> &[TxnId] {
        blocked.get(&txn).map_or(&[], |b| &b.on)
    }

    /// Collect the transactions on some cycle through `start` (empty when
    /// there is none). A node is on such a cycle iff `start` reaches it and
    /// it reaches `start`; the graphs here are tiny (currently blocked
    /// transactions only), so the quadratic scan is fine.
    fn cycle_members(blocked: &HashMap<TxnId, Blocked>, start: TxnId) -> Vec<TxnId> {
        if !Self::reachable(blocked, start, start) {
            return Vec::new();
        }
        let mut members = vec![start];
        let mut seen = HashSet::new();
        let mut stack: Vec<TxnId> = Self::waits_on(blocked, start).to_vec();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) || t == start {
                continue;
            }
            if Self::reachable(blocked, t, start) {
                members.push(t);
            }
            stack.extend_from_slice(Self::waits_on(blocked, t));
        }
        members
    }
}

impl WaitObserver for DeadlockDetector {
    fn on_block(&self, waiter: &Arc<TxnHandle>, holders: &[TxnId]) {
        let mut g = self.inner.lock();
        g.blocked.insert(waiter.id(), Blocked { handle: waiter.clone(), on: holders.to_vec() });
        // Detect a cycle through the new waiter.
        let members = Self::cycle_members(&g.blocked, waiter.id());
        // Youngest victim: transaction ids are issued in begin order, so
        // the max id is the youngest. Every member has an outgoing edge,
        // so every member is in `blocked`.
        let Some(victim) = members.into_iter().max() else { return };
        let victim = g.blocked.remove(&victim).expect("a cycle member is blocked");
        victim.handle.doom();
        g.victims += 1;
        if let Some(c) = self.victim_counter.get() {
            c.inc();
        }
    }

    fn on_unblock(&self, waiter: TxnId) {
        self.inner.lock().blocked.remove(&waiter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn two_party_cycle_dooms_the_youngest() {
        let d = DeadlockDetector::new();
        let h1 = TxnHandle::new(t(1));
        let h2 = TxnHandle::new(t(2));
        d.on_block(&h1, &[t(2)]);
        assert!(!h1.is_doomed() && !h2.is_doomed(), "no cycle yet");
        d.on_block(&h2, &[t(1)]);
        assert!(h2.is_doomed(), "youngest (t2) is the victim");
        assert!(!h1.is_doomed());
        assert_eq!(d.victims(), 1);
    }

    #[test]
    fn three_party_cycle() {
        let d = DeadlockDetector::new();
        let hs: Vec<_> = (1..=3).map(|i| TxnHandle::new(t(i))).collect();
        d.on_block(&hs[0], &[t(2)]);
        d.on_block(&hs[1], &[t(3)]);
        d.on_block(&hs[2], &[t(1)]);
        assert!(hs[2].is_doomed());
        assert!(!hs[0].is_doomed() && !hs[1].is_doomed());
    }

    #[test]
    fn chains_without_cycles_are_harmless() {
        let d = DeadlockDetector::new();
        let hs: Vec<_> = (1..=3).map(|i| TxnHandle::new(t(i))).collect();
        d.on_block(&hs[2], &[t(2)]);
        d.on_block(&hs[1], &[t(1)]);
        assert!(hs.iter().all(|h| !h.is_doomed()));
    }

    #[test]
    fn unblock_clears_edges() {
        let d = DeadlockDetector::new();
        let h1 = TxnHandle::new(t(1));
        let h2 = TxnHandle::new(t(2));
        d.on_block(&h1, &[t(2)]);
        d.on_unblock(t(1));
        d.on_block(&h2, &[t(1)]);
        assert!(!h2.is_doomed(), "t1 no longer waits, no cycle");
    }

    #[test]
    fn self_wait_is_a_cycle() {
        // Degenerate but should not panic; the waiter dooms itself.
        let d = DeadlockDetector::new();
        let h1 = TxnHandle::new(t(1));
        d.on_block(&h1, &[t(1)]);
        assert!(h1.is_doomed());
    }
}
