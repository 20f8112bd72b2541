//! Blocking policy and contention observation hooks.

use super::handle::TxnHandle;
use hcc_obs::{FlightRecorder, Registry};
use hcc_spec::TxnId;
use std::sync::Arc;
use std::time::Duration;

/// How long an object blocks when a lock request is refused.
///
/// Blocking itself is the appendix's atomic `when (condition) { … }` and
/// has no knob: the condition is tested and the caller recorded as a
/// waiter under one hold of the object's latch, and only events wake it
/// — a commit or abort at that object wakes every recorded waiter, and
/// [`TxnHandle::doom`] wakes the victim itself. Because a lock holder's remaining life is usually far shorter
/// than putting a thread to sleep and waking it again, a waiter first
/// spins a small fixed number of times on the object's completion count
/// and parks only if nothing completed meanwhile.
#[derive(Clone, Copy, Debug)]
pub struct BlockPolicy {
    /// Give up (and let the caller abort/retry the transaction) after this
    /// long; `None` waits forever, with no timer anywhere on the wait
    /// path. A timeout is one of the paper's two deadlock remedies.
    pub timeout: Option<Duration>,
}

impl Default for BlockPolicy {
    fn default() -> Self {
        BlockPolicy { timeout: Some(Duration::from_secs(2)) }
    }
}

/// Callbacks observing lock contention; the waits-for-graph deadlock
/// detector in `hcc-txn` implements this.
pub trait WaitObserver: Send + Sync {
    /// `waiter` is recorded as waiting on operations held by `holders`
    /// and is about to sleep. The observer gets the handle itself: only
    /// blocked transactions can lie on a waits-for cycle, so this is the
    /// one place a detector needs to learn whom it may doom.
    fn on_block(&self, waiter: &Arc<TxnHandle>, holders: &[TxnId]);
    /// `waiter` stopped waiting (granted, timed out, or doomed).
    fn on_unblock(&self, waiter: TxnId);
}

/// An observer that ignores everything.
pub struct NullObserver;

impl WaitObserver for NullObserver {
    fn on_block(&self, _: &Arc<TxnHandle>, _: &[TxnId]) {}
    fn on_unblock(&self, _: TxnId) {}
}

/// A global order ticket for one executed operation's redo record,
/// handed out by [`RedoSink::reserve`] and redeemed by
/// [`RedoSink::publish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RedoTicket(pub u64);

/// Receives serialized redo payloads as an *intrinsic effect* of executing
/// mutating operations — `hcc-storage`'s durable store is the one
/// implementation.
///
/// The API is **two-phase**. An object whose [`RuntimeOptions`] carry a
/// sink calls [`RedoSink::reserve`] from inside every successful mutating
/// execution *while still holding its own lock* — reserving the
/// operation's slot in the global log order, a cheap non-blocking counter
/// bump — and then calls [`RedoSink::publish`] with the serialized
/// payload *after releasing the lock*. The split is what keeps the
/// log's rotation fsync from ever stalling a hot object: the ordering
/// obligation (per-object log order equals execution order) is
/// discharged by the ticket, not by appending under the lock, and
/// recovery replays in ticket order.
///
/// Replay transactions are excepted, and there is no caller-side logging
/// step to forget — the forget-to-log failure mode stays
/// unrepresentable. Implementations must not panic on I/O problems: a
/// record that cannot be appended is given up (its ticket declared void
/// to the log) and `publish` returns `false`, upon which the object dooms
/// the transaction — a transaction missing one of its records must never
/// commit, and doomed transactions already cannot.
pub trait RedoSink: Send + Sync {
    /// Reserve the global order slot for one about-to-be-recorded
    /// operation of `txn` at the named object. Called under the object's
    /// lock: must be cheap and must never block on I/O.
    fn reserve(&self, txn: TxnId, object: &str) -> RedoTicket;

    /// Record the operation reserved as `ticket`: `true` once it is in
    /// the log, `false` when it never will be. Called outside the
    /// object's lock; may block (group commit, rotation).
    fn publish(&self, ticket: RedoTicket, txn: TxnId, object: &str, op: &[u8]) -> bool;
}

/// Construction-time options for a [`super::TxObject`].
#[derive(Clone)]
pub struct RuntimeOptions {
    /// Blocking behaviour.
    pub block: BlockPolicy,
    /// Contention observer (deadlock detection hook).
    pub observer: Arc<dyn WaitObserver>,
    /// Where executed operations' redo payloads are recorded. `None` runs
    /// the object purely in memory; `Some` makes every mutating operation
    /// self-logging (`TxnManager::object_options` wires its durable store
    /// in when it has one).
    pub redo: Option<Arc<dyn RedoSink>>,
    /// Where the object's lock-table counters land (grants, refusals,
    /// waits, keyed by ADT type and conflict-class pair). Every object
    /// gets one — standalone objects default to a private registry;
    /// `TxnManager::object_options` shares the manager's so `db.stats()`
    /// sees everything.
    pub metrics: Arc<Registry>,
    /// The per-txn flight recorder (`HCC_TRACE=N`), when tracing is on.
    pub trace: Option<Arc<FlightRecorder>>,
    /// The shared horizon-pin registry bounding what `forget` may fold:
    /// while a snapshot read or a fuzzy checkpoint holds a pin at
    /// watermark `w`, no commit with timestamp `> w` is folded into any
    /// object's base version. Standalone objects default to a private
    /// (never-pinned) registry; `TxnManager::object_options` shares the
    /// manager's so one pin holds every object at once.
    pub horizon: Arc<super::HorizonPins>,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        RuntimeOptions {
            block: BlockPolicy::default(),
            observer: Arc::new(NullObserver),
            redo: None,
            metrics: Arc::new(Registry::new()),
            trace: None,
            horizon: Arc::new(super::HorizonPins::new()),
        }
    }
}

impl RuntimeOptions {
    /// Options with a custom observer.
    pub fn with_observer(observer: Arc<dyn WaitObserver>) -> RuntimeOptions {
        RuntimeOptions { observer, ..RuntimeOptions::default() }
    }

    /// Options with a custom timeout.
    pub fn with_timeout(timeout: Option<Duration>) -> RuntimeOptions {
        RuntimeOptions { block: BlockPolicy { timeout }, ..RuntimeOptions::default() }
    }

    /// The same options with mutating operations self-logging through
    /// `sink`.
    pub fn with_redo(mut self, sink: Arc<dyn RedoSink>) -> RuntimeOptions {
        self.redo = Some(sink);
        self
    }

    /// The same options recording lock-table counters into `metrics`.
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> RuntimeOptions {
        self.metrics = metrics;
        self
    }

    /// The same options tracing into `recorder`.
    pub fn with_trace(mut self, recorder: Option<Arc<FlightRecorder>>) -> RuntimeOptions {
        self.trace = recorder;
        self
    }

    /// The same options sharing the horizon-pin registry `pins`.
    pub fn with_horizon(mut self, pins: Arc<super::HorizonPins>) -> RuntimeOptions {
        self.horizon = pins;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = BlockPolicy::default();
        assert!(p.timeout.unwrap() >= Duration::from_millis(100));
    }

    #[test]
    fn builders() {
        let o = RuntimeOptions::with_timeout(None);
        assert!(o.block.timeout.is_none());
        let o = RuntimeOptions::with_observer(Arc::new(NullObserver));
        o.observer.on_block(&TxnHandle::new(TxnId(1)), &[TxnId(2)]);
        o.observer.on_unblock(TxnId(1));
    }
}
