//! Transaction handles shared between the transaction manager and objects.

use super::object::TxParticipant;
use hcc_spec::TxnId;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The lifecycle phase of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnPhase {
    /// Running; may invoke operations.
    Active,
    /// Committed with the given timestamp.
    Committed(u64),
    /// Aborted.
    Aborted,
}

impl TxnPhase {
    /// The phase as one word: `0` is active, `u64::MAX` aborted, and
    /// anything else the commit timestamp (real timestamps are positive,
    /// and a clock never reaches `u64::MAX`).
    fn to_word(self) -> u64 {
        match self {
            TxnPhase::Active => 0,
            TxnPhase::Committed(ts) => {
                assert!(ts != 0 && ts != u64::MAX, "commit timestamp {ts} is out of range");
                ts
            }
            TxnPhase::Aborted => u64::MAX,
        }
    }

    fn from_word(word: u64) -> TxnPhase {
        match word {
            0 => TxnPhase::Active,
            u64::MAX => TxnPhase::Aborted,
            ts => TxnPhase::Committed(ts),
        }
    }
}

/// The sticky wake token a blocked thread parks on: a wake-up delivered
/// before the park makes the park return at once, so nothing that
/// happens between "the condition was false" and "the thread sleeps" can
/// be lost. A blocked execution parks on its transaction's token; the
/// replication shipper parks on one its WAL tailer registers with the
/// log.
///
/// Every transition happens under `state`'s mutex, so there is no
/// hand-chosen memory ordering here: a `wake` that precedes a `park` or
/// `reset` in the mutex's order happens-before it.
pub struct WakeToken {
    state: Mutex<Wake>,
    cv: Condvar,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Wake {
    /// No wake-up pending, nobody parked.
    Empty,
    /// The owning transaction's thread is asleep on `cv`.
    Parked,
    /// A wake-up is pending; the next park consumes it without sleeping.
    Set,
}

impl Default for WakeToken {
    fn default() -> WakeToken {
        WakeToken::new()
    }
}

impl WakeToken {
    /// A token with no wake-up pending.
    pub const fn new() -> WakeToken {
        WakeToken { state: Mutex::new(Wake::Empty), cv: Condvar::new() }
    }

    /// Deliver a wake-up: the parked thread returns, or the next park
    /// returns at once.
    pub fn wake(&self) {
        let mut state = self.state.lock();
        let parked = *state == Wake::Parked;
        *state = Wake::Set;
        drop(state);
        // Only a sleeping thread costs a futex call.
        if parked {
            self.cv.notify_one();
        }
    }

    fn reset(&self) {
        *self.state.lock() = Wake::Empty;
    }

    /// Sleep until woken (`true`) or until `deadline` passes (`false`).
    /// With no deadline this performs no timed wait at all.
    pub fn park(&self, deadline: Option<Instant>) -> bool {
        let mut state = self.state.lock();
        loop {
            if *state == Wake::Set {
                *state = Wake::Empty;
                return true;
            }
            *state = Wake::Parked;
            match deadline {
                None => self.cv.wait(&mut state),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        *state = Wake::Empty;
                        return false;
                    }
                    self.cv.wait_for(&mut state, deadline - now);
                }
            }
        }
    }
}

/// How many participants a handle holds without a heap list. A
/// transaction touches one to three objects in every workload and
/// example here.
const PARTICIPANTS_INLINE: usize = 3;

/// A transaction's commit/abort fan-out set, in the order the
/// transaction first executed at each object: the first three in the
/// value itself, any beyond in a list that is allocated only when there
/// are more.
#[derive(Clone, Default)]
pub struct Participants {
    inline: [Option<Arc<dyn TxParticipant>>; PARTICIPANTS_INLINE],
    spill: Vec<Arc<dyn TxParticipant>>,
}

impl Participants {
    /// The participants in the order they joined.
    pub fn iter(&self) -> <&Participants as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// How many participants there are.
    pub fn len(&self) -> usize {
        self.inline.iter().flatten().count() + self.spill.len()
    }

    /// True when the transaction executed nowhere.
    pub fn is_empty(&self) -> bool {
        self.inline[0].is_none()
    }

    /// Add the object at `obj` unless it is already here. Its reference
    /// count is touched only when it is added.
    fn insert<P: TxParticipant + 'static>(&mut self, obj: &Arc<P>) {
        let addr = Arc::as_ptr(obj).cast::<()>();
        if self.iter().any(|o| Arc::as_ptr(o).cast::<()>() == addr) {
            return;
        }
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some(obj.clone()),
            None => self.spill.push(obj.clone()),
        }
    }
}

impl<'a> IntoIterator for &'a Participants {
    type Item = &'a Arc<dyn TxParticipant>;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::slice::Iter<'a, Option<Arc<dyn TxParticipant>>>>,
        std::slice::Iter<'a, Arc<dyn TxParticipant>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.iter().flatten().chain(self.spill.iter())
    }
}

impl IntoIterator for Participants {
    type Item = Arc<dyn TxParticipant>;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<
            std::array::IntoIter<Option<Arc<dyn TxParticipant>>, PARTICIPANTS_INLINE>,
        >,
        std::vec::IntoIter<Arc<dyn TxParticipant>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

/// Shared per-transaction state: identity, phase, the Avalon `trans-id`
/// style lower bound on the eventual commit timestamp, the doom flag set by
/// the deadlock detector, the wake token its blocked execution parks on,
/// and the set of objects touched (for commit/abort fan-out).
pub struct TxnHandle {
    id: TxnId,
    /// The [`TxnPhase`] as one word ([`TxnPhase::to_word`]).
    phase: AtomicU64,
    doomed: AtomicBool,
    wake: WakeToken,
    /// Maximum object clock observed by any of this transaction's
    /// operations; the commit timestamp must exceed it (`precedes ⊆ TS`).
    bound: AtomicU64,
    touched: Mutex<Participants>,
    /// True for replay transactions: their executions re-install
    /// already-durable history, so self-logging objects must not record
    /// them again.
    replay: bool,
    /// True for no-wait transactions: an execution that would wait
    /// returns [`super::ExecError::WouldBlock`] instead.
    no_wait: bool,
}

impl TxnHandle {
    /// A fresh active handle.
    pub fn new(id: TxnId) -> Arc<TxnHandle> {
        Self::build(id, false, false)
    }

    /// A handle for *replaying* already-durable history (recovery and
    /// follower replay): identical to [`TxnHandle::new`] except that
    /// self-logging objects skip the redo sink for its executions —
    /// re-logging records that are already in the log would duplicate them.
    pub fn replay(id: TxnId) -> Arc<TxnHandle> {
        Self::build(id, true, false)
    }

    /// A handle that never waits: an execution refused by a held
    /// operation, or undefined in the current view, returns
    /// [`super::ExecError::WouldBlock`] at once — no waiter is recorded,
    /// the wait observer never hears of it, and nothing parks. The
    /// refusal is still counted. For a caller that must not block and
    /// has a blocking path to fall back on (the server's session
    /// reader).
    pub fn no_wait(id: TxnId) -> Arc<TxnHandle> {
        Self::build(id, false, true)
    }

    fn build(id: TxnId, replay: bool, no_wait: bool) -> Arc<TxnHandle> {
        Arc::new(TxnHandle {
            id,
            phase: AtomicU64::new(0),
            doomed: AtomicBool::new(false),
            wake: WakeToken::new(),
            bound: AtomicU64::new(0),
            touched: Mutex::new(Participants::default()),
            replay,
            no_wait,
        })
    }

    /// Is this a replay handle (its executions bypass the redo sink)?
    pub fn is_replay(&self) -> bool {
        self.replay
    }

    /// Is this a no-wait handle ([`TxnHandle::no_wait`])?
    pub(crate) fn is_no_wait(&self) -> bool {
        self.no_wait
    }

    /// The transaction's identifier.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Current phase.
    pub fn phase(&self) -> TxnPhase {
        // Acquire: pairs with `set_phase`'s release, so a thread that
        // sees a phase sees what its setter did before setting it.
        TxnPhase::from_word(self.phase.load(Ordering::Acquire))
    }

    /// Transition to a new phase (manager use).
    pub fn set_phase(&self, p: TxnPhase) {
        // Release: see `phase`.
        self.phase.store(p.to_word(), Ordering::Release);
    }

    /// True once the transaction was doomed ([`TxnHandle::doom`]); its
    /// next operation returns [`super::ExecError::Doomed`] and the
    /// manager must abort it.
    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    /// Doom the transaction: it can no longer commit. Two things doom
    /// one — the deadlock detector choosing it as a victim, and a redo
    /// record of one of its operations that the log could not take
    /// ([`super::RedoSink::publish`] returned `false`). A blocked
    /// execution is woken and returns [`super::ExecError::Doomed`]. The
    /// flag is stored before the wake-up, so a victim that consumes the
    /// wake-up (or resets its token after it, see `reset_wake`) observes
    /// the flag: the token's mutex orders the two.
    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
        self.wake.wake();
    }

    /// Deliver a wake-up to this transaction's blocked execution. Sticky:
    /// if the execution has not parked yet, its next park returns at
    /// once. Objects call this for every waiter recorded at them when a
    /// transaction completes there.
    pub(crate) fn wake(&self) {
        self.wake.wake();
    }

    /// Discard a pending wake-up. An object calls this under its latch
    /// when it records the transaction as a waiter: wake-ups owed to
    /// that registration can only be sent after the latch is released,
    /// so what is discarded is at most a leftover from an earlier wait.
    /// The caller must test [`TxnHandle::is_doomed`] after this and
    /// before parking — a doom whose wake-up was discarded is then seen
    /// through the flag.
    pub(crate) fn reset_wake(&self) {
        self.wake.reset();
    }

    /// Sleep until [`TxnHandle::wake`] or [`TxnHandle::doom`] (`true`),
    /// or until `deadline` passes (`false`). Without a deadline no timer
    /// is involved.
    pub(crate) fn park(&self, deadline: Option<Instant>) -> bool {
        self.wake.park(deadline)
    }

    /// Raise the commit-timestamp lower bound to an observed object clock.
    pub fn observe_clock(&self, clock: u64) {
        self.bound.fetch_max(clock, Ordering::AcqRel);
    }

    /// The current lower bound (0 = none observed).
    pub fn bound(&self) -> u64 {
        self.bound.load(Ordering::Acquire)
    }

    /// Record that the transaction executed at `obj` (idempotent). The
    /// object's reference count is touched only the first time.
    pub fn register<P: TxParticipant + 'static>(&self, obj: &Arc<P>) {
        self.touched.lock().insert(obj);
    }

    /// Objects touched so far (commit/abort fan-out set).
    pub fn participants(&self) -> Participants {
        self.touched.lock().clone()
    }

    /// Hand the fan-out set to whoever completes the transaction,
    /// leaving the handle with none: unlike [`TxnHandle::participants`]
    /// this touches no object's reference count, and up to three
    /// participants it allocates nothing.
    pub fn take_participants(&self) -> Participants {
        std::mem::take(&mut *self.touched.lock())
    }
}

impl std::fmt::Debug for TxnHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnHandle")
            .field("id", &self.id)
            .field("phase", &self.phase())
            .field("doomed", &self.is_doomed())
            .field("bound", &self.bound())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_bound() {
        let h = TxnHandle::new(TxnId(1));
        assert_eq!(h.phase(), TxnPhase::Active);
        assert_eq!(h.bound(), 0);
        h.observe_clock(5);
        h.observe_clock(3);
        assert_eq!(h.bound(), 5, "bound is monotone");
        h.set_phase(TxnPhase::Committed(9));
        assert_eq!(h.phase(), TxnPhase::Committed(9));
        h.set_phase(TxnPhase::Aborted);
        assert_eq!(h.phase(), TxnPhase::Aborted);
    }

    #[test]
    fn doom_flag() {
        let h = TxnHandle::new(TxnId(2));
        assert!(!h.is_doomed());
        h.doom();
        assert!(h.is_doomed());
        assert!(h.park(None), "a doom leaves a wake-up behind");
    }

    #[test]
    fn wake_token_is_sticky_and_consumed_once() {
        use std::time::Duration;
        let h = TxnHandle::new(TxnId(3));
        h.wake();
        h.wake();
        assert!(h.park(None), "a wake-up sent before the park is not lost");
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(!h.park(Some(deadline)), "and is consumed by that park");
        assert!(Instant::now() >= deadline, "a timed-out park lasts until its deadline");
        h.wake();
        h.reset_wake();
        assert!(!h.park(Some(Instant::now())), "reset discards a pending wake-up");
    }

    #[test]
    fn wake_reaches_a_parked_thread() {
        let h = TxnHandle::new(TxnId(4));
        let parked = h.clone();
        let j = std::thread::spawn(move || parked.park(None));
        // Whether this lands before or after the thread parks, the park
        // returns: that is the token's contract.
        h.wake();
        assert!(j.join().unwrap());
    }
}
