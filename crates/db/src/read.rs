//! Wait-free snapshot reads: read-only transactions with **zero lock
//! acquisitions**.
//!
//! A [`ReadTx`] never touches the lock manager. [`crate::Db::begin_read`]
//! picks the manager's *stable watermark* `W` — the highest commit
//! timestamp below which every commit is fully applied at every object —
//! and pins the fold horizon there ([`hcc_core::runtime::HorizonPins`]),
//! in one short hold of the pin registry's mutex, with no I/O and no
//! transactional lock. Computing `W` itself takes no lock: every
//! committer claims a slot of its own in the manager's read marks before
//! it draws its timestamp and clears it after phase 2, and the reader
//! loads the clock, then scans the slots — `W` is the clock, lowered to
//! one below the smallest held slot (`hcc-txn`'s `marks` module has the
//! rule and its happens-before argument).
//! Every view the transaction then takes is `snapshot_read(W)`: the
//! object's base version plus its committed-but-unfolded intents up to
//! `W`, cloned under the object's internal latch. Writers are never blocked, never conflicted with, and
//! never observe the reader; the pin's only effect is to delay folding
//! of commits *above* `W` until the reader drops.
//!
//! Consistency: because every commit `≤ W` is applied everywhere and
//! every commit `> W` is excluded everywhere, the views across any set
//! of objects form a **consistent prefix** of the commit order — the
//! hybrid-atomicity oracle in `hcc-verify` accepts any read-only
//! transaction serialized at `W` (see `crates/db/tests/read_path.rs`).
//!
//! The pin is RAII: dropping the [`ReadTx`] (including a panic unwind)
//! unpins the horizon, so an abandoned reader can never wedge compaction
//! or checkpointing. Long-running readers only delay folding; a fuzzy
//! checkpoint takes a pin of its own on the same registry at its own
//! watermark, so the two never wait on each other.

use crate::db::Db;
use crate::error::HccError;
use crate::handle::DbObject;
use hcc_core::runtime::PinGuard;
use hcc_obs::{Counter, Histogram};
use std::sync::Arc;
use std::time::Instant;

/// How this read transaction's watermark was chosen — governs what a
/// stale view means.
#[derive(Clone, Copy)]
enum Anchor {
    /// The manager's stable watermark at begin: a stale view can only be
    /// a fold that raced the pin, and a fresh watermark fixes it
    /// (transient).
    Fresh,
    /// A caller-chosen timestamp: a stale view means compaction already
    /// folded past it — the image is gone for good (fatal).
    At,
}

/// The per-`Db` read-path instruments, resolved once at construction.
pub(crate) struct ReadInstruments {
    begun: Arc<Counter>,
    completed: Arc<Counter>,
    duration_nanos: Arc<Histogram>,
}

impl ReadInstruments {
    pub(crate) fn resolve(metrics: &hcc_obs::Registry) -> ReadInstruments {
        ReadInstruments {
            begun: metrics.counter("txn.read_only.begun"),
            completed: metrics.counter("txn.read_only.completed"),
            duration_nanos: metrics.histogram("txn.read_only.duration_nanos"),
        }
    }
}

/// One read-only transaction: a pinned watermark and typed, lock-free
/// views of any object at it.
///
/// ```
/// use hcc_db::Db;
/// use hcc_adts::account::AccountObject;
///
/// let db = Db::in_memory();
/// let acct = db.object::<AccountObject>("checking").unwrap();
/// db.transact(|tx| acct.credit(tx, 100.into()).map_err(Into::into)).unwrap();
/// let total = db
///     .transact_read(|rtx| rtx.view::<AccountObject>("checking"))
///     .unwrap();
/// assert_eq!(total, 100.into());
/// ```
///
/// Dropping the `ReadTx` — normally or during a panic unwind — releases
/// its horizon pin and records the read-path metrics; there is no
/// commit/abort step and nothing to leak.
pub struct ReadTx<'db> {
    db: &'db Db,
    pin: PinGuard,
    anchor: Anchor,
    started: Instant,
}

impl<'db> ReadTx<'db> {
    fn new(db: &'db Db, pin: PinGuard, anchor: Anchor) -> ReadTx<'db> {
        db.read_instruments().begun.inc();
        ReadTx { db, pin, anchor, started: Instant::now() }
    }

    /// The commit timestamp every view of this transaction reads at.
    pub fn watermark(&self) -> u64 {
        self.pin.watermark()
    }

    /// The typed view of the object named `name` at this transaction's
    /// watermark. Opens (and recovers) the handle if this `Db` hasn't
    /// yet; [`HccError::TypeMismatch`] if the name is already open as a
    /// different type.
    pub fn view<T: DbObject>(&self, name: &str) -> Result<T::View, HccError> {
        self.view_of(&*self.db.object::<T>(name)?)
    }

    /// [`ReadTx::view`] over a handle the caller already holds (skips
    /// the name lookup).
    pub fn view_of<T: DbObject>(&self, obj: &T) -> Result<T::View, HccError> {
        obj.view_at(self.pin.watermark()).map_err(|stale| match self.anchor {
            Anchor::Fresh => HccError::SnapshotContended { requested: self.pin.watermark() },
            Anchor::At => {
                HccError::SnapshotCompacted { requested: self.pin.watermark(), floor: stale.folded }
            }
        })
    }
}

impl std::fmt::Debug for ReadTx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadTx").field("watermark", &self.pin.watermark()).finish()
    }
}

impl Drop for ReadTx<'_> {
    fn drop(&mut self) {
        let instruments = self.db.read_instruments();
        instruments.completed.inc();
        instruments.duration_nanos.observe_duration(self.started.elapsed());
    }
}

impl Db {
    /// Begin a read-only transaction at the current stable watermark:
    /// zero lock acquisitions now and later, writers entirely
    /// unaffected. See the module docs ([`crate::read`]) for the
    /// consistency argument.
    pub fn begin_read(&self) -> ReadTx<'_> {
        ReadTx::new(self, self.manager().pin_read_watermark(), Anchor::Fresh)
    }

    /// Begin a read-only transaction at a caller-chosen commit timestamp
    /// (time-travel reads). Refused with [`HccError::SnapshotCompacted`]
    /// when `ts` lies below the restored checkpoint's watermark (that
    /// history was folded into the checkpoint image), and with the
    /// transient [`HccError::SnapshotContended`] when `ts` is above the
    /// stable watermark (commits at or below it are still in flight —
    /// retry once they land).
    pub fn read_at(&self, ts: u64) -> Result<ReadTx<'_>, HccError> {
        let floor = self.recovery_report().checkpoint_ts;
        if ts < floor {
            return Err(HccError::SnapshotCompacted { requested: ts, floor });
        }
        if ts > self.manager().stable_watermark() {
            return Err(HccError::SnapshotContended { requested: ts });
        }
        Ok(ReadTx::new(self, self.manager().pin_read_at(ts), Anchor::At))
    }

    /// Run `f` as one read-only transaction at the stable watermark,
    /// retrying transient refusals (a fold racing the pin) at a fresh
    /// watermark under the database's [`crate::RetryPolicy`] — the
    /// read-side mirror of [`Db::transact`], with no commit step and no
    /// effect on writers.
    pub fn transact_read<T>(
        &self,
        mut f: impl FnMut(&ReadTx) -> Result<T, HccError>,
    ) -> Result<T, HccError> {
        let retry = self.retry_policy();
        let mut attempt: u32 = 0;
        loop {
            let err = {
                let rtx = self.begin_read();
                match f(&rtx) {
                    Ok(v) => return Ok(v),
                    Err(e) => e,
                }
            };
            if !err.is_transient() {
                return Err(err);
            }
            if attempt >= retry.max_retries {
                return Err(HccError::RetriesExhausted {
                    attempts: attempt + 1,
                    last: Box::new(err),
                });
            }
            std::thread::sleep(retry.backoff(attempt));
            attempt += 1;
        }
    }
}
