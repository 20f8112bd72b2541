//! The one horizon-pin registry: what holds Definition 20's horizon
//! down for every reader that is not a transaction.
//!
//! A snapshot read, a fuzzy checkpoint and a replication follower all
//! need the same guarantee — no commit above my watermark may be folded
//! into a base version while I am reading — across **every** object the
//! read might touch, with a lifetime tied to the reader. [`HorizonPins`]
//! is that registry: any number of concurrent pins, each an RAII
//! [`PinGuard`] that unpins on drop (including panic unwind, so a
//! crashed reader can never wedge compaction), one standing floor for a
//! follower, and a single cached *floor* — the minimum pinned watermark
//! — that [`super::TxObject::forget`] consults before folding committed
//! intents.
//!
//! The registry is deliberately cheap on the read side: taking a pin is
//! one short mutex acquisition (the pin table), and the hot query
//! (`floor()`, asked by every fold) is a single relaxed atomic load of
//! the cached minimum. Neither path touches any transactional lock.

use hcc_obs::Gauge;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// No pin active: folds are bounded only by per-object state.
const NO_FLOOR: u64 = u64::MAX;

#[derive(Default)]
struct PinTable {
    /// Next pin id; ids are never reused within a registry's lifetime.
    next_id: u64,
    /// Active pins: id → pinned watermark.
    pins: BTreeMap<u64, u64>,
    /// The standing floor ([`HorizonPins::hold_floor`]), once one is held.
    standing: Option<u64>,
}

impl PinTable {
    fn min_watermark(&self) -> u64 {
        self.pins.values().copied().chain(self.standing).min().unwrap_or(NO_FLOOR)
    }
}

/// A registry of active snapshot-read pins shared by every object of one
/// runtime (wired through `RuntimeOptions::horizon`).
///
/// Invariant: while a pin at watermark `w` is alive, no object whose
/// options carry this registry folds a committed intent with timestamp
/// `> w` into its base version — so `TxObject::snapshot_read(w)` stays
/// exact for the pin's whole lifetime.
#[derive(Default)]
pub struct HorizonPins {
    inner: Mutex<PinTable>,
    /// Cached `min` over active pin watermarks; [`NO_FLOOR`] when no pin
    /// is active. Recomputed under the mutex on every pin/unpin, read
    /// lock-free by every fold.
    floor: AtomicU64,
    /// Live-pin gauge (`horizon.pins`), when the registry is observed.
    gauge: Option<Arc<Gauge>>,
}

impl HorizonPins {
    /// A fresh, unobserved registry (the default for standalone objects).
    pub fn new() -> HorizonPins {
        HorizonPins { floor: AtomicU64::new(NO_FLOOR), ..HorizonPins::default() }
    }

    /// A registry reporting its live pin count through `gauge`.
    pub fn observed(gauge: Arc<Gauge>) -> HorizonPins {
        HorizonPins {
            inner: Mutex::new(PinTable::default()),
            floor: AtomicU64::new(NO_FLOOR),
            gauge: Some(gauge),
        }
    }

    /// Pin the horizon at `watermark`. Until the returned guard drops,
    /// every object sharing this registry keeps commits with timestamps
    /// `> watermark` un-folded, so snapshots at `watermark` stay exact.
    pub fn pin(self: &Arc<Self>, watermark: u64) -> PinGuard {
        self.pin_with(|| watermark)
    }

    /// Pin the horizon at the watermark `choose` returns, calling it
    /// inside the registry's one hold: no other pin or unpin can land
    /// between choosing the watermark and pinning it.
    pub fn pin_with(self: &Arc<Self>, choose: impl FnOnce() -> u64) -> PinGuard {
        let (id, watermark) = {
            let mut t = self.inner.lock().unwrap();
            let watermark = choose();
            let id = t.next_id;
            t.next_id += 1;
            t.pins.insert(id, watermark);
            self.floor.store(t.min_watermark(), Ordering::Release);
            (id, watermark)
        };
        if let Some(g) = &self.gauge {
            g.adjust(1);
        }
        PinGuard { pins: self.clone(), id, watermark }
    }

    /// Hold a **standing** floor at `watermark`: no commit above it folds
    /// at any object sharing this registry, for the registry's lifetime.
    /// Monotone — a later call can only raise it. This is how a
    /// replication follower keeps its own replicated watermark readable
    /// while commits arrive above it (`TxnManager::
    /// witness_replicated_watermark`). Not a pin: no guard to drop, and
    /// not counted in the live-pin gauge.
    pub fn hold_floor(&self, watermark: u64) {
        self.raise_standing(watermark, true);
    }

    /// Raise a standing floor that is already held to at least
    /// `watermark` — a no-op while none is ([`HorizonPins::hold_floor`]
    /// decides that). How a replica bounds the backlog its floor holds
    /// unfolded without creating one before it has a watermark to read
    /// at.
    pub fn raise_held_floor(&self, watermark: u64) {
        self.raise_standing(watermark, false);
    }

    fn raise_standing(&self, watermark: u64, establish: bool) {
        let mut t = self.inner.lock().unwrap();
        if establish || t.standing.is_some() {
            t.standing = Some(t.standing.map_or(watermark, |s| s.max(watermark)));
            self.floor.store(t.min_watermark(), Ordering::Release);
        }
    }

    /// The minimum of the active pin watermarks and the standing floor,
    /// or `u64::MAX` when there is neither. Folds must not remove commits
    /// with timestamps strictly above this. Lock-free.
    pub fn floor(&self) -> u64 {
        self.floor.load(Ordering::Acquire)
    }

    /// Number of live pins (test/diagnostic visibility).
    pub fn active(&self) -> usize {
        self.inner.lock().unwrap().pins.len()
    }

    fn unpin(&self, id: u64) {
        let removed = {
            let mut t = self.inner.lock().unwrap();
            let removed = t.pins.remove(&id).is_some();
            self.floor.store(t.min_watermark(), Ordering::Release);
            removed
        };
        if removed {
            if let Some(g) = &self.gauge {
                g.adjust(-1);
            }
        }
    }
}

/// RAII handle for one horizon pin: dropping it (normally or during a
/// panic unwind) releases the pin, so a leaked pin that blocks compaction
/// forever is unrepresentable. Folding catches up lazily — the next
/// commit/abort at each object re-runs `forget` under the raised floor.
pub struct PinGuard {
    pins: Arc<HorizonPins>,
    id: u64,
    watermark: u64,
}

impl PinGuard {
    /// The watermark this guard holds pinned.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.pins.unpin(self.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_min_of_active_pins_and_clears_on_drop() {
        let pins = Arc::new(HorizonPins::new());
        assert_eq!(pins.floor(), u64::MAX);
        let a = pins.pin(10);
        let b = pins.pin(7);
        let c = pins.pin(12);
        assert_eq!(pins.floor(), 7);
        assert_eq!(pins.active(), 3);
        drop(b);
        assert_eq!(pins.floor(), 10);
        drop(a);
        assert_eq!(pins.floor(), 12);
        assert_eq!(c.watermark(), 12);
        drop(c);
        assert_eq!(pins.floor(), u64::MAX);
        assert_eq!(pins.active(), 0);
    }

    #[test]
    fn panic_unwind_releases_the_pin() {
        let pins = Arc::new(HorizonPins::new());
        let p2 = pins.clone();
        let r = std::panic::catch_unwind(move || {
            let _guard = p2.pin(5);
            panic!("reader died mid-snapshot");
        });
        assert!(r.is_err());
        assert_eq!(pins.floor(), u64::MAX, "unwind dropped the guard");
        assert_eq!(pins.active(), 0);
    }

    #[test]
    fn standing_floor_rises_and_bounds_the_pins_without_being_one() {
        let gauge = Arc::new(Gauge::new());
        let pins = Arc::new(HorizonPins::observed(gauge.clone()));
        pins.raise_held_floor(4);
        assert_eq!(pins.floor(), u64::MAX, "nothing held yet: nothing to raise");
        pins.hold_floor(5);
        assert_eq!(pins.floor(), 5);
        pins.raise_held_floor(4);
        pins.raise_held_floor(6);
        assert_eq!(pins.floor(), 6);
        pins.hold_floor(5);
        assert_eq!(pins.floor(), 6);
        pins.hold_floor(3);
        assert_eq!(pins.floor(), 6, "monotone: never lowered");
        let below = pins.pin(2);
        assert_eq!(pins.floor(), 2, "a reader pinned below still wins");
        pins.hold_floor(9);
        drop(below);
        assert_eq!(pins.floor(), 9, "unpinning falls back to the standing floor");
        assert_eq!((pins.active(), gauge.get()), (0, 0), "held, not pinned");
    }

    #[test]
    fn gauge_tracks_live_pins() {
        let gauge = Arc::new(Gauge::new());
        let pins = Arc::new(HorizonPins::observed(gauge.clone()));
        let a = pins.pin(1);
        let b = pins.pin(2);
        assert_eq!(gauge.get(), 2);
        drop(a);
        assert_eq!(gauge.get(), 1);
        drop(b);
        assert_eq!(gauge.get(), 0);
    }
}
