//! Read marks: which commit timestamps may still be unapplied, kept
//! without a lock.
//!
//! The *stable watermark* `W` is the highest timestamp such that every
//! commit with `ts ≤ W` is fully applied at every object it touched.
//! Commits draw timestamps from one clock but apply concurrently, so a
//! later timestamp can finish before an earlier one; reading at the
//! clock would see non-prefix states. Reading at `W` never does.
//!
//! Each committer owns one slot of a fixed array for the span between
//! drawing its timestamp and finishing phase 2 — perfbook's data
//! ownership: only the owner writes a slot, anyone reads it, and no two
//! committers share a line. The rule:
//!
//! * a committer **claims** a free slot by CAS `0 → clock.now() + 1`
//!   *before* it draws its timestamp (the value is a lower bound on the
//!   timestamp it will draw), and **clears** it once its commit is
//!   applied everywhere or refused;
//! * a reader **loads the clock first, then scans** the slots:
//!   `W = min(clock, min over held slots of (slot − 1))`.
//!
//! Why `W` never covers an unapplied timestamp, in the vocabulary of the
//! IMM paper (po = program order, rf = reads-from, co = coherence order,
//! sw = synchronizes-with, hb = happens-before). Suppose committer X drew
//! `ts ≤ W`. The reader's clock load read some `C ≥ W ≥ ts`. Every write
//! to the clock is a read-modify-write, so the write it read is X's draw
//! or in the release sequence of X's draw; the draw is a release and the
//! load an acquire, so X's draw sw the load. X's claim is po-before its
//! draw, hence hb-before the reader's scan of X's slot, which by
//! coherence reads X's claim or something co-later:
//!
//! * X's claim itself: its value `v ≤ ts`, so `W ≤ v − 1 < ts` — absurd;
//! * X's clear (a release store), or a later claim (an RMW, so in the
//!   clear's release sequence): X's clear sw the scan, and X's phase 2,
//!   po-before the clear, hb the reader;
//! * a later owner Y's clear: Y's claim read X's clear (or a co-later
//!   clear, by induction) with acquire, so X's clear sw Y's claim, and
//!   Y's clear sw the scan — again X's phase 2 hb the reader.
//!
//! The claim value is a lower bound because X's draw reads a clock value
//! co-after the one X loaded for the claim (read-read coherence), and
//! draws `max(that, bound) + 1`. The exhaustive model in this module's
//! tests checks the same rule over every interleaving, and fails if
//! either order is reversed.

use crate::clock::LogicalClock;
use hcc_core::runtime::CacheAligned;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Slots per manager. A committer holds one only from its draw to the
/// end of phase 2 — through the log write when the manager is durable,
/// which under `Fsync` includes the group-commit wait. More concurrent
/// committers than this only spin (yielding) in [`ReadMarks::claim`].
pub(crate) const SLOTS: usize = 64;

static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Where a thread starts looking for a free slot: threads get homes
    /// round-robin at their first commit, so a fixed set of committers
    /// each keeps a line of its own.
    static HOME: usize = NEXT_HOME.fetch_add(1, Ordering::Relaxed);
}

/// The read-mark slots of one manager (see the module docs).
pub(crate) struct ReadMarks {
    /// Each on lines of its own. `0` is free; anything else is a held
    /// slot's lower bound on its owner's timestamp.
    slots: Box<[CacheAligned<AtomicU64>]>,
}

impl ReadMarks {
    /// `slots` free slots (at least one).
    pub(crate) fn new(slots: usize) -> ReadMarks {
        assert!(slots > 0, "a commit needs a slot to claim");
        ReadMarks { slots: (0..slots).map(|_| CacheAligned(AtomicU64::new(0))).collect() }
    }

    /// Claim a slot for a commit that is about to draw its timestamp from
    /// `clock`, and return its index for [`ReadMarks::release`]. Must
    /// come before the draw. Spins, yielding after each full pass, while
    /// every slot is held.
    pub(crate) fn claim(&self, clock: &LogicalClock) -> usize {
        let n = self.slots.len();
        let home = HOME.with(|h| *h) % n;
        loop {
            for at in (home..n).chain(0..home) {
                let slot = &self.slots[at];
                // Acquire on success: the claim reads the previous
                // owner's clear (a release), so the previous owner's
                // phase 2 hb everything after this claim — the link that
                // carries hb through a reused slot (module docs, third
                // case). The claim itself needs no release: the draw that
                // follows it in po is one.
                if slot.load(Ordering::Relaxed) == 0
                    && slot
                        .compare_exchange(0, clock.now() + 1, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    return at;
                }
            }
            std::thread::yield_now();
        }
    }

    /// Clear a slot [`ReadMarks::claim`] returned: its commit is applied
    /// at every participant, or was refused and aborted everywhere.
    pub(crate) fn release(&self, slot: usize) {
        // Release: a reader (or the next claimer) that reads this clear
        // synchronizes with it, so the commit's phase 2, po-before it, hb
        // that reader.
        self.slots[slot].store(0, Ordering::Release);
    }

    /// The stable watermark, given `now`: a value the caller loaded from
    /// the clock (with [`LogicalClock::now`], an acquire) *before* this
    /// scan.
    pub(crate) fn stable(&self, now: u64) -> u64 {
        self.slots
            .iter()
            // Acquire: reading a clear (or a claim in its release
            // sequence) makes the cleared commit's phase 2 hb this
            // reader (module docs, second and third cases).
            .map(|slot| slot.load(Ordering::Acquire))
            .filter(|&v| v != 0)
            .fold(now, |w, v| w.min(v - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// One step of a committer in the model: each is one atomic action
    /// on shared memory (the clock, the slots, the applied set).
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Commit {
        /// Load the clock (the claim's value is this plus one).
        LoadNow,
        /// CAS a free slot from 0 to the loaded value plus one; not
        /// enabled while every slot is held.
        Claim,
        /// Draw `clock + 1` and store it in the clock.
        Draw,
        /// Phase 2: the drawn timestamp becomes applied.
        Apply,
        /// Clear the claimed slot.
        Release,
    }

    /// One step of the reader in the model.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum Read {
        LoadClock,
        Scan(usize),
    }

    /// The rule as implemented: claim, then draw; clock, then scan.
    const COMMIT: [Commit; 5] =
        [Commit::LoadNow, Commit::Claim, Commit::Draw, Commit::Apply, Commit::Release];
    const READ: [Read; 3] = [Read::LoadClock, Read::Scan(0), Read::Scan(1)];

    #[derive(Clone, Default, PartialEq, Eq, Hash)]
    struct Committer {
        pc: usize,
        now: u64,
        slot: Option<usize>,
        ts: Option<u64>,
    }

    #[derive(Clone, Default, PartialEq, Eq, Hash)]
    struct State {
        clock: u64,
        slots: Vec<u64>,
        applied: Vec<u64>,
        committers: Vec<Committer>,
        reader_pc: usize,
        /// The reader's `W` so far: unbounded at the start, narrowed by
        /// the clock and by each held slot it scans.
        reader_w: u64,
    }

    /// Explore every interleaving of `committers` runs of `commit` (one
    /// each) and one run of `read`, over `slots` slots; return a state in
    /// which the reader finished with a `W` covering a drawn but
    /// unapplied timestamp, if any. States are memoized: each reachable
    /// state is visited once, which covers every interleaving, since the
    /// property is one of the state the reader finishes in.
    fn find_violation(
        commit: &[Commit],
        read: &[Read],
        committers: usize,
        slots: usize,
    ) -> Option<(u64, Vec<u64>)> {
        let start = State {
            slots: vec![0; slots],
            committers: vec![Committer::default(); committers],
            reader_w: u64::MAX,
            ..State::default()
        };
        let mut seen = HashSet::new();
        let mut stack = vec![start];
        while let Some(s) = stack.pop() {
            if !seen.insert(s.clone()) {
                continue;
            }
            if s.reader_pc == read.len() {
                let unapplied: Vec<u64> = s
                    .committers
                    .iter()
                    .filter_map(|c| c.ts)
                    .filter(|ts| !s.applied.contains(ts))
                    .collect();
                if unapplied.iter().any(|&ts| ts <= s.reader_w) {
                    return Some((s.reader_w, unapplied));
                }
            } else {
                let mut next = s.clone();
                match read[s.reader_pc] {
                    Read::LoadClock => next.reader_w = s.reader_w.min(s.clock),
                    Read::Scan(at) if s.slots[at] != 0 => {
                        next.reader_w = s.reader_w.min(s.slots[at] - 1)
                    }
                    Read::Scan(_) => {}
                }
                next.reader_pc += 1;
                stack.push(next);
            }
            for i in 0..committers {
                let c = &s.committers[i];
                let Some(&step) = commit.get(c.pc) else { continue };
                let mut next = s.clone();
                let me = &mut next.committers[i];
                match step {
                    Commit::LoadNow => me.now = s.clock,
                    Commit::Claim => match s.slots.iter().position(|&v| v == 0) {
                        Some(at) => {
                            next.slots[at] = me.now + 1;
                            me.slot = Some(at);
                        }
                        None => continue,
                    },
                    Commit::Draw => {
                        next.clock = s.clock + 1;
                        me.ts = Some(next.clock);
                    }
                    Commit::Apply => next.applied.push(me.ts.expect("drawn before applied")),
                    Commit::Release => next.slots[me.slot.expect("claimed")] = 0,
                }
                next.committers[i].pc += 1;
                stack.push(next);
            }
        }
        None
    }

    #[test]
    fn no_interleaving_of_the_slot_rule_covers_an_unapplied_timestamp() {
        assert_eq!(find_violation(&COMMIT, &READ, 2, 2), None);
        // More committers than slots: a claim waits for a clear.
        assert_eq!(find_violation(&COMMIT, &READ, 3, 2), None);
        // The model catches each reversal of the rule.
        let scan_first = [Read::Scan(0), Read::Scan(1), Read::LoadClock];
        assert!(find_violation(&COMMIT, &scan_first, 2, 2).is_some());
        let draw_first =
            [Commit::Draw, Commit::LoadNow, Commit::Claim, Commit::Apply, Commit::Release];
        assert!(find_violation(&draw_first, &READ, 2, 2).is_some());
    }

    /// More committing threads than slots, racing a reader, on the real
    /// atomics: every claim loop finishes, and no watermark the reader
    /// computes ever covers a timestamp not yet applied.
    #[test]
    fn more_committers_than_slots_all_finish_and_the_watermark_holds() {
        const THREADS: usize = 6;
        const COMMITS: usize = 2_000;
        let marks = Arc::new(ReadMarks::new(2));
        let clock = Arc::new(LogicalClock::new());
        let applied: Arc<Vec<AtomicBool>> =
            Arc::new((0..=THREADS * COMMITS).map(|_| AtomicBool::new(false)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (marks, clock, applied, done) =
                (marks.clone(), clock.clone(), applied.clone(), done.clone());
            std::thread::spawn(move || {
                let mut checked = 0;
                let mut reads = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let w = marks.stable(clock.now()) as usize;
                    for ts in checked + 1..=w {
                        assert!(applied[ts].load(Ordering::Relaxed), "W {w} covers unapplied {ts}");
                    }
                    checked = checked.max(w);
                    reads += 1;
                }
                reads
            })
        };
        let committers: Vec<_> = (0..THREADS)
            .map(|_| {
                let (marks, clock, applied) = (marks.clone(), clock.clone(), applied.clone());
                std::thread::spawn(move || {
                    for _ in 0..COMMITS {
                        let slot = marks.claim(&clock);
                        let ts = clock.timestamp_after(0);
                        applied[ts as usize].store(true, Ordering::Relaxed);
                        marks.release(slot);
                    }
                })
            })
            .collect();
        for c in committers {
            c.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0);
        let all = (THREADS * COMMITS) as u64;
        assert_eq!(marks.stable(clock.now()), all, "idle: the watermark is the clock");
    }
}
