//! A fixed-size log-linear latency histogram (64 linear sub-buckets per
//! power of two, so a bucket is at most 1.6% wide) and the per-window
//! summary built on it. Quantiles interpolate by rank inside the bucket they
//! land in, so a reported value moves with the counts instead of
//! snapping to bucket edges.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Values at or above 2^MAX_BITS ns (~18 minutes) land in the last bucket.
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (MAX_BITS - SUB_BITS + 1) as usize * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    if exp >= MAX_BITS {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS;
    (shift as usize + 1) * SUB + ((v >> shift) as usize & (SUB - 1))
}

/// `[lo, lo + width)` covered by bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, 1);
    }
    let shift = (idx / SUB - 1) as u32;
    (((SUB + idx % SUB) as u64) << shift, 1 << shift)
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { counts: vec![0; BUCKETS], total: 0 }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The value below which a share `q` of the samples lie (0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut before = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (before + u64::from(c)) as f64 >= target {
                let (lo, width) = bounds_of(idx);
                let inside = (target - before as f64) / f64::from(c);
                return lo as f64 + width as f64 * inside;
            }
            before += u64::from(c);
        }
        let (lo, width) = bounds_of(BUCKETS - 1);
        (lo + width) as f64
    }
}

/// Latencies split into fixed windows of the measured phase, so one
/// stall moves one window's figures and not the reported ones.
#[derive(Clone)]
pub struct Windows {
    width_ns: u64,
    pub all: Hist,
    slots: Vec<Hist>,
}

impl Windows {
    pub fn new(width_ns: u64) -> Windows {
        Windows { width_ns, all: Hist::default(), slots: Vec::new() }
    }

    /// Record latency `v` for a request that completed `at_ns` after the
    /// phase began.
    pub fn record(&mut self, at_ns: u64, v: u64) {
        let slot = (at_ns / self.width_ns) as usize;
        if slot >= self.slots.len() {
            self.slots.resize_with(slot + 1, Hist::default);
        }
        self.slots[slot].record(v);
        self.all.record(v);
    }

    pub fn merge(&mut self, other: &Windows) {
        if other.slots.len() > self.slots.len() {
            self.slots.resize_with(other.slots.len(), Hist::default);
        }
        for (a, b) in self.slots.iter_mut().zip(&other.slots) {
            a.merge(b);
        }
        self.all.merge(&other.all);
    }

    /// Rate and median of the phase, each as the **median over the
    /// complete windows** of the window's own figure. The machine's
    /// speed wanders from second to second (a neighbour's burst, a
    /// scheduler mode): a mean over the phase follows every excursion,
    /// the median of the windows does not. The window the phase ended
    /// in is partial and left out; with fewer than three complete
    /// windows the whole phase's figures stand in.
    pub fn summary(&self, phase_ns: u64) -> Summary {
        let complete = (phase_ns / self.width_ns) as usize;
        let windows: Vec<&Hist> = self.slots.iter().take(complete).collect();
        if windows.len() < 3 {
            return Summary {
                per_s: self.all.count() as f64 / (phase_ns as f64 / 1e9),
                p50_ns: self.all.quantile(0.5),
            };
        }
        let over_windows = |figure: &dyn Fn(&Hist) -> f64| {
            median(&mut windows.iter().map(|h| figure(h)).collect::<Vec<f64>>())
        };
        Summary {
            per_s: over_windows(&|h| h.count() as f64 / (self.width_ns as f64 / 1e9)),
            p50_ns: over_windows(&|h| h.quantile(0.5)),
        }
    }
}

/// What [`Windows::summary`] reports.
pub struct Summary {
    /// Samples per second.
    pub per_s: f64,
    pub p50_ns: f64,
}

/// The value a quarter of the way up `values` (sorted in place; 0 when
/// empty).
pub fn lower_quartile(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 4).copied().unwrap_or(0.0)
}

/// Median of `values` (sorted in place; 0 when empty).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bounds_of(idx);
            assert_eq!(lo, expect, "bucket {idx} starts where the last ended");
            assert_eq!(index_of(lo), idx);
            assert_eq!(index_of(lo + width - 1), idx);
            expect = lo + width;
        }
        assert_eq!(index_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.02, "q{q}: got {got}, want {want}");
        }
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_interpolates_inside_a_bucket() {
        // 1000 and 1001 share a bucket; the median must move when the
        // counts around it do, not stick to the bucket's edge.
        let mut a = Hist::default();
        let mut b = Hist::default();
        for _ in 0..100 {
            a.record(1000);
            b.record(1000);
        }
        for _ in 0..40 {
            b.record(10);
        }
        assert!(b.quantile(0.5) < a.quantile(0.5));
    }

    #[test]
    fn summary_ignores_one_stalled_window() {
        let sec = 1_000_000_000u64;
        let mut w = Windows::new(sec);
        for window in 0..10u64 {
            // The stalled window completes a tenth of the work, slowly.
            let (n, base) = if window == 3 { (100, 50_000_000) } else { (1000, 1_000) };
            for i in 0..n {
                w.record(window * sec + i, base + i);
            }
        }
        // A partial eleventh window that must not count.
        w.record(10 * sec + 1, 900_000_000);
        let s = w.summary(10 * sec + 2);
        assert_eq!(s.per_s, 1000.0);
        assert!(s.p50_ns > 1_450.0 && s.p50_ns < 1_550.0, "{}", s.p50_ns);
        assert!((w.all.count() as f64 / 10.0) < 920.0, "the mean over the phase follows the stall");
    }

    #[test]
    fn summary_of_a_short_phase_is_the_whole_phase() {
        let mut w = Windows::new(1_000_000_000);
        for i in 0..500u64 {
            w.record(i * 3_000_000, 2_000);
        }
        let s = w.summary(1_500_000_000);
        assert!((s.per_s - 500.0 / 1.5).abs() < 1e-9);
        assert!((s.p50_ns - 2_000.0).abs() < 40.0);
    }

    #[test]
    fn windows_merge_slot_by_slot() {
        let mut a = Windows::new(10);
        let mut b = Windows::new(10);
        a.record(5, 100);
        b.record(25, 300);
        a.merge(&b);
        assert_eq!(a.all.count(), 2);
        assert_eq!(a.slots.len(), 3);
        assert_eq!(a.slots[2].count(), 1);
    }

    #[test]
    fn lower_quartile_sits_a_quarter_up() {
        let mut values: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&mut values), 25.0);
        assert_eq!(lower_quartile(&mut [9.0]), 9.0);
        assert_eq!(lower_quartile(&mut []), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
