//! The benchmark's own pseudo-random generator: xoshiro256** seeded
//! through SplitMix64. Nothing here comes from the program under test,
//! so a change to `hcc-workload` or `compat/rand` can never change the
//! load the benchmark generates.

/// SplitMix64 step — used to expand one `u64` seed into a full state and
/// to derive independent per-client streams.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** (Blackman & Vigna).
#[derive(Clone, Debug)]
pub struct Prng {
    s: [u64; 4],
}

impl Prng {
    /// The stream for `(seed, lane)`: distinct lanes of one seed are
    /// independent, the same pair always gives the same stream.
    pub fn new(seed: u64, lane: u64) -> Prng {
        let mut sm = seed ^ lane.wrapping_mul(0xD134_2543_DE82_EF95);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        Prng { s }
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`) by multiply-shift; the bias is below
    /// 2^-32 for every `n` the workloads use.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::new(42, 1);
        let mut b = Prng::new(42, 1);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn lanes_and_seeds_differ() {
        let first = |seed, lane| Prng::new(seed, lane).next_u64();
        assert_ne!(first(42, 0), first(42, 1));
        assert_ne!(first(42, 0), first(43, 0));
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut p = Prng::new(7, 0);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let v = p.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
