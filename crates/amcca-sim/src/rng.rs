//! A tiny deterministic PRNG (SplitMix64) used inside the simulator.
//!
//! The simulator must be bit-for-bit reproducible across runs for the paper's
//! experiments (same seed ⇒ identical cycle counts), so it carries its own
//! dependency-free generator rather than pulling `rand` into the hot path.
//! Workload *generation* (datasets crate) uses `rand` as usual.

/// SplitMix64: fast, small-state, passes BigCrush; ideal for simulation
/// decisions such as Random-Allocator target choice.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed a generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derive an independent stream for substream `i` (e.g. per compute cell).
    pub fn fork(&self, i: u64) -> Self {
        let mut base = SplitMix64::new(self.state ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1));
        base.next_u64();
        base
    }

    #[inline]
    /// Next u64.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n`. `n` must be non-zero.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Lemire's multiply-shift; bias is negligible for simulator purposes
        // (n is tiny compared to 2^64) and the method is branch-free.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_streams() {
        let root = SplitMix64::new(7);
        let mut f1 = root.fork(0);
        let mut f2 = root.fork(1);
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut r = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(r.gen_range(17) < 17);
        }
    }

    #[test]
    fn gen_range_covers_values() {
        let mut r = SplitMix64::new(9);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets should be hit");
    }
}
