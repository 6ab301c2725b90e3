//! The benchmark's own generator: every literal, window and `EventSource`
//! seed comes from one SplitMix64 stream keyed on `--seed`, so the product
//! only ever sees generated SQL text and rows.

/// Seed used when `--seed` is not given; the committed baseline was
/// measured with it.
pub const DEFAULT_SEED: u64 = 20_160_315;

/// Held-out seed: never used while a change is written, only to confirm a
/// claim afterwards (choosing-metrics §6.3).
pub const HELD_OUT_SEED: u64 = 7_919;

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period,
/// and cheap to fork into independent sub-streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// An independent stream for sub-task `tag` of this seed (round `i`,
    /// table `t`, …): the parent stream is not advanced, so round `i`'s
    /// literals do not depend on how many rounds ran before it.
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut child = SplitMix64(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent_of_position() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let before = a.fork(7).next_u64();
        a.next_u64();
        assert_ne!(a.fork(7).next_u64(), before, "fork keys on the current state");
        let root = SplitMix64::new(42);
        assert_eq!(root.fork(7).next_u64(), root.fork(7).next_u64());
        assert_ne!(root.fork(7).next_u64(), root.fork(8).next_u64());
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            let v = r.range(-3, 5);
            assert!((-3..=5).contains(&v));
        }
    }
}
