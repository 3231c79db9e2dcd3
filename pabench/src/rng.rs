//! The rig's own seeded generator (SplitMix64): scripts must depend on
//! `--seed` alone, not on a library's choice of algorithm.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams of the same
    /// seed by `stream` (one per script, so adding a script does not
    /// shift the others).
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An index in `0..n` with cubic-skewed popularity: low indexes are
    /// drawn far more often, as a few hosts receive most mail.
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.unit();
        ((u * u * u) * n as f64) as usize % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::new(8, 1);
        assert_ne!(a[0], other.next_u64());
        let mut stream = Rng::new(7, 2);
        assert_ne!(a[0], stream.next_u64());
    }

    #[test]
    fn ranges_hold() {
        let mut r = Rng::new(1, 1);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            assert!(r.skewed(10) < 10);
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
