//! Deterministic pseudo-random number generation.
//!
//! Every synthetic dataset, probabilistic replacement policy and property-based
//! workload in the workspace must be *exactly* reproducible from a seed so that
//! experiment tables can be regenerated bit-for-bit. This module provides two
//! small, well-known generators:
//!
//! * [`SplitMix64`] — used to expand a single `u64` seed into independent
//!   streams (and to seed [`Xoshiro256`]).
//! * [`Xoshiro256`] — xoshiro256** 1.0, the workhorse generator.
//!
//! Neither generator is cryptographically secure; they are meant purely for
//! simulation workloads.

/// SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Primarily used for seeding: a single `u64` can be expanded into as many
/// statistically independent 64-bit values as needed.
///
/// ```
/// use grasp_graph::prng::SplitMix64;
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::new(0)
    }
}

/// xoshiro256** 1.0 (Blackman & Vigna).
///
/// The default generator for graph generation and probabilistic cache-policy
/// decisions. Construct it from a single seed with [`Xoshiro256::seed_from_u64`].
///
/// ```
/// use grasp_graph::prng::Xoshiro256;
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// let x = rng.next_u64();
/// let y = rng.next_u64();
/// assert_ne!(x, y);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator by expanding `seed` with [`SplitMix64`].
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // Avoid the all-zero state, which is a fixed point of the generator.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Returns the next 64-bit value.
    #[inline]
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

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire's method: multiply a 64-bit random value by the bound and
        // take the high word, rejecting the small biased region.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the 53 high bits for a uniformly distributed double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n < 2 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl Default for Xoshiro256 {
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_differs_by_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::seed_from_u64(99);
        let mut b = Xoshiro256::seed_from_u64(99);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000, u32::MAX as u64] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn next_below_zero_panics() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        rng.next_below(0);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut empty: [u8; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [42u8];
        rng.shuffle(&mut one);
        assert_eq!(one, [42]);
    }

    #[test]
    fn uniformity_of_next_below() {
        // A coarse chi-square-free sanity check: each bucket of 8 should get
        // roughly 1/8 of the draws.
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut counts = [0u32; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[rng.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / draws as f64;
            assert!((frac - 0.125).abs() < 0.01, "bucket fraction {frac}");
        }
    }
}
