//! Offline shim for the `rand` crate.
//!
//! Implements the API surface this workspace uses — `SmallRng`,
//! `SeedableRng::seed_from_u64` and `Rng::gen_range` over primitive ranges —
//! on top of a xorshift64* generator. Deterministic for a fixed seed, which
//! is all the seeded fuzzers require.

use std::ops::Range;

/// Seedable construction, as in `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// The subset of `rand::Rng` the workspace uses.
pub trait Rng {
    /// The next raw 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform sample from a half-open range.
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(&mut |rng_bits_needed| {
            let _ = rng_bits_needed;
            self.next_u64()
        })
    }
}

/// Range types `gen_range` can sample from.
pub trait SampleRange {
    /// The sampled value type.
    type Output;

    /// Draw one uniform sample using the supplied 64-bit entropy source.
    fn sample_from(self, next: &mut dyn FnMut(u32) -> u64) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;

    fn sample_from(self, next: &mut dyn FnMut(u32) -> u64) -> f64 {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        // 53 uniform mantissa bits in [0, 1).
        let unit = (next(64) >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;

    fn sample_from(self, next: &mut dyn FnMut(u32) -> u64) -> u64 {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        let span = self.end - self.start;
        // Modulo bias is negligible for the spans used here (all far below
        // 2^32), and the shim favours simplicity over perfect uniformity.
        self.start + next(64) % span
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;

    fn sample_from(self, next: &mut dyn FnMut(u32) -> u64) -> usize {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        let span = (self.end - self.start) as u64;
        self.start + (next(64) % span) as usize
    }
}

impl SampleRange for Range<i64> {
    type Output = i64;

    fn sample_from(self, next: &mut dyn FnMut(u32) -> u64) -> i64 {
        assert!(
            self.start < self.end,
            "gen_range called with an empty range"
        );
        let span = (self.end - self.start) as u64;
        self.start.wrapping_add((next(64) % span) as i64)
    }
}

/// Generator namespace, mirroring `rand::rngs`.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// A small, fast, deterministic generator (xorshift64*).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Avoid the all-zero fixed point; SplitMix64 the seed once so
            // nearby seeds diverge immediately.
            let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            SmallRng {
                state: if z == 0 { 0x5eed_5eed_5eed_5eed } else { z },
            }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = rng.gen_range(-0.25f64..0.25);
            assert!((-0.25..0.25).contains(&x));
        }
    }

    #[test]
    fn integer_ranges_stay_in_bounds_and_vary() {
        let mut rng = SmallRng::seed_from_u64(42);
        let samples: Vec<usize> = (0..64).map(|_| rng.gen_range(0usize..10)).collect();
        assert!(samples.iter().all(|&s| s < 10));
        assert!(samples.windows(2).any(|w| w[0] != w[1]));
    }
}
