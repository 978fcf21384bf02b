//! Minimal, std-only drop-in for the subset of the `rand` 0.8 API this
//! workspace uses, so the workspace builds with `cargo --offline` (the
//! build environment has no network and no vendored registry).
//!
//! Covered surface: [`rngs::StdRng`] (+[`SeedableRng::seed_from_u64`]),
//! [`Rng::gen`] for `f64`/`bool`/integers, [`Rng::gen_range`] over
//! half-open and inclusive integer/float ranges, and
//! [`seq::SliceRandom::shuffle`]/[`seq::SliceRandom::choose`].
//!
//! The core generator is **xoshiro256++** seeded through SplitMix64 —
//! not the ChaCha12 of the real `StdRng`, so streams differ from
//! upstream `rand`; every consumer in this workspace seeds explicitly
//! and depends only on determinism and statistical quality, both of
//! which xoshiro256++ provides.

#![warn(missing_docs)]

/// Core trait: a source of `u32`/`u64` random words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of an RNG from seed material.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (SplitMix64-expanded).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that [`Rng::gen`] can produce from the "standard" distribution.
pub trait SampleStandard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl SampleStandard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl SampleStandard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl SampleStandard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty => $m:ident),*) => {$(
        impl SampleStandard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.$m() as $t
            }
        }
    )*};
}
impl_standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
    usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
    i64 => next_u64, isize => next_u64);

/// Types [`Rng::gen_range`] can sample uniformly.
///
/// One blanket `SampleRange` impl per range shape (below) keeps type
/// inference identical to upstream `rand`: in
/// `slice[rng.gen_range(0..3)]` the untyped literals unify with `usize`
/// through the single applicable impl instead of falling back to `i32`.
pub trait SampleUniform: Sized {
    /// Uniform draw from `low..high`; panics if empty.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform draw from `low..=high`; panics if empty.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low < high, "cannot sample empty range");
                let span = high.wrapping_sub(low) as u64;
                low.wrapping_add(uniform_u64(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: $t, high: $t) -> $t {
                assert!(low <= high, "cannot sample empty range");
                let span = high.wrapping_sub(low) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                low.wrapping_add(uniform_u64(rng, span + 1) as $t)
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
        assert!(low < high, "cannot sample empty range");
        let v = low + f64::sample(rng) * (high - low);
        // Guard against rounding up onto the excluded endpoint.
        if v >= high {
            high - (high - low) * f64::EPSILON
        } else {
            v
        }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64) -> f64 {
        assert!(low <= high, "cannot sample empty range");
        low + f64::sample(rng) * (high - low)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, low: f32, high: f32) -> f32 {
        assert!(low < high, "cannot sample empty range");
        let v = low + f32::sample(rng) * (high - low);
        if v >= high {
            high - (high - low) * f32::EPSILON
        } else {
            v
        }
    }

    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: f32, high: f32) -> f32 {
        assert!(low <= high, "cannot sample empty range");
        low + f32::sample(rng) * (high - low)
    }
}

/// Ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a value uniformly from the range; panics if empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Unbiased uniform draw from `0..span` (`span > 0`) via Lemire's
/// nearly-divisionless rejection on the widening multiply.
///
/// A draw is rejected iff the low product word falls below
/// `threshold = 2^64 mod span`. Since `threshold < span`, a low word of at
/// least `span` is always accepted, so the division that computes the
/// threshold runs only when the low word is below `span` — rarely, for
/// small spans. Accepted and rejected draws are exactly those of the
/// always-divide form, so the output stream is unchanged.
fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    let mut m = (rng.next_u64() as u128) * (span as u128);
    if (m as u64) < span {
        let threshold = span.wrapping_neg() % span;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128) * (span as u128);
        }
    }
    (m >> 64) as u64
}

/// Convenience methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution (`f64` in `[0,1)`,
    /// uniform integers, fair `bool`).
    fn gen<T: SampleStandard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard seeded generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let result = Self::rotl(self.s[0].wrapping_add(self.s[3]), 23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            result
        }
    }
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffle and random selection over slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
        /// A uniformly random element, or `None` when empty.
        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

/// Commonly used items, mirroring `rand::prelude`.
pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.gen_range(0..5usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..500 {
            let v = rng.gen_range(-11..=12i32);
            assert!((-11..=12).contains(&v));
            let f = rng.gen_range(0.905..0.995f64);
            assert!((0.905..0.995).contains(&f));
            let g = rng.gen_range(f64::MIN_POSITIVE..1.0);
            assert!(g > 0.0 && g < 1.0);
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }

    /// The always-divide rejection loop `uniform_u64` replaced, kept as
    /// the oracle its draws must match.
    fn uniform_u64_oracle<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
        if span.is_power_of_two() {
            return rng.next_u64() & (span - 1);
        }
        let threshold = span.wrapping_neg() % span;
        loop {
            let x = rng.next_u64();
            let m = (x as u128) * (span as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Small spans, a span just past 32 bits, a third of the word, and
    /// `2^63 + 1`, whose threshold (`2^63 − 1`) rejects about half of all
    /// draws so the retry loop runs constantly.
    const GOLDEN_SPANS: [u64; 7] = [2, 3, 6, 1000, (1 << 32) + 1, u64::MAX / 3, (1 << 63) + 1];

    #[test]
    fn gen_range_draws_match_rejection_oracle() {
        for (s, &span) in GOLDEN_SPANS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x5eed + s as u64);
            let mut oracle = rng.clone();
            for _ in 0..20_000 {
                let got = rng.gen_range(0..span);
                let want = uniform_u64_oracle(&mut oracle, span);
                assert_eq!(got, want, "span {span}");
            }
            // Same number of words consumed, rejections included.
            assert_eq!(rng.next_u64(), oracle.next_u64(), "span {span}");
        }
    }

    #[test]
    fn golden_spans_reach_the_threshold_branch_and_the_retry_loop() {
        let low_words = |span: u64| {
            let mut rng = StdRng::seed_from_u64(9);
            (0..20_000).map(move |_| (rng.next_u64() as u128 * span as u128) as u64)
        };
        let third = u64::MAX / 3;
        assert!(low_words(third).any(|low| low < third));
        let half = (1u64 << 63) + 1;
        let threshold = half.wrapping_neg() % half;
        assert!(low_words(half).filter(|&low| low < threshold).count() > 1000);
    }

    #[test]
    fn shuffle_matches_rejection_oracle() {
        for len in [2usize, 3, 6, 1000] {
            let mut rng = StdRng::seed_from_u64(len as u64);
            let mut oracle = rng.clone();
            let mut got: Vec<u32> = (0..len as u32).collect();
            got.shuffle(&mut rng);
            let mut want: Vec<u32> = (0..len as u32).collect();
            for i in (1..len).rev() {
                let j = uniform_u64_oracle(&mut oracle, i as u64 + 1) as usize;
                want.swap(i, j);
            }
            assert_eq!(got, want, "len {len}");
            assert_eq!(rng.next_u64(), oracle.next_u64());
        }
    }

    #[test]
    fn choose_in_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(items.choose(&mut rng).unwrap()));
        }
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
