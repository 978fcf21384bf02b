//! Minimal, std-only drop-in for the subset of the `rand` 0.8 API this
//! workspace uses, so the workspace builds with `cargo --offline` (the
//! build environment has no network and no vendored registry).
//!
//! Covered surface: [`rngs::StdRng`] (+[`SeedableRng::seed_from_u64`]),
//! [`Rng::gen`] for `f64`/`bool`/integers, [`Rng::gen_range`] over
//! half-open and inclusive integer/float ranges, and
//! [`seq::SliceRandom::shuffle`]/[`seq::SliceRandom::choose`]. Beyond
//! upstream, [`rngs::StdRng::advance`] jumps a stream ahead by any number
//! of draws in logarithmic time.
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

    /// The low 256 coefficients of xoshiro256's characteristic polynomial
    /// `P(x) = x^256 + …` over GF(2), bit `b` of word `w` holding the
    /// coefficient of `x^(64w + b)`. The state update is linear over
    /// GF(2)^256 with characteristic polynomial `P`, so by Cayley–Hamilton
    /// `n` steps equal `x^n mod P` evaluated at the update. Re-derived from
    /// a state-bit sequence by Berlekamp–Massey in this module's tests.
    const CHAR_POLY: [u64; 4] = [
        0x9d11_6f2b_b0f0_f001,
        0x0280_002b_cefd_1a5e,
        0x04b4_edcf_2625_9f85,
        0x0003_c03c_3f3e_cb19,
    ];

    /// `a · x mod P`.
    const fn mul_x(a: [u64; 4]) -> [u64; 4] {
        let carry = a[3] >> 63;
        let mut r = [
            a[0] << 1,
            (a[1] << 1) | (a[0] >> 63),
            (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63),
        ];
        if carry == 1 {
            let mut k = 0;
            while k < 4 {
                r[k] ^= CHAR_POLY[k];
                k += 1;
            }
        }
        r
    }

    /// `x^(256 + i) mod P` for `i < 256`: the residues that fold a
    /// product's high half back below degree 256.
    const REDUCE: [[u64; 4]; 256] = {
        let mut table = [[0u64; 4]; 256];
        let mut r = CHAR_POLY;
        let mut i = 0;
        while i < 256 {
            table[i] = r;
            r = mul_x(r);
            i += 1;
        }
        table
    };

    fn xor_into(r: &mut [u64; 4], a: &[u64; 4]) {
        for (r, a) in r.iter_mut().zip(a) {
            *r ^= a;
        }
    }

    /// Spreads the 32 bits of `x` to the even bit positions of a word:
    /// squaring over GF(2) has no cross terms.
    fn spread(x: u32) -> u64 {
        let mut x = x as u64;
        x = (x | (x << 16)) & 0x0000_ffff_0000_ffff;
        x = (x | (x << 8)) & 0x00ff_00ff_00ff_00ff;
        x = (x | (x << 4)) & 0x0f0f_0f0f_0f0f_0f0f;
        x = (x | (x << 2)) & 0x3333_3333_3333_3333;
        (x | (x << 1)) & 0x5555_5555_5555_5555
    }

    /// `a² mod P`.
    fn square_mod(a: &[u64; 4]) -> [u64; 4] {
        let mut wide = [0u64; 8];
        for (k, &w) in a.iter().enumerate() {
            wide[2 * k] = spread(w as u32);
            wide[2 * k + 1] = spread((w >> 32) as u32);
        }
        let mut r = [wide[0], wide[1], wide[2], wide[3]];
        for (j, &w) in wide[4..].iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                xor_into(&mut r, &REDUCE[64 * j + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
        r
    }

    /// `x^n mod P` by square-and-multiply over `n`'s bits, high to low.
    fn x_pow_mod(n: u128) -> [u64; 4] {
        let mut r = [1u64, 0, 0, 0];
        for bit in (0..128 - n.leading_zeros()).rev() {
            r = square_mod(&r);
            if (n >> bit) & 1 == 1 {
                r = mul_x(r);
            }
        }
        r
    }

    impl StdRng {
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }

        /// The state transition behind [`RngCore::next_u64`], without the
        /// output scrambler.
        #[inline]
        fn step(&mut self) {
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
        }

        /// Jumps ahead by exactly `n` draws: afterwards the generator is in
        /// the state `n` calls to [`RngCore::next_u64`] would have left it
        /// in. Costs `O(log n)` polynomial squarings plus 256 state steps,
        /// so one stream can be cut into exactly positioned pieces drawn
        /// apart (the published xoshiro256 `jump()` advances `2^128`
        /// draws).
        pub fn advance(&mut self, n: u128) {
            self.apply_jump(&x_pow_mod(n));
        }

        /// The reference jump loop: the state becomes `Σ cᵢ·Mⁱ·s` for the
        /// jump polynomial's coefficients `cᵢ`, `M` the state update.
        fn apply_jump(&mut self, poly: &[u64; 4]) {
            let mut acc = [0u64; 4];
            for word in poly {
                for b in 0..64 {
                    if (word >> b) & 1 == 1 {
                        xor_into(&mut acc, &self.s);
                    }
                    self.step();
                }
            }
            self.s = acc;
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
            self.step();
            result
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// The connection polynomial `1 + c₁x + … + c_L x^L` of the
        /// shortest linear recurrence generating `bits` (Berlekamp–Massey
        /// over GF(2)), as `c₀..=c_L`.
        fn berlekamp_massey(bits: &[u8]) -> Vec<u8> {
            let n = bits.len();
            let mut c = vec![0u8; n + 1];
            let mut b = vec![0u8; n + 1];
            c[0] = 1;
            b[0] = 1;
            let mut len = 0usize;
            let mut shift = 1usize;
            for i in 0..n {
                let d = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
                if d == 0 {
                    shift += 1;
                    continue;
                }
                let prev = c.clone();
                for j in 0..=n - shift {
                    c[j + shift] ^= b[j];
                }
                if 2 * len <= i {
                    len = i + 1 - len;
                    b = prev;
                    shift = 1;
                } else {
                    shift += 1;
                }
            }
            c.truncate(len + 1);
            c
        }

        #[test]
        fn char_poly_is_the_berlekamp_massey_minimal_polynomial() {
            // Bit 0 of `s[0]` is a linear functional of the state; P is
            // irreducible (the period is 2^256 − 1), so that sequence's
            // minimal polynomial is P itself.
            let mut rng = StdRng::seed_from_u64(0x5eed);
            let bits: Vec<u8> = (0..1024)
                .map(|_| {
                    let bit = (rng.s[0] & 1) as u8;
                    rng.step();
                    bit
                })
                .collect();
            let c = berlekamp_massey(&bits);
            assert_eq!(c.len(), 257, "linear complexity 256");
            // P(x) = x^256 · C(1/x): the coefficient of x^(256 − j) is c_j.
            let mut p = [0u64; 4];
            for (j, &cj) in c.iter().enumerate().skip(1) {
                let k = 256 - j;
                p[k / 64] |= (cj as u64) << (k % 64);
            }
            assert_eq!(p, CHAR_POLY);
        }

        /// xoshiro256's published `jump()` and `long_jump()` polynomials:
        /// `x^(2^128)` and `x^(2^192)` mod P.
        const JUMP: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        const LONG_JUMP: [u64; 4] = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];

        #[test]
        fn advance_reproduces_the_published_jumps() {
            // `x^(2^k)`: `x` squared `k` times.
            let x_pow_pow2 = |k: u32| (0..k).fold(x_pow_mod(1), |r, _| square_mod(&r));
            assert_eq!(x_pow_pow2(127), x_pow_mod(1 << 127));
            assert_eq!(x_pow_pow2(128), JUMP);
            assert_eq!(x_pow_pow2(192), LONG_JUMP);
            // 2^128 draws overflow `u128`: two advances of 2^127.
            let mut jumped = StdRng::seed_from_u64(99);
            let mut advanced = jumped.clone();
            jumped.apply_jump(&JUMP);
            advanced.advance(1 << 127);
            advanced.advance(1 << 127);
            assert_eq!(advanced.s, jumped.s);
        }

        #[test]
        fn advance_equals_that_many_draws() {
            let mut lengths = vec![0u128, 1, 63, 64, 255, 256, 257, 1_000_000];
            let mut pick = StdRng::seed_from_u64(17);
            lengths.extend((0..12).map(|_| (pick.next_u64() % 50_000) as u128));
            for (k, &n) in lengths.iter().enumerate() {
                let mut walked = StdRng::seed_from_u64(1000 + k as u64);
                let mut advanced = walked.clone();
                for _ in 0..n {
                    walked.next_u64();
                }
                advanced.advance(n);
                assert_eq!(advanced.s, walked.s, "n = {n}");
                assert_eq!(advanced.next_u64(), walked.next_u64(), "n = {n}");
            }
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
