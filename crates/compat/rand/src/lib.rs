//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of `rand` it actually uses: the [`Rng`] /
//! [`RngCore`] / [`SeedableRng`] traits, a deterministic [`rngs::StdRng`]
//! (xoshiro256++ seeded via SplitMix64), uniform range sampling and the
//! [`seq::SliceRandom`] shuffle/choose helpers.
//!
//! The streams produced here are deterministic and stable across platforms
//! and releases of this workspace, but they are **not** bit-compatible with
//! upstream `rand`; every consumer in this repository only relies on
//! determinism per seed, never on specific upstream streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A source of random 32/64-bit words.
pub trait RngCore {
    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly from a range by an [`Rng`].
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
    /// Whether the range contains no values (sampling would panic).
    fn is_empty_range(&self) -> bool;
}

/// Uniform `f64` in `[0, 1)` with 53 bits of precision.
#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform `f32` in `[0, 1)` with 24 bits of precision.
#[inline]
fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Unbiased uniform integer in `[0, bound]` by bitmask rejection: keep a
/// draw's low bits up to the smallest power of two above `bound` and redraw
/// until the result is in range (under two draws on average). This is
/// plain mask-and-reject, not Lemire's multiply-and-shift method.
#[inline]
fn below_inclusive<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    if bound == u64::MAX {
        return rng.next_u64();
    }
    let span = bound + 1;
    // `span` above 2^63 has no power-of-two ceiling in u64; every draw is
    // already within one doubling of the span, so the mask is all-ones.
    let mask = span.checked_next_power_of_two().map_or(u64::MAX, |p| p - 1);
    loop {
        let draw = rng.next_u64() & mask;
        if draw < span {
            return draw;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(below_inclusive(rng, span - 1) as $t)
            }
            #[inline]
            fn is_empty_range(&self) -> bool {
                self.start >= self.end
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(below_inclusive(rng, span) as $t)
            }
            #[inline]
            fn is_empty_range(&self) -> bool {
                self.start() > self.end()
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range {
    ($($t:ty => $unit:ident),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                self.start + (self.end - self.start) * $unit(rng)
            }
            #[inline]
            fn is_empty_range(&self) -> bool {
                // NaN bounds are incomparable and therefore empty.
                !matches!(
                    self.start.partial_cmp(&self.end),
                    Some(core::cmp::Ordering::Less)
                )
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                lo + (hi - lo) * $unit(rng)
            }
            #[inline]
            fn is_empty_range(&self) -> bool {
                self.start() > self.end()
            }
        }
    )*};
}

impl_float_range!(f64 => unit_f64, f32 => unit_f32);

/// Values with a "standard" uniform distribution (the subset of
/// `rand::distributions::Standard` this workspace needs).
pub trait Standard: Sized {
    /// Draws one value.
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}
impl Standard for f32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        unit_f32(rng)
    }
}
impl Standard for u32 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl Standard for u64 {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl Standard for bool {
    fn standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

/// Convenience sampling methods layered on [`RngCore`], mirroring
/// `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (`a..b` or `a..=b`, ints or floats).
    #[inline]
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// If `p` is not in `[0, 1]` (NaN included). Nothing is clamped here:
    /// a caller with a computed probability clamps it first, as
    /// `Ctx::broadcast` does with its per-link loss probability.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool probability out of range");
        unit_f64(self) < p
    }

    /// Draws a value with the standard distribution for `T`.
    #[inline]
    fn r#gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable deterministic generators, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64` by expanding it with SplitMix64
    /// (the standard construction; deterministic and well-distributed).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64(state);
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = sm.next().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{SeedableRng, SplitMix64};

    /// The workspace's standard deterministic generator: xoshiro256++.
    ///
    /// Not bit-compatible with upstream `rand`'s ChaCha-based `StdRng`;
    /// deterministic per seed, which is all the simulator requires.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn step(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    impl super::RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.step() >> 32) as u32
        }
        #[inline]
        fn next_u64(&mut self) -> u64 {
            self.step()
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut b = [0u8; 8];
                b.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(b);
            }
            // An all-zero state is a fixed point of xoshiro; reseed it.
            if s == [0; 4] {
                let mut sm = SplitMix64(0xDEAD_BEEF_CAFE_F00D);
                for word in &mut s {
                    *word = sm.next();
                }
            }
            StdRng { s }
        }
    }

    /// Alias: the small generator is the same engine in this shim.
    pub type SmallRng = StdRng;
}

/// Sequence helpers, mirroring `rand::seq`.
pub mod seq {
    use super::{Rng, RngCore};

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// `amount` distinct elements chosen uniformly without replacement
        /// (all of them when `amount` exceeds the length), in selection
        /// order.
        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }

        fn choose_multiple<R: RngCore + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> std::vec::IntoIter<&T> {
            let amount = amount.min(self.len());
            // Partial Fisher–Yates over an index vector: O(len) setup,
            // O(amount) draws, no repeats.
            let mut indices: Vec<usize> = (0..self.len()).collect();
            let mut picked = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = rng.gen_range(i..indices.len());
                indices.swap(i, j);
                picked.push(&self[indices[i]]);
            }
            picked.into_iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_pub(), b.next_u64_pub());
        }
    }

    impl StdRng {
        fn next_u64_pub(&mut self) -> u64 {
            use super::RngCore;
            self.next_u64()
        }
    }

    #[test]
    fn different_seeds_differ() {
        use super::RngCore;
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn ranges_are_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: u64 = rng.gen_range(10..20);
            assert!((10..20).contains(&x));
            let y: f64 = rng.gen_range(-2.5..=3.5);
            assert!((-2.5..=3.5).contains(&y));
            let z: usize = rng.gen_range(0..=0);
            assert_eq!(z, 0);
            let w: i32 = rng.gen_range(-5..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn range_sampling_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle of 50 elements virtually never identity");
    }

    #[test]
    fn choose_multiple_is_distinct_and_complete() {
        let mut rng = StdRng::seed_from_u64(13);
        let v: Vec<u32> = (0..20).collect();
        let picked: Vec<u32> = v.choose_multiple(&mut rng, 8).copied().collect();
        assert_eq!(picked.len(), 8);
        let mut uniq = picked.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "no repeats");
        let all: Vec<u32> = v.choose_multiple(&mut rng, 99).copied().collect();
        assert_eq!(all.len(), 20);
    }
}
