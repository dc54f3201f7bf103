//! A vendored, dependency-free subset of the `rand` 0.8 API.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! the slice of `rand` it actually uses. The omissions are deliberate and
//! double as determinism enforcement (DESIGN.md §6): there is no
//! `thread_rng`, no `OsRng`, no `from_entropy` — every generator must be
//! seeded explicitly, so a run is a pure function of its seed.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64. It is *not* stream-compatible with upstream `rand`'s
//! ChaCha-based `StdRng`; all seed-pinned expectations in this workspace
//! are pinned against this implementation.

pub mod rngs;
pub mod seq;

/// Core of every generator: a source of uniform `u64`s.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from an explicit seed. The entropy-based constructors of
/// upstream `rand` are intentionally absent.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from a range, e.g. `rng.gen_range(0..n)` or
    /// `rng.gen_range(0..=max)`. Panics on an empty range.
    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`. Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p not in [0, 1]: {p}");
        // 53 high bits -> uniform f64 in [0, 1).
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        unit < p
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// A range that can be sampled uniformly. Implemented for `Range` and
/// `RangeInclusive` over the unsigned/signed integer widths the workspace
/// uses.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform `u64` in `[0, span)` by rejection sampling (no modulo bias).
///
/// A draw `v` is accepted when it lies below the largest multiple of `span`
/// a `u64` holds, `(MAX / span) * span` — which is exactly when the multiple
/// after `v`'s own, `v - v % span + span`, does not overflow. Testing that
/// costs one division per draw instead of two and accepts the same draws.
#[inline]
pub(crate) fn uniform_u64<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span >= 1);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    loop {
        let v = rng.next_u64();
        let r = v % span;
        if (v - r).checked_add(span).is_some() {
            return r;
        }
    }
}

/// Integer types `gen_range` can sample. The blanket [`SampleRange`]
/// impls below are generic over this trait (one impl per range shape, as
/// in upstream `rand`) so that integer-literal inference resolves, e.g.
/// `v[rng.gen_range(0..n)]` infers `usize` from the indexing context.
pub trait SampleUniform: Copy + PartialOrd {
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool)
        -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty => $u:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: $t,
                hi: $t,
                inclusive: bool,
            ) -> $t {
                if inclusive {
                    assert!(lo <= hi, "gen_range: empty range");
                    let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo.wrapping_add(uniform_u64(rng, span + 1) as $t)
                } else {
                    assert!(lo < hi, "gen_range: empty range");
                    let span = (hi as $u).wrapping_sub(lo as $u) as u64;
                    lo.wrapping_add(uniform_u64(rng, span) as $t)
                }
            }
        }
    )*};
}

impl_sample_uniform!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize,
);

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(rng, lo, hi, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u64 = rng.gen_range(0..=5);
            assert!(w <= 5);
            let s: i64 = rng.gen_range(-10..=10);
            assert!((-10..=10).contains(&s));
        }
    }

    #[test]
    fn gen_range_covers_every_value() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8usize)] = true;
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
    fn gen_bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(13);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4500..5500).contains(&heads), "heads = {heads}");
    }

    /// The two-division rejection sampler `uniform_u64` replaced: the
    /// acceptance zone computed up front, then one `%` per accepted draw.
    fn uniform_u64_two_divisions<R: RngCore>(rng: &mut R, span: u64) -> u64 {
        if span.is_power_of_two() {
            return rng.next_u64() & (span - 1);
        }
        let zone = (u64::MAX / span) * span;
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v % span;
            }
        }
    }

    /// A generator that counts the `next_u64` calls made of it.
    struct Counting(StdRng, u64);

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    use proptest::prelude::*;

    /// Spans on the edges of the rejection zone: 1, 2^k ± 1 (2^63 + 1 and
    /// 2^64 - 1 included, the first rejecting almost half of all draws),
    /// `u64::MAX - 1`, and arbitrary small and large spans.
    fn edge_span() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(1u64),
            (1u32..64).prop_map(|k| (1u64 << k) - 1),
            (1u32..64).prop_map(|k| (1u64 << k) + 1),
            Just(u64::MAX),
            Just(u64::MAX - 1),
            1u64..1000,
            1u64..=u64::MAX,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_division_draws_equal_the_two_division_reference(
            seed in 0u64..=u64::MAX,
            spans in proptest::collection::vec(edge_span(), 1..32),
        ) {
            let mut fast = Counting(StdRng::seed_from_u64(seed), 0);
            let mut slow = Counting(StdRng::seed_from_u64(seed), 0);
            for &span in &spans {
                let v = uniform_u64(&mut fast, span);
                prop_assert_eq!(v, uniform_u64_two_divisions(&mut slow, span), "span {}", span);
                prop_assert!(v < span, "{} outside [0, {})", v, span);
                prop_assert_eq!(fast.1, slow.1, "draws consumed, span {}", span);
            }
        }
    }
}
