//! Client-side retry policies: bounded exponential backoff in virtual time.
//!
//! The paper observes that *client-side handling decides impact*: the
//! same gray failure that strands a fire-and-forget client is absorbed by
//! one that retries with backoff — and, conversely, blind retries of
//! non-idempotent operations double-execute them. A [`RetryPolicy`] lets
//! scenarios contrast both behaviors deterministically: delays are a pure
//! function of `(seed, attempt)`, so the same seed yields byte-identical
//! schedules with no hidden RNG state.

#![deny(missing_docs)]

use simnet::Time;

/// A bounded exponential-backoff retry policy, evaluated in virtual time.
///
/// Attempt `n` (1-based) that times out is followed by a wait of
/// `min(base_delay * 2^(n-1), 8 * base_delay)` plus a deterministic
/// jitter in `0..=base_delay / 4` derived from `(seed, n)` — no wall
/// clock, no shared RNG, so retry schedules never perturb the world's
/// draw order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 = no retries).
    pub max_attempts: u32,
    /// Wait after the first failed attempt, virtual ms.
    pub base_delay: Time,
    /// Seed for the jitter hash; vary per client to desynchronize retries.
    pub seed: u64,
}

impl RetryPolicy {
    /// The fire-and-forget policy: one attempt, no retries.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: 0,
            seed: 0,
        }
    }

    /// A bounded exponential backoff: `max_attempts` tries, first retry
    /// after `base_delay` ms, doubling up to `8 * base_delay`, with
    /// jitter up to a quarter of `base_delay`.
    pub fn backoff(max_attempts: u32, base_delay: Time, seed: u64) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay,
            seed,
        }
    }

    /// The wait before retry number `retry` (1-based: `1` is the wait
    /// after the first failed attempt). Pure in `(self, retry)`.
    pub fn delay_before(&self, retry: u32) -> Time {
        let exp = self
            .base_delay
            .saturating_mul(2u64.saturating_pow(retry.saturating_sub(1)))
            .min(self.base_delay.saturating_mul(8));
        let jitter = match self.base_delay / 4 {
            0 => 0,
            max => splitmix64(self.seed ^ (u64::from(retry) << 32)) % (max + 1),
        };
        exp + jitter
    }
}

/// SplitMix64 finalizer — a stateless hash, not an RNG stream, so retry
/// jitter cannot perturb any seeded generator elsewhere in the run.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_retries() {
        assert_eq!(RetryPolicy::none().max_attempts, 1);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::backoff(5, 100, 7);
        // Each delay is its exponential part plus a jitter of at most 25.
        for (retry, exp) in [(1, 100), (2, 200), (3, 400), (4, 800), (10, 800)] {
            let d = p.delay_before(retry);
            assert!((exp..=exp + 25).contains(&d), "retry {retry}: {d}");
        }
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::backoff(4, 100, 42);
        let a: Vec<Time> = (1..=4).map(|n| p.delay_before(n)).collect();
        let b: Vec<Time> = (1..=4).map(|n| p.delay_before(n)).collect();
        assert_eq!(a, b, "delays are pure in (seed, attempt)");
        for d in &a {
            assert!(*d >= 100, "delay includes the exponential part");
            assert!(*d <= 800 + 25, "jitter bounded by a quarter of the base delay");
        }
        let other = RetryPolicy::backoff(4, 100, 43);
        assert_ne!(
            (1..=4).map(|n| other.delay_before(n)).collect::<Vec<_>>(),
            a,
            "different seeds desynchronize"
        );
    }

    #[test]
    fn zero_base_delay_is_safe() {
        let p = RetryPolicy::backoff(3, 0, 1);
        assert_eq!(p.delay_before(1), 0);
        assert_eq!(p.delay_before(3), 0);
    }
}
