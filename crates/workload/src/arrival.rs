//! Open-loop arrival processes in virtual milliseconds.
//!
//! An open-loop driver issues requests on a schedule that does *not* wait
//! for completions — the defining property that lets overload show up as
//! scheduling lag instead of silently throttling the workload. Gaps are
//! drawn by inverse-CDF exponential sampling from the 53-bit uniform draw
//! of [`crate::unit`], so the whole schedule is a pure function of the
//! driver seed.

use rand::RngCore;

/// When the next open-loop request arrives.
#[derive(Clone, Debug, PartialEq)]
pub enum Arrival {
    /// A Poisson process: independent exponential inter-arrival gaps.
    Poisson {
        /// Mean arrivals per second. Audited rate knob.
        rate: f64, // lint:allow(float-nondet) -- audited arrival-rate knob, seeded draws only
    },
    /// A linear rate ramp from `from` to `to` arrivals per second over
    /// `ramp_ms`, flat at `to` afterwards.
    Ramp {
        /// Starting arrivals per second. Audited rate knob.
        from: f64, // lint:allow(float-nondet) -- audited arrival-rate knob, seeded draws only
        /// Final arrivals per second. Audited rate knob.
        to: f64, // lint:allow(float-nondet) -- audited arrival-rate knob, seeded draws only
        /// Ramp duration, virtual ms.
        ramp_ms: u64,
    },
}

impl Arrival {
    /// Arrivals per second in effect at virtual time `at`.
    fn rate_at(&self, at: u64) -> f64 {
        match self {
            Arrival::Poisson { rate } => *rate,
            Arrival::Ramp { from, to, ramp_ms } => {
                if *ramp_ms == 0 || at >= *ramp_ms {
                    *to
                } else {
                    from + (to - from) * (at as f64 / *ramp_ms as f64)
                }
            }
        }
    }

    /// Draws the gap (virtual ms) between an arrival at `at` and the next
    /// one: an exponential with the mean the current rate implies. The
    /// floor cast keeps everything integral; sub-millisecond gaps collapse
    /// to zero (several arrivals in the same tick — a legitimate burst).
    pub fn gap<R: RngCore + ?Sized>(&self, rng: &mut R, at: u64) -> u64 {
        let rate = self.rate_at(at).max(1e-9);
        let mean_ms = 1000.0 / rate;
        let u = crate::unit(rng);
        (-(1.0 - u).ln() * mean_ms) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn poisson_mean_gap_tracks_the_rate() {
        let a = Arrival::Poisson { rate: 20.0 }; // mean gap 50 ms
        let mut rng = StdRng::seed_from_u64(1);
        let total: u64 = (0..4000).map(|_| a.gap(&mut rng, 0)).sum();
        let mean = total / 4000;
        assert!((40..60).contains(&mean), "mean gap = {mean}");
    }

    #[test]
    fn ramp_interpolates_then_flattens() {
        let a = Arrival::Ramp {
            from: 10.0,
            to: 100.0,
            ramp_ms: 1000,
        };
        assert!(a.rate_at(0) < a.rate_at(500));
        assert!(a.rate_at(500) < a.rate_at(999));
        assert_eq!(a.rate_at(1000).to_bits(), 100.0f64.to_bits());
        assert_eq!(a.rate_at(5000).to_bits(), 100.0f64.to_bits());
    }

    #[test]
    fn same_seed_same_gaps() {
        let a = Arrival::Poisson { rate: 50.0 };
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gap(&mut r1, 0), a.gap(&mut r2, 0));
        }
    }
}
