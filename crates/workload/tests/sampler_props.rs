//! Property tests for the workload samplers: seed stability (the same
//! seed yields the identical sequence) and distribution sanity (hot-key
//! mass and Poisson mean inter-arrival land within tolerance).

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use workload::{Arrival, Driver, KeySampler, Keyspace, Mix, Pacing, WorkloadSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn zipfian_sampler_is_seed_stable(
        seed in 0u64..100_000,
        keys in 2usize..64,
    ) {
        let space = Keyspace::Zipfian { keys, theta: 0.99 };
        let s = KeySampler::new(&space);
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        for _ in 0..256 {
            prop_assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }

    #[test]
    fn poisson_gaps_are_seed_stable(
        seed in 0u64..100_000,
        rate_x10 in 10u64..2_000,
    ) {
        let a = Arrival::Poisson { rate: rate_x10 as f64 / 10.0 };
        let mut r1 = StdRng::seed_from_u64(seed);
        let mut r2 = StdRng::seed_from_u64(seed);
        for t in 0..256u64 {
            prop_assert_eq!(a.gap(&mut r1, t), a.gap(&mut r2, t));
        }
    }

    #[test]
    fn hot_key_mass_lands_within_tolerance(
        seed in 0u64..100_000,
        mass_pct in 30u64..95,
    ) {
        let space = Keyspace::HotKey { keys: 16, hot_mass: mass_pct as f64 / 100.0 };
        let s = KeySampler::new(&space);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 6000u64;
        let hot = (0..n).filter(|_| s.sample(&mut rng) == 0).count() as u64;
        let want = n * mass_pct / 100;
        // 6000 draws: allow a generous ±5 percentage-point band.
        let slack = n * 5 / 100;
        prop_assert!(
            hot + slack >= want && hot <= want + slack,
            "hot={} want={} (mass {}%)", hot, want, mass_pct
        );
    }

    #[test]
    fn poisson_mean_gap_within_tolerance(
        seed in 0u64..100_000,
        rate in 5u64..200,
    ) {
        let a = Arrival::Poisson { rate: rate as f64 };
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4000u64;
        let total: u64 = (0..n).map(|_| a.gap(&mut rng, 0)).sum();
        let mean_x100 = total * 100 / n;
        let want_x100 = 100_000 / rate; // 1000 ms/s * 100 / rate
        // The floor cast biases the mean down by up to 0.5 ms; accept a
        // ±25% band plus that constant.
        let lo = want_x100 * 75 / 100;
        let hi = want_x100 * 125 / 100 + 50;
        prop_assert!(
            (lo..=hi).contains(&(mean_x100 + 50)),
            "mean_x100={} want_x100={} rate={}", mean_x100, want_x100, rate
        );
    }

    #[test]
    fn driver_stream_is_seed_stable_across_pacings(
        seed in 0u64..100_000,
        closed in proptest::bool::ANY,
    ) {
        let pacing = if closed {
            Pacing::Closed { clients: 3, think_ms: 20 }
        } else {
            Pacing::Open(Arrival::Ramp {
                from: 40.0,
                to: 400.0,
                ramp_ms: 500,
            })
        };
        let spec = WorkloadSpec {
            pacing,
            keyspace: Keyspace::Zipfian { keys: 8, theta: 0.9 },
            mix: Mix::read_write(1, 3),
            ops: 64,
            batch: 0,
            start_at: 5,
        };
        let mut a = Driver::new(spec.clone(), seed);
        let mut b = Driver::new(spec, seed);
        while let Some(op) = a.next_op() {
            prop_assert_eq!(Some(op.clone()), b.next_op());
            // Completions at fixed offsets keep closed-loop ready times in
            // lockstep on both drivers.
            a.complete(&op, op.at, op.at + 3, workload::OpStatus::Ok);
            b.complete(&op, op.at, op.at + 3, workload::OpStatus::Ok);
        }
        prop_assert_eq!(a.report(), b.report());
    }
}
