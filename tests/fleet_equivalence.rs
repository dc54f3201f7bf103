//! Tier-1 gate: the fleet runner is *transparent* — for any worker count,
//! every parallel entry point must produce bytes identical to its serial
//! counterpart over the full scenario registry. This is the property that
//! lets `--jobs K` exist at all in a repo whose north star is "same seed
//! ⇒ same trace": parallelism may only change wall-clock time, never one
//! byte of output.

use neat_repro::campaign::{
    render, render_sweep, run_all_scenarios, scenario_fingerprints, scenarios_of, ScenarioClass,
};

#[test]
fn campaign_is_byte_identical_for_any_worker_count() {
    let serial = render(&run_all_scenarios(8));
    for jobs in [1, 4, 8] {
        assert_eq!(
            render(&fleet::campaign::run_all(8, jobs)),
            serial,
            "campaign diverged at jobs={jobs}"
        );
    }
}

#[test]
fn sweep_is_byte_identical_for_any_worker_count() {
    let seeds: Vec<u64> = (8..12).collect();
    let serial = render_sweep(&fleet::campaign::sweep(&seeds, 1));
    for jobs in [4, 8] {
        assert_eq!(
            render_sweep(&fleet::campaign::sweep(&seeds, jobs)),
            serial,
            "sweep diverged at jobs={jobs}"
        );
    }
}

/// The sweep's cells against an oracle outside the grid: the serial
/// campaign at each seed. A wrong cell → (scenario, seed) map would still
/// agree with itself at every worker count.
#[test]
fn sweep_cells_match_the_per_seed_campaigns() {
    let seeds: Vec<u64> = (8..12).collect();
    let runs: Vec<_> = seeds.iter().map(|&seed| run_all_scenarios(seed)).collect();
    for jobs in [1, 3] {
        let report = fleet::campaign::sweep(&seeds, jobs);
        assert_eq!(report.seeds, seeds);
        assert_eq!(report.scenarios.len(), runs[0].len(), "jobs={jobs}");
        for (s, row) in report.scenarios.iter().enumerate() {
            assert_eq!(row.name, runs[0][s].name, "jobs={jobs}: row {s}");
            assert_eq!(row.detected.len(), seeds.len());
            assert_eq!(row.fixed_clean.len(), seeds.len());
            for (i, run) in runs.iter().enumerate() {
                let at = format!("jobs={jobs}: {} at seed {}", row.name, seeds[i]);
                assert_eq!(row.detected[i], !run[s].flawed.is_empty(), "{at}: detected");
                assert_eq!(row.fixed_clean[i], run[s].fixed.is_empty(), "{at}: fixed clean");
            }
        }
    }
}

#[test]
fn fingerprints_are_byte_identical_for_any_worker_count() {
    let serial = scenario_fingerprints(8);
    for jobs in [1, 4, 8] {
        assert_eq!(
            fleet::campaign::fingerprints(8, jobs),
            serial,
            "fingerprints diverged at jobs={jobs}"
        );
    }
}

#[test]
fn cli_report_is_jobs_invariant_in_both_modes() {
    for seeds in [None, Some(3)] {
        let serial = fleet::cli::report(&fleet::cli::Opts {
            seed: 8,
            seeds,
            jobs: 1,
            ..fleet::cli::Opts::default()
        });
        for jobs in [4, 8] {
            let parallel = fleet::cli::report(&fleet::cli::Opts {
                seed: 8,
                seeds,
                jobs,
                ..fleet::cli::Opts::default()
            });
            assert_eq!(parallel, serial, "seeds={seeds:?} jobs={jobs}");
        }
    }
}

#[test]
fn audit_is_jobs_invariant() {
    let serial = fleet::campaign::audit(42, 1);
    for jobs in [4, 8] {
        assert_eq!(fleet::campaign::audit(42, jobs), serial, "jobs={jobs}");
    }
}

// --- property: forensics trace bytes are jobs-invariant ------------------
//
// The deterministic-sampling version of the fixed-matrix tests above:
// for random (seed, jobs-pair) samples, the rendered forensics report —
// the full trace byte stream of every recorded flawed arm — must be
// identical whichever worker count produced it.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn forensics_trace_bytes_are_jobs_invariant(
        seed in 0u64..10_000,
        jobs_a in 1usize..9,
        jobs_b in 1usize..9,
    ) {
        let a = neat_repro::campaign::render_forensics(
            seed,
            &fleet::campaign::forensics(seed, jobs_a),
        );
        let b = neat_repro::campaign::render_forensics(
            seed,
            &fleet::campaign::forensics(seed, jobs_b),
        );
        prop_assert_eq!(
            neat::audit::trace_hash(&a),
            neat::audit::trace_hash(&b),
            "forensics diverged between jobs={} and jobs={} at seed {}",
            jobs_a, jobs_b, seed
        );
        prop_assert_eq!(a, b);
    }

    /// The load-driven scenarios thread a second RNG through every run —
    /// the workload driver's arrival gaps, key sampling, and op mix — so
    /// they get their own jobs-invariance property: for random seeds,
    /// both arms' streamed execution hashes must not depend on which
    /// fleet worker computed them.
    #[test]
    fn load_scenario_hashes_are_jobs_invariant(
        seed in 0u64..10_000,
        jobs in 2usize..9,
    ) {
        let load: Vec<_> = scenarios_of(ScenarioClass::Load).collect();
        prop_assert!(load.len() >= 5, "only {} load scenarios", load.len());
        let run = |jobs: usize| -> Vec<String> {
            fleet::pool::map(jobs, load.len(), |i| {
                let s = load[i];
                let hash = |arm: fn(u64, bool) -> _| neat::audit::stream_hash(&arm(seed, true));
                format!("{} {} {:?}", s.name, hash(s.flawed), s.fixed.map(hash))
            })
        };
        prop_assert_eq!(run(1), run(jobs), "load arms diverged at seed {}", seed);
    }

    /// Sharded coverage-guided exploration merges deterministically: for
    /// random (base seed, jobs-pair) samples, the merged exploration —
    /// report tallies, novelty-corpus entries in discovery order, and
    /// every find with its repro seed — must render byte-identically
    /// whichever worker count produced it.
    #[test]
    fn exploration_merges_are_jobs_invariant(
        seed in 0u64..10_000,
        jobs_a in 1usize..9,
        jobs_b in 1usize..9,
    ) {
        let strategy = neat::explore::Strategy::coverage_guided(3);
        let make = || repkv::RepkvTarget::new(repkv::Config::voltdb());
        let run = |jobs: usize| {
            let merged = fleet::explore::explore_sharded(jobs, 3, seed, make, &strategy, 4);
            format!("{merged:?}")
        };
        prop_assert_eq!(
            run(jobs_a),
            run(jobs_b),
            "exploration diverged between jobs={} and jobs={} at base seed {}",
            jobs_a, jobs_b, seed
        );
    }
}
