//! Exploration fan-out: `neat::explore` campaigns across many seeds.
//!
//! A single `explore()` call is a serial loop of generated trials. The
//! paper's §5.4 testability claim is statistical — detection *probability*
//! per test budget — so tightening it means many independent exploration
//! runs at different seeds. Each seed is one work item; reports come back
//! in seed order and merge deterministically via
//! [`neat::explore::merge_reports`].
//!
//! [`explore_sharded`] is the coverage-guided variant: each shard runs a
//! full [`neat::explore::explore_full`] campaign (its own novelty corpus,
//! its own finds), and the shard results fold together in shard order —
//! corpus entries via [`neat::explore::Corpus::merge`], reports via
//! [`merge_reports`][neat::explore::merge_reports], finds by
//! concatenation. Because each shard is a pure function of its seed and
//! the fold order is fixed, the merged result is byte-identical for any
//! `--jobs`.

use neat::explore::{
    explore, explore_full, merge_reports, Exploration, ExplorationReport, Strategy, TestTarget,
};

use crate::pool;

/// Runs `explore` once per seed, in parallel, returning per-seed reports
/// in seed order.
///
/// `make_target` builds **one target per worker**, reused across every
/// seed that worker claims — not one per seed. A [`TestTarget::reset`]
/// fully rebuilds the simulated cluster from the trial seed, so reuse
/// cannot leak state between seeds (the jobs-invariance test below pins
/// that), but it lets the target's allocations — corpus buffers, report
/// scratch, the exploration driver itself — warm up once instead of per
/// work item; constructing a target per seed used to dominate the
/// per-item cost.
pub fn explore_sweep<T, F>(
    jobs: usize,
    seeds: &[u64],
    make_target: F,
    strategy: &Strategy,
    trials: usize,
) -> Vec<ExplorationReport>
where
    T: TestTarget,
    F: Fn() -> T + Sync,
{
    pool::map_with(jobs, seeds.len(), &make_target, |target, i| {
        explore(target, strategy, trials, seeds[i])
    })
}

/// Shards a coverage-guided exploration campaign across the pool and
/// merges the shard results deterministically.
///
/// Shard `i` explores `trials_per_shard` trials at seed
/// `base_seed + i as u64`; the shard [`Exploration`]s then fold in shard
/// order: reports merge via [`merge_reports`], corpora via
/// [`neat::explore::Corpus::merge`] (novelty is re-judged against the
/// accumulated signature set, so duplicated discoveries collapse), and
/// finds concatenate. The result is independent of `jobs` — asserted
/// byte-for-byte by the fleet equivalence suite.
pub fn explore_sharded<T, F>(
    jobs: usize,
    shards: usize,
    base_seed: u64,
    make_target: F,
    strategy: &Strategy,
    trials_per_shard: usize,
) -> Exploration
where
    T: TestTarget,
    F: Fn() -> T + Sync,
{
    // As in `explore_sweep`: one target per worker, `reset` per trial.
    let per_shard: Vec<Exploration> = pool::map_with(jobs, shards, &make_target, |target, i| {
        explore_full(target, strategy, trials_per_shard, base_seed + i as u64)
    });
    merge_explorations(&per_shard)
}

/// Folds shard explorations in order into one [`Exploration`]. Exposed so
/// report generators can re-merge or inspect per-shard results.
pub fn merge_explorations(shards: &[Exploration]) -> Exploration {
    let mut merged = Exploration {
        report: merge_reports(shards.iter().map(|e| &e.report)),
        ..Default::default()
    };
    for shard in shards {
        merged.corpus.merge(&shard.corpus);
        merged.finds.extend(shard.finds.iter().cloned());
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_jobs_invariant_and_merges_like_serial() {
        let seeds: Vec<u64> = (0..6).collect();
        let strategy = Strategy::findings_guided();
        let make = || repkv::RepkvTarget::new(repkv::Config::voltdb());
        let serial = explore_sweep(1, &seeds, make, &strategy, 10);
        let parallel = explore_sweep(4, &seeds, make, &strategy, 10);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.trials, b.trials);
            assert_eq!(a.trials_with_violation, b.trials_with_violation);
            assert_eq!(a.first_violation_trial, b.first_violation_trial);
            assert_eq!(a.kinds, b.kinds);
        }
        let merged = merge_reports(&parallel);
        assert_eq!(merged.trials, 60);
    }

    #[test]
    fn sharded_exploration_is_jobs_invariant() {
        let strategy = Strategy::coverage_guided(3);
        let make = || repkv::RepkvTarget::new(repkv::Config::voltdb());
        let serial = explore_sharded(1, 4, 90, make, &strategy, 6);
        let parallel = explore_sharded(3, 4, 90, make, &strategy, 6);
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
        assert_eq!(serial.report.trials, 24);
        assert!(!serial.corpus.is_empty());
    }
}
