//! Campaign drivers: the registry and the auditor, fanned over the pool.
//!
//! Work items are addresses into `neat_repro::campaign::registry()` —
//! scenario indices, [`ArmId`]s, or (scenario, seed) pairs. Each worker
//! executes its item as a normal single-threaded deterministic simulation;
//! the reduce step orders results by item index, so every function here is
//! byte-identical to its serial counterpart for any `jobs`.

use neat::audit::{audit_double_run, AuditOutcome};
use neat_repro::campaign::{
    arm_ids, arm_outcome, forensic_at, render_arm, run_scenario_at, scenario_count, ScenarioResult,
    SweepReport,
};

use crate::pool;
use crate::pool::GridStats;

/// Parallel [`neat_repro::campaign::run_all_scenarios`]: the full campaign
/// at one seed, sharded by scenario.
pub fn run_all(seed: u64, jobs: usize) -> Vec<ScenarioResult> {
    pool::map(jobs, scenario_count(), |i| run_scenario_at(i, seed))
}

/// The full campaign at every seed of `seeds`, sharded by
/// (seed, scenario) pair and merged back into per-seed runs.
pub fn sweep(seeds: &[u64], jobs: usize) -> SweepReport {
    sweep_grid(seeds, jobs).0
}

/// [`sweep`] plus the [`GridStats`] of the underlying grid — the
/// (seed × arm) fan-out whose counters the ledger's `sweep_parallel`
/// workload reports (`fleet.grid_*`). Same bytes as `sweep` at any
/// `jobs`; only the stats differ.
pub fn sweep_grid(seeds: &[u64], jobs: usize) -> (SweepReport, GridStats) {
    let n = scenario_count();
    let (flat, stats) = pool::grid(jobs, n * seeds.len(), || (), |(), k| {
        run_scenario_at(k % n, seeds[k / n])
    });
    let mut runs: Vec<Vec<ScenarioResult>> = Vec::with_capacity(seeds.len());
    let mut rest = flat;
    for _ in 0..seeds.len() {
        let tail = rest.split_off(n);
        runs.push(rest);
        rest = tail;
    }
    (SweepReport::from_runs(seeds.to_vec(), &runs), stats)
}

/// Parallel [`neat_repro::campaign::scenario_fingerprints`]: every arm
/// run with trace recording on, sharded by arm.
pub fn fingerprints(seed: u64, jobs: usize) -> Vec<(String, String)> {
    let arms = arm_ids();
    pool::map(jobs, arms.len(), |i| (arms[i].name.clone(), render_arm(&arms[i], seed)))
}

/// Parallel [`neat_repro::campaign::forensic_reports`]: the flawed arm of
/// every scenario with trace recording on, sharded by scenario and merged
/// back into registry order — so `render_forensics` over the result is
/// byte-identical to the serial sweep for any `jobs`.
pub fn forensics(seed: u64, jobs: usize) -> Vec<neat::obs::ForensicReport> {
    pool::map(jobs, scenario_count(), |i| forensic_at(i, seed))
}

/// The double-run trace audit (`fleet --audit`), sharded by arm: each
/// worker runs its arm twice at `seed` and compares streaming fingerprint
/// hashes — no fingerprint string is allocated unless the hashes diverge,
/// in which case both runs are re-rendered to find the first differing
/// byte. Outcomes come back in registry order, so the auditor's output is
/// byte-identical to the serial audit for any `jobs`.
pub fn audit(seed: u64, jobs: usize) -> Vec<AuditOutcome> {
    let arms = arm_ids();
    pool::map(jobs, arms.len(), |i| {
        let arm = &arms[i];
        AuditOutcome {
            name: arm.name.clone(),
            result: audit_double_run(
                &arm.name,
                seed,
                |s| neat::audit::stream_hash(&arm_outcome(arm, s, true)),
                |s| render_arm(arm, s),
            ),
        }
    })
}

/// The stdout of `fleet --audit` at `seed`: one `audit <arm>: ok <hash>`
/// line per arm that double-ran identically, then the summary line. The
/// committed `audit_hashes.txt` is this at seeds 8 and 42. Divergent arms
/// are left out; the CLI reports them on stderr.
pub fn audit_text(seed: u64, outcomes: &[AuditOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes.iter().filter(|o| o.is_ok()) {
        out.push_str(&o.render());
        out.push('\n');
    }
    let divergences = outcomes.iter().filter(|o| !o.is_ok()).count();
    out.push_str(&format!(
        "audit: {} scenario arm(s) double-run with seed {seed}, {divergences} divergence(s)\n",
        outcomes.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_repro::campaign::{render, run_all_scenarios, scenario_fingerprints};

    #[test]
    fn run_all_matches_serial_for_several_job_counts() {
        let serial = render(&run_all_scenarios(8));
        for jobs in [1, 3, 8] {
            assert_eq!(render(&run_all(8, jobs)), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn fingerprints_match_the_serial_sweep() {
        assert_eq!(fingerprints(5, 4), scenario_fingerprints(5));
    }

    #[test]
    fn sweep_chunks_runs_per_seed() {
        let seeds = [8u64, 9];
        let report = sweep(&seeds, 4);
        assert_eq!(report.seeds, seeds);
        assert_eq!(report.scenarios.len(), scenario_count());
        for s in &report.scenarios {
            assert_eq!(s.detected.len(), seeds.len());
        }
    }

    #[test]
    fn forensics_match_the_serial_sweep_for_any_jobs() {
        let serial = neat_repro::campaign::forensic_reports(8);
        for jobs in [1, 4] {
            let sharded = forensics(8, jobs);
            assert_eq!(sharded.len(), serial.len(), "jobs={jobs}");
            assert_eq!(
                neat_repro::campaign::render_forensics(8, &sharded),
                neat_repro::campaign::render_forensics(8, &serial),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn audit_covers_every_arm_in_order() {
        let outcomes = audit(42, 2);
        let arms = arm_ids();
        assert_eq!(outcomes.len(), arms.len());
        for (o, a) in outcomes.iter().zip(arms.iter()) {
            assert_eq!(o.name, a.name);
        }
    }
}
