//! Campaign drivers: the registry and the auditor, fanned over the pool.
//!
//! Work items are addresses into `neat_repro::campaign::registry()` —
//! scenario indices, [`ArmId`]s, or (scenario, seed) cells. Each worker
//! executes its item as a normal single-threaded deterministic simulation;
//! the reduce step orders results by item index, so every function here is
//! byte-identical to its serial counterpart for any `jobs`.

use neat::audit::{audit_double_run, AuditOutcome};
use neat_repro::campaign::{
    arm_ids, arm_outcome, forensic_at, registry, render_arm, run_scenario_at, scenario_count,
    ScenarioResult, SweepReport, SweepScenario,
};

use crate::pool;
use crate::pool::GridStats;

/// Parallel [`neat_repro::campaign::run_all_scenarios`]: the full campaign
/// at one seed, sharded by scenario.
pub fn run_all(seed: u64, jobs: usize) -> Vec<ScenarioResult> {
    pool::map(jobs, scenario_count(), |i| run_scenario_at(i, seed))
}

/// The full campaign at every seed of `seeds`: one cell per (scenario,
/// seed) pair, each scenario's seeds run back to back (see [`cell`]).
pub fn sweep(seeds: &[u64], jobs: usize) -> SweepReport {
    sweep_grid(seeds, jobs).0
}

/// [`sweep`] plus the [`GridStats`] of the underlying grid — the
/// (scenario × seed) fan-out whose counters the ledger's `sweep_parallel`
/// workload reports (`fleet.grid_*`). Same bytes as `sweep` at any
/// `jobs`; only the stats differ.
///
/// Each cell is reduced in its worker to the two booleans the report
/// reads (flawed arm detected, fixed arm clean), and each scenario's row
/// is built from its `seeds.len()` contiguous cells.
pub fn sweep_grid(seeds: &[u64], jobs: usize) -> (SweepReport, GridStats) {
    let m = seeds.len();
    let (cells, stats) = pool::grid(jobs, scenario_count() * m, || (), |(), k| {
        let (s, i) = cell(k, m);
        let r = run_scenario_at(s, seeds[i]);
        (!r.flawed.is_empty(), r.fixed.is_empty())
    });
    let scenarios = registry()
        .iter()
        .enumerate()
        .map(|(s, spec)| {
            let row = &cells[s * m..(s + 1) * m];
            SweepScenario {
                name: spec.name,
                system: spec.system,
                detected: row.iter().map(|c| c.0).collect(),
                fixed_clean: row.iter().map(|c| c.1).collect(),
            }
        })
        .collect();
    (SweepReport { seeds: seeds.to_vec(), scenarios }, stats)
}

/// Sweep cell `k` of a sweep over `m` seeds: scenario `k / m` at seed
/// index `k % m`. Scenario-major, so both workers claim seeds of the same
/// scenario from the shared cursor and a run mostly follows a run of the
/// same arm, whose warm caches and branch history make it about 15 %
/// cheaper than a run after a different arm (ARCHITECTURE.md, fleet).
fn cell(k: usize, m: usize) -> (usize, usize) {
    (k / m, k % m)
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
    fn cells_cover_the_grid_scenario_major() {
        for (n, m) in [(1, 1), (1, 5), (47, 1), (47, 3), (5, 12)] {
            let mut seen = vec![false; n * m];
            for k in 0..n * m {
                let (s, i) = cell(k, m);
                assert!(s < n && i < m, "cell({k}, {m}) = ({s}, {i}) is off the {n} x {m} grid");
                assert!(!std::mem::replace(&mut seen[s * m + i], true), "({s}, {i}) twice");
                if k + 1 < n * m && (k + 1) % m != 0 {
                    assert_eq!(cell(k + 1, m).0, s, "cells {k} and {} split a scenario", k + 1);
                }
            }
            assert!(seen.iter().all(|&v| v), "{n} x {m} grid not covered");
        }
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
