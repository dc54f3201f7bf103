//! Tier-1 gate: every committed golden artifact must match what the code
//! produces today. Each row of `bench::ARTIFACTS` is regenerated
//! in-process and compared byte for byte by `bench::check_fresh`, so a
//! behaviour change that forgets to refresh the checked-in files fails
//! with the first differing line.
//!
//! The rows listed in [`NAMED`] each have a test of their own, below or
//! in `tests/{perf_gate,audit_gate}.rs`; `every_other_artifact_is_fresh`
//! checks every row added since, so adding an artifact is adding a row.

use bench::ARTIFACTS;

/// The rows with a named freshness test. `BENCH_perf.json` is checked in
/// `tests/perf_gate.rs`, whose binary installs the counting allocator its
/// counters need; `verdicts.txt` and `audit_hashes.txt` in
/// `tests/audit_gate.rs`.
const NAMED: &[&str] = &[
    "campaign_output.txt",
    "tables_output.txt",
    "figures_output.txt",
    "forensics_output.txt",
    "BENCH_forensics.json",
    "BENCH_gray.json",
    "BENCH_explore.json",
    "BENCH_lint.json",
    "BENCH_workload.json",
    "BENCH_perf.json",
    "verdicts.txt",
    "audit_hashes.txt",
];

fn assert_fresh(file: &str) {
    bench::check_fresh(file).unwrap_or_else(|stale| panic!("{stale}"));
}

#[test]
fn campaign_output_is_fresh() {
    assert_fresh("campaign_output.txt");
}

#[test]
fn tables_output_is_fresh() {
    assert_fresh("tables_output.txt");
}

#[test]
fn figures_output_is_fresh() {
    assert_fresh("figures_output.txt");
}

#[test]
fn forensics_output_is_fresh() {
    assert_fresh("forensics_output.txt");
}

#[test]
fn forensics_bench_artifact_is_fresh() {
    assert_fresh("BENCH_forensics.json");
}

#[test]
fn gray_bench_artifact_is_fresh() {
    assert_fresh("BENCH_gray.json");
}

#[test]
fn explore_bench_artifact_is_fresh() {
    assert_fresh("BENCH_explore.json");
}

/// The lint-scan counters are a pure function of the committed source
/// tree, so any rule, resolver, or annotation change shows up as a
/// counter diff here.
#[test]
fn lint_bench_artifact_is_fresh() {
    assert_fresh("BENCH_lint.json");
}

/// The workload bench, million-op ladder included, is regenerated in full:
/// every load-driven scenario with both arms' verdicts and the sharded
/// ladder's determinism verdict are compared byte for byte, which
/// `reports::tests::workload_machine_json_covers_every_load_scenario`
/// holds to the registry.
#[test]
fn workload_bench_artifact_matches_the_registry_shape() {
    assert_fresh("BENCH_workload.json");
}

/// Every row without a named test above.
#[test]
fn every_other_artifact_is_fresh() {
    let stale: Vec<String> = ARTIFACTS
        .iter()
        .filter(|a| !NAMED.contains(&a.file))
        .filter_map(|a| bench::check_fresh(a.file).err())
        .collect();
    assert!(stale.is_empty(), "stale artifacts:\n{}", stale.join("\n"));
}

/// Every violation the campaign detects at seed 8 must be explained by a
/// forensics timeline: same scenario set, same verdict count.
#[test]
fn forensics_explains_every_campaign_violation() {
    let text = std::fs::read_to_string(bench::repo_root().join("forensics_output.txt"))
        .expect("read forensics_output.txt");
    for s in neat_repro::campaign::run_all_scenarios(8) {
        assert!(
            text.contains(&format!("== {} — {} ({}) ==", s.name, s.system, s.reference)),
            "no forensics block for scenario {}",
            s.name
        );
        if !s.flawed.is_empty() {
            let block = text
                .split("\n== ")
                .find(|b| b.starts_with(&format!("{} — ", s.name)))
                .unwrap_or_else(|| panic!("block for {} not found", s.name));
            assert!(
                !block.contains("no violation detected"),
                "campaign detects a violation in {} but forensics reports none",
                s.name
            );
        }
    }
}

/// Guard the guard, both ways: every root file shaped like an artifact
/// (`*.txt`, `BENCH_*.json`) is a row of `bench::ARTIFACTS`, and every row
/// is committed. Every named row is a row of the table too.
#[test]
fn all_golden_artifacts_exist() {
    let mut committed: Vec<String> = std::fs::read_dir(bench::repo_root())
        .expect("read the repository root")
        .map(|entry| entry.expect("read a root entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".txt") || (name.starts_with("BENCH_") && name.ends_with(".json")))
        .collect();
    committed.sort();
    let mut listed: Vec<&str> = ARTIFACTS.iter().map(|a| a.file).collect();
    listed.sort_unstable();
    assert_eq!(committed, listed, "root artifacts vs bench::ARTIFACTS");
    for file in NAMED {
        assert!(listed.contains(file), "{file} is named but not a row of bench::ARTIFACTS");
    }
}
