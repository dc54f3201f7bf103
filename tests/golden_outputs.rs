//! Tier-1 gate: the committed output artifacts must match what the
//! binaries produce today. Each artifact is regenerated in-process (the
//! binaries are thin wrappers over the same library calls) and diffed
//! byte-for-byte, so a behaviour change that forgets to refresh the
//! checked-in files fails CI with the first diverging line.

use std::path::PathBuf;

use neat_repro::campaign::{scenarios_of, ScenarioClass};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    let path = root().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed artifact {}: {e}", path.display()))
}

fn assert_fresh(name: &str, committed: &str, regenerated: &str, regen_cmd: &str) {
    if committed == regenerated {
        return;
    }
    let first_diff = committed
        .lines()
        .zip(regenerated.lines())
        .position(|(a, b)| a != b)
        .map(|i| {
            let a = committed.lines().nth(i).unwrap_or("");
            let b = regenerated.lines().nth(i).unwrap_or("");
            format!("line {}: committed `{a}` vs regenerated `{b}`", i + 1)
        })
        .unwrap_or_else(|| {
            format!(
                "line counts differ: committed {} vs regenerated {}",
                committed.lines().count(),
                regenerated.lines().count()
            )
        });
    panic!("{name} is stale ({first_diff}); refresh with `{regen_cmd}`");
}

#[test]
fn campaign_output_is_fresh() {
    assert_fresh(
        "campaign_output.txt",
        &read("campaign_output.txt"),
        &bench::reports::campaign_report(),
        "cargo run --release -p bench --bin campaign > campaign_output.txt",
    );
}

#[test]
fn tables_output_is_fresh() {
    assert_fresh(
        "tables_output.txt",
        &read("tables_output.txt"),
        &bench::reports::tables_report().expect("tables render"),
        "cargo run --release -p bench --bin tables > tables_output.txt",
    );
}

#[test]
fn figures_output_is_fresh() {
    assert_fresh(
        "figures_output.txt",
        &read("figures_output.txt"),
        &bench::reports::figures_report(),
        "cargo run --release -p bench --bin figures > figures_output.txt",
    );
}

#[test]
fn forensics_output_is_fresh() {
    assert_fresh(
        "forensics_output.txt",
        &read("forensics_output.txt"),
        &bench::reports::forensics_report(),
        "cargo run --release -p bench --bin forensics",
    );
}

/// The forensics counters are a pure function of the seed, so the
/// artifact gets the full byte-for-byte golden treatment.
#[test]
fn forensics_bench_artifact_is_fresh() {
    assert_fresh(
        "BENCH_forensics.json",
        &read("BENCH_forensics.json"),
        &bench::reports::forensics_machine_json(),
        "cargo run --release -p bench --bin forensics",
    );
}

/// Like the forensics counters, the gray-failure report is a pure
/// function of the seed: byte-for-byte golden.
#[test]
fn gray_bench_artifact_is_fresh() {
    assert_fresh(
        "BENCH_gray.json",
        &read("BENCH_gray.json"),
        &bench::reports::gray_machine_json(),
        "cargo run --release -p bench --bin gray",
    );
}

/// Every violation the campaign detects at seed 8 must be explained by a
/// forensics timeline: same scenario set, same verdict count.
#[test]
fn forensics_explains_every_campaign_violation() {
    let text = read("forensics_output.txt");
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

/// The workload bench runs a million-op ladder, too heavy to regenerate
/// inside a debug test — but its *shape* must track the registry: every
/// load-driven scenario present with both arms' verdicts, the op and
/// latency keys the README points at, and a clean determinism verdict on
/// the sharded open-loop ladder.
#[test]
fn workload_bench_artifact_matches_the_registry_shape() {
    let json = read("BENCH_workload.json");
    let expect = |needle: String| {
        assert!(
            json.contains(&needle),
            "BENCH_workload.json lacks `{needle}`; refresh with \
             `cargo run --release -p bench --bin workload_bench`"
        );
    };
    let load: Vec<_> = scenarios_of(ScenarioClass::Load).collect();
    assert!(load.len() >= 5, "only {} load scenarios registered", load.len());
    expect(format!("\"load_scenarios\": {}", load.len()));
    for s in &load {
        expect(format!("\"{}\"", s.name));
    }
    for key in [
        "\"bench\": \"workload\"",
        "\"seed\": 8",
        "\"ops\": 1000000",
        "\"shards\": 8",
        "\"byte_identical\": true",
        "\"p50\": ",
        "\"p99\": ",
        "\"p999\": ",
        "\"load_samples\": ",
        "\"issued=",
    ] {
        expect(key.to_string());
    }
    assert!(
        !json.contains("\"byte_identical\": false"),
        "the sharded ladder diverged across jobs rungs — that is a determinism bug"
    );
}

/// The exploration bench is seed-pure virtual time end to end — strategy
/// comparison, sharded merge, and minimized-regression replays — so the
/// artifact gets the full byte-for-byte golden treatment.
#[test]
fn explore_bench_artifact_is_fresh() {
    assert_fresh(
        "BENCH_explore.json",
        &read("BENCH_explore.json"),
        &bench::reports::explore_machine_json(),
        "cargo run --release -p bench --bin explore_bench",
    );
}

/// The lint-scan counters are a pure function of the committed source
/// tree (no wall-clock numbers), so the artifact gets the full
/// byte-for-byte golden treatment: any rule, resolver, or annotation
/// change shows up as a counter diff here.
#[test]
fn lint_bench_artifact_is_fresh() {
    assert_fresh(
        "BENCH_lint.json",
        &read("BENCH_lint.json"),
        &bench::reports::lint_machine_json(),
        "cargo run --release -p bench --bin lint_bench",
    );
}

/// Guard the guard, both ways: the gated artifacts are committed, and no
/// root file shaped like an artifact is missing from the list — each entry
/// has a test above, except `BENCH_perf.json`, which `tests/perf_gate.rs`
/// compares (regenerating it needs the counting allocator), and
/// `verdicts.txt`, which `tests/audit_gate.rs` compares against the runs
/// it already makes.
#[test]
fn all_golden_artifacts_exist() {
    let listed = [
        "BENCH_explore.json",
        "BENCH_forensics.json",
        "BENCH_gray.json",
        "BENCH_lint.json",
        "BENCH_perf.json",
        "BENCH_workload.json",
        "campaign_output.txt",
        "figures_output.txt",
        "forensics_output.txt",
        "tables_output.txt",
        "verdicts.txt",
    ];
    let mut committed: Vec<String> = std::fs::read_dir(root())
        .expect("read the repository root")
        .map(|entry| entry.expect("read a root entry").file_name().to_string_lossy().into_owned())
        .filter(|name| {
            (name.starts_with("BENCH_") && name.ends_with(".json"))
                || name.ends_with("_output.txt")
                || name == "verdicts.txt"
        })
        .collect();
    committed.sort();
    assert_eq!(committed, listed, "root artifacts vs the gated list");
}
