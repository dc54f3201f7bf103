//! The registry-consistency pass: clean against the real checkout,
//! failing against a doctored copy of the golden artifacts.

use std::path::{Path, PathBuf};

use lint::check_registry;

const ARTIFACTS: &[&str] = &[
    "campaign_output.txt",
    "forensics_output.txt",
    "BENCH_forensics.json",
    "BENCH_gray.json",
    "BENCH_perf.json",
    "BENCH_workload.json",
    "BENCH_explore.json",
];

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Copies the real artifacts into a scratch root the test can tamper
/// with, plus an empty `tests/` dir for arm-literal fixtures.
fn scratch_root(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch root");
    }
    std::fs::create_dir_all(dir.join("tests")).expect("create scratch root");
    for artifact in ARTIFACTS {
        std::fs::copy(real_root().join(artifact), dir.join(artifact)).expect(artifact);
    }
    dir
}

fn messages(report: &lint::RegistryReport) -> String {
    report
        .findings
        .iter()
        .map(|f| format!("{f}\n"))
        .collect::<String>()
}

#[test]
fn real_registry_is_consistent() {
    let report = check_registry(&real_root());
    assert_eq!(report.scenarios, 47);
    assert_eq!(report.arms, 93);
    assert!(report.findings.is_empty(), "{}", messages(&report));
}

#[test]
fn untampered_copy_passes_clean() {
    // The pass only reads `ARTIFACTS` plus tests/*.rs, so a
    // faithful copy must come out clean too.
    let root = scratch_root("registry_clean");
    let report = check_registry(&root);
    assert!(report.findings.is_empty(), "{}", messages(&report));
}

#[test]
fn injected_forensics_block_for_unregistered_scenario_fails() {
    let root = scratch_root("registry_ghost_block");
    let path = root.join("forensics_output.txt");
    let mut text = std::fs::read_to_string(&path).expect("read copy");
    text.push_str("\n== ghost_scenario — GhostSys (#999) ==\n   verdict: 0 violation(s)\n");
    std::fs::write(&path, text).expect("write tampered copy");

    let report = check_registry(&root);
    let msgs = messages(&report);
    assert!(
        msgs.contains("forensics block `ghost_scenario` names an unregistered scenario"),
        "{msgs}"
    );
}

#[test]
fn renamed_scenario_fails_in_both_directions() {
    // Renaming one block is what a stale artifact looks like after a
    // scenario rename in src/campaign.rs: the old name is unregistered
    // AND the new name has no block.
    let root = scratch_root("registry_renamed");
    let path = root.join("forensics_output.txt");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace(
        "== dirty_and_stale_read — ",
        "== dirty_and_stale_read_v2 — ",
    );
    assert_ne!(text, tampered, "expected block header not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains("registered scenario `dirty_and_stale_read` has no forensics block"),
        "{msgs}"
    );
    assert!(
        msgs.contains("forensics block `dirty_and_stale_read_v2` names an unregistered scenario"),
        "{msgs}"
    );
}

#[test]
fn stale_arm_counter_fails() {
    let root = scratch_root("registry_stale_arms");
    let path = root.join("BENCH_perf.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace("\"arms\": 93", "\"arms\": 92");
    assert_ne!(text, tampered, "expected arms counter not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains("BENCH_perf.json: records 92 arms; the registry has 93"),
        "{msgs}"
    );
}

#[test]
fn dropped_workload_scenario_fails() {
    // Deleting one per_scenario row models a stale artifact after a new
    // load scenario was registered.
    let root = scratch_root("registry_workload_dropped");
    let path = root.join("BENCH_workload.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace("load_hot_key_partition", "load_hot_key_partition_v2");
    assert_ne!(text, tampered, "expected workload scenario not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains(
            "registered load scenario `load_hot_key_partition` missing from per_scenario"
        ),
        "{msgs}"
    );
    assert!(
        msgs.contains(
            "per_scenario entry `load_hot_key_partition_v2` is not a registered load scenario"
        ),
        "{msgs}"
    );
}

#[test]
fn zeroed_workload_ops_counter_fails() {
    let root = scratch_root("registry_workload_zeroed");
    let path = root.join("BENCH_workload.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    // Zero the first per-scenario ops counter (the ladder's much larger
    // total is untouched by this replacement).
    let needle = "\"ops\": ";
    let at = text.find(needle).expect("an ops counter");
    let end = at + needle.len() + text[at + needle.len()..]
        .find(',')
        .expect("ops value terminator");
    let tampered = format!("{}{needle}0{}", &text[..at], &text[end..]);
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(msgs.contains("drove zero operations"), "{msgs}");
}

#[test]
fn broken_ladder_determinism_verdict_fails() {
    let root = scratch_root("registry_workload_ladder");
    let path = root.join("BENCH_workload.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace("\"byte_identical\": true", "\"byte_identical\": false");
    assert_ne!(text, tampered, "expected ladder verdict not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains("the sharded open-loop ladder no longer merges byte-identically"),
        "{msgs}"
    );
}

#[test]
fn renamed_explored_scenario_fails_in_both_directions() {
    let root = scratch_root("registry_explore_renamed");
    let path = root.join("BENCH_explore.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace(
        "explored_simplex_heal_write",
        "explored_simplex_heal_write_v2",
    );
    assert_ne!(text, tampered, "expected explored scenario not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains(
            "registered explored scenario `explored_simplex_heal_write` missing from minimized"
        ),
        "{msgs}"
    );
    assert!(
        msgs.contains(
            "minimized entry `explored_simplex_heal_write_v2` is not a registered explored scenario"
        ),
        "{msgs}"
    );
}

#[test]
fn broken_one_minimality_verdict_fails() {
    let root = scratch_root("registry_explore_minimality");
    let path = root.join("BENCH_explore.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace("\"one_minimal\": true", "\"one_minimal\": false");
    assert_ne!(text, tampered, "expected one_minimal verdicts not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(msgs.contains("is not 1-minimal"), "{msgs}");
}

#[test]
fn fallen_coverage_verdict_fails() {
    let root = scratch_root("registry_explore_coverage");
    let path = root.join("BENCH_explore.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace(
        "\"coverage_strictly_better_targets\": 2",
        "\"coverage_strictly_better_targets\": 1",
    );
    assert_ne!(text, tampered, "expected coverage verdict not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains("coverage-guided search beats naive on only 1 targets"),
        "{msgs}"
    );
}

#[test]
fn broken_sharded_exploration_verdict_fails() {
    let root = scratch_root("registry_explore_sharded");
    let path = root.join("BENCH_explore.json");
    let text = std::fs::read_to_string(&path).expect("read copy");
    let tampered = text.replace("\"byte_identical\": true", "\"byte_identical\": false");
    assert_ne!(text, tampered, "expected sharded verdict not found");
    std::fs::write(&path, tampered).expect("write tampered copy");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains("the sharded exploration no longer merges byte-identically"),
        "{msgs}"
    );
}

#[test]
fn ghost_arm_literal_in_tests_fails() {
    let root = scratch_root("registry_ghost_arm");
    std::fs::copy(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry/bogus_arm.rs"),
        root.join("tests/bogus_arm.rs"),
    )
    .expect("copy fixture");

    let msgs = messages(&check_registry(&root));
    assert!(
        msgs.contains(
            "arm literal `ghost_scenario/flawed` names unregistered scenario `ghost_scenario`"
        ),
        "{msgs}"
    );
    // Real arm literals pass: the same file with a registered scenario
    // name produces no finding.
    let root = scratch_root("registry_real_arm");
    std::fs::write(
        root.join("tests/real_arm.rs"),
        "#[test]\nfn drives_a_real_arm() {\n    let _arm = \"dirty_and_stale_read/flawed\";\n}\n",
    )
    .expect("write test file");
    let report = check_registry(&root);
    assert!(report.findings.is_empty(), "{}", messages(&report));
}

#[test]
fn missing_artifact_is_reported_not_panicked() {
    let root = scratch_root("registry_missing");
    std::fs::remove_file(root.join("BENCH_gray.json")).expect("remove artifact");
    let msgs = messages(&check_registry(&root));
    assert!(msgs.contains("BENCH_gray.json: cannot read artifact"), "{msgs}");
}
