//! The registry-consistency pass: clean against the real checkout,
//! failing on an arm literal that names an unregistered scenario, in the
//! library and through every scan mode of the CLI.

use std::path::{Path, PathBuf};
use std::process::Command;

use lint::check_registry;

fn real_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// An empty scratch root with a `tests/` dir for arm-literal fixtures.
fn scratch_root(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch root");
    }
    std::fs::create_dir_all(dir.join("tests")).expect("create scratch root");
    dir
}

/// A scratch root whose `tests/` holds the ghost-arm fixture.
fn ghost_root(name: &str) -> PathBuf {
    let root = scratch_root(name);
    std::fs::copy(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/registry/bogus_arm.rs"),
        root.join("tests/bogus_arm.rs"),
    )
    .expect("copy fixture");
    root
}

fn messages(report: &lint::RegistryReport) -> String {
    report
        .findings
        .iter()
        .map(|f| format!("{f}\n"))
        .collect::<String>()
}

/// The scenario/arm registry in `src/campaign.rs` must agree with the
/// Table 15 mappings and the arm literals in the root `tests/` tree.
#[test]
fn real_registry_is_consistent() {
    let report = check_registry(&real_root());
    assert_eq!(report.scenarios, 47);
    assert_eq!(report.arms, 93);
    assert!(report.findings.is_empty(), "{}", messages(&report));
}

#[test]
fn untampered_copy_passes_clean() {
    // The pass reads nothing under the root but tests/*.rs, so a copy of
    // the real tests tree alone must come out clean too.
    let root = scratch_root("registry_clean");
    for entry in std::fs::read_dir(real_root().join("tests")).expect("read tests/") {
        let path = entry.expect("read a tests/ entry").path();
        if path.extension().is_some_and(|x| x == "rs") {
            let name = path.file_name().expect("a file name");
            std::fs::copy(&path, root.join("tests").join(name)).expect("copy a test file");
        }
    }
    let report = check_registry(&root);
    assert!(report.findings.is_empty(), "{}", messages(&report));
}

#[test]
fn ghost_arm_literal_in_tests_fails() {
    let msgs = messages(&check_registry(&ghost_root("registry_ghost_arm")));
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
fn json_mode_fails_on_a_ghost_arm_literal_and_keeps_stdout_json() {
    let root = ghost_root("registry_ghost_arm_json");
    let out = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--json")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("ghost_scenario/flawed"), "{stderr}");
    let doc = study::json::parse(&stdout).expect("stdout is one JSON document");
    assert!(doc.as_array().is_some(), "{stdout}");
}
