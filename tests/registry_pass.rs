//! Tier-1 gate: the arm literals the root tests repeat name registered
//! scenarios. `src/campaign.rs` is the single source of truth for
//! scenario and arm ids; `bench::reports::unregistered_arm_literals`
//! lexes every `"…/flawed"` / `"…/fixed"` literal in `tests/*.rs` with
//! `lint::lex` and reports the ones it does not register. The other names
//! the campaign repeats, Table 15's and `catalog_coverage`'s, are checked
//! by `tests/campaign.rs::catalog_coverage_references_are_real`.

use std::path::{Path, PathBuf};

use bench::reports::unregistered_arm_literals;

fn real_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
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

/// Every arm literal in the real root `tests/` names a registered
/// scenario.
#[test]
fn real_registry_is_consistent() {
    let findings = unregistered_arm_literals(&real_root());
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

#[test]
fn untampered_copy_passes_clean() {
    // The check reads nothing under the root but tests/*.rs, so a copy of
    // the real tests tree alone must come out clean too.
    let root = scratch_root("registry_clean");
    let mut copied = 0;
    for entry in std::fs::read_dir(real_root().join("tests")).expect("read tests/") {
        let path = entry.expect("read a tests/ entry").path();
        if path.extension().is_some_and(|x| x == "rs") {
            let name = path.file_name().expect("a file name");
            std::fs::copy(&path, root.join("tests").join(name)).expect("copy a test file");
            copied += 1;
        }
    }
    assert!(copied > 10, "only {copied} test files copied");
    let findings = unregistered_arm_literals(&root);
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

#[test]
fn ghost_arm_literal_in_tests_fails() {
    let root = scratch_root("registry_ghost_arm");
    std::fs::copy(
        real_root().join("tests/fixtures/registry/bogus_arm.rs"),
        root.join("tests/bogus_arm.rs"),
    )
    .expect("copy fixture");
    assert_eq!(
        unregistered_arm_literals(&root),
        ["tests/bogus_arm.rs: line 9: arm literal `ghost_scenario/flawed` names unregistered \
          scenario `ghost_scenario`"]
    );
    // Real arm literals pass: the same file with a registered scenario
    // name produces no finding.
    let root = scratch_root("registry_real_arm");
    std::fs::write(
        root.join("tests/real_arm.rs"),
        "#[test]\nfn drives_a_real_arm() {\n    let _arm = \"dirty_and_stale_read/flawed\";\n}\n",
    )
    .expect("write test file");
    let findings = unregistered_arm_literals(&root);
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
