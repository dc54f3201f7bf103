//! Tier-1 gate: the workspace must stay clean under the determinism
//! rules enforced by `crates/lint` (see DESIGN.md). This is the same
//! scan `cargo run -p lint` performs, wired into `cargo test` so a
//! violation fails CI even when nobody runs the binary.

use std::path::Path;

use lint::{scan_source, scan_workspace, Rule};

#[test]
fn workspace_is_clean_under_determinism_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let findings = scan_workspace(root).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "determinism violations (fix or annotate with `// lint:allow(<rule>)`):\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every `lint:allow` in the workspace must still suppress at least one
/// finding — stale directives are silent holes in the gate and get
/// deleted, not accumulated (`cargo run -p lint -- --unused-allows`).
#[test]
fn workspace_has_no_unused_allows() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint::analyze_workspace(root).expect("scan workspace");
    assert!(
        report.unused_allows.is_empty(),
        "stale lint:allow directives (delete them):\n{}",
        report
            .unused_allows
            .iter()
            .map(|u| u.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // And there are real, audited exceptions — the gate is exercising
    // the allow machinery, not running on an annotation-free tree.
    assert!(report.stats.allow_sites > 0);
    assert_eq!(report.stats.allow_sites, report.stats.allows_used);
    // Two rules have no audited exception at all: `benchmarks/` is the
    // only place this repository reads a clock, and only bin targets
    // print, so no non-test source in the workspace can observe real time.
    for rule in [Rule::WallClock, Rule::PrintlnInLib] {
        let allows = report.stats.per_rule.iter().find(|(r, _, _)| *r == rule).map(|row| row.2);
        assert_eq!(allows, Some(0), "lint:allow({rule}) sites in the workspace");
    }
}

/// The scenario/arm registry in `src/campaign.rs` has the shape the
/// committed `BENCH_lint.json` records: its `registry` block holds the
/// scenario and arm counts and no unregistered arm literal (the check
/// `tests/registry_pass.rs` runs), and the anchor arm the tests drive —
/// `"dirty_and_stale_read/flawed"`, itself one of the literals checked —
/// is registered.
#[test]
fn registry_is_consistent_with_golden_artifacts() {
    use neat_repro::campaign::{arm_ids, registry};

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let committed =
        std::fs::read_to_string(root.join("BENCH_lint.json")).expect("read BENCH_lint.json");
    let doc = study::json::parse(&committed).expect("BENCH_lint.json parses");
    let block = doc.get("registry").expect("BENCH_lint.json has a registry block");
    let count = |key: &str| block.get(key).and_then(|v| v.as_u64());
    assert_eq!((registry().len(), arm_ids().len()), (47, 93));
    assert_eq!(count("scenarios"), Some(47));
    assert_eq!(count("arms"), Some(93));
    assert_eq!(count("findings"), Some(0));
    assert!(
        arm_ids().iter().any(|a| a.name == "dirty_and_stale_read/flawed"),
        "the registry lost its anchor scenario"
    );
}

/// `--json` output must round-trip through `study::json`: parse the
/// rendered findings, re-render, and land on the same value.
#[test]
fn json_findings_round_trip_through_study_json() {
    let src = "\
use std::collections::HashMap;

fn bad() -> HashMap<u64, u64> {
    let t = std::time::Instant::now();
    HashMap::new()
}
";
    let findings = scan_source("crates/repkv/src/fake.rs", src);
    assert!(!findings.is_empty());
    let json = lint::findings_to_json(&findings);
    let doc = study::json::parse(&json).expect("lint --json output must parse");
    let rows = doc.as_array().expect("findings are an array");
    assert_eq!(rows.len(), findings.len());
    for (row, f) in rows.iter().zip(&findings) {
        assert_eq!(row.get("path").and_then(|v| v.as_str()), Some(f.path.as_str()));
        assert_eq!(row.get("line").and_then(|v| v.as_u64()), Some(f.line as u64));
        assert_eq!(row.get("rule").and_then(|v| v.as_str()), Some(f.rule.name()));
    }
    // Byte-level round trip: parse(render(parse(x))) == parse(x).
    let re_rendered = doc.to_json();
    let re_parsed = study::json::parse(&re_rendered).expect("re-rendered JSON must parse");
    assert_eq!(format!("{doc:?}"), format!("{re_parsed:?}"));
}

#[test]
fn seeded_violations_are_caught_with_rule_and_line() {
    let src = "\
use std::collections::HashMap;

fn bad(seed: u64) -> u64 {
    let m: HashMap<u64, u64> = HashMap::new();
    let t = std::time::Instant::now();
    let mut rng = rand::thread_rng();
    m.get(&seed).copied().unwrap()
}
";
    let findings = scan_source("crates/repkv/src/fake.rs", src);
    let hit = |rule: Rule, line: usize| {
        assert!(
            findings.iter().any(|f| f.rule == rule && f.line == line),
            "expected {rule} at line {line}, got:\n{findings:#?}"
        );
    };
    hit(Rule::HashIteration, 1);
    hit(Rule::HashIteration, 4);
    hit(Rule::WallClock, 5);
    hit(Rule::OsEntropy, 6);
    hit(Rule::UnwrapExpect, 7);
}

/// The fleet pool is the one audited place that starts OS threads. Three
/// properties keep that boundary honest: the real source carries the
/// audit annotations, the scanner genuinely sees the spawns once the
/// annotations are stripped, and the same annotated source would still be
/// rejected under any simulation-crate path.
#[test]
fn fleet_thread_spawn_sites_are_audited_and_fleet_only() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pool = std::fs::read_to_string(root.join("crates/fleet/src/pool.rs"))
        .expect("read crates/fleet/src/pool.rs");
    assert!(
        pool.contains("lint:allow(thread-spawn)"),
        "the fleet pool lost its audit annotations"
    );

    let stripped = pool.replace("lint:allow(thread-spawn)", "lint:allow(removed)");
    let findings = scan_source("crates/fleet/src/pool.rs", &stripped);
    assert!(
        findings.iter().any(|f| f.rule == Rule::ThreadSpawn),
        "scanner no longer sees the fleet's thread spawns:\n{findings:#?}"
    );

    let smuggled = scan_source("crates/repkv/src/pool.rs", &pool);
    assert!(
        smuggled.iter().any(|f| f.rule == Rule::ThreadSpawn),
        "a simulation crate accepted thread-spawn allows — the escape \
         hatch must be fleet-only:\n{smuggled:#?}"
    );
}

/// Library crates must emit through the obs layer or returned strings;
/// stdout belongs to bin targets. The rule's escape hatch works outside
/// the simulation crates only.
#[test]
fn println_stays_out_of_library_code() {
    let src = "fn f() { println!(\"leak\"); }\n";
    for lib in [
        "crates/simnet/src/world.rs",
        "crates/neat/src/engine.rs",
        "crates/obs/src/recorder.rs",
        "src/campaign.rs",
    ] {
        let findings = scan_source(lib, src);
        assert!(
            findings.iter().any(|f| f.rule == Rule::PrintlnInLib),
            "println in {lib} must fire println-in-lib:\n{findings:#?}"
        );
    }
    // Bin targets own stdout.
    assert!(scan_source("crates/bench/src/bin/forensics.rs", src).is_empty());

    let allowed = "\
fn report() {
    // lint:allow(println-in-lib) -- audited: this harness's whole job is stdout
    println!(\"bench: done\");
}
";
    assert!(scan_source("crates/study/src/lib.rs", allowed).is_empty());
    let smuggled = scan_source("crates/repkv/src/lib.rs", allowed);
    assert!(
        smuggled.iter().any(|f| f.rule == Rule::PrintlnInLib),
        "a simulation crate accepted println-in-lib allows — the escape \
         hatch must stay outside the simulation crates:\n{smuggled:#?}"
    );
}

#[test]
fn allow_directives_suppress_findings() {
    let src = "\
fn timed() {
    // lint:allow(wall-clock) -- bench harness measures real time
    let t = std::time::Instant::now();
}
";
    let findings = scan_source("crates/repkv/src/fake.rs", src);
    assert!(findings.is_empty(), "allow directive ignored:\n{findings:#?}");
}
