//! The rule families against the committed fixtures, each scanned as if
//! it lived inside a strict simulation crate. Every assertion is exact on
//! rules and lines, so the scanner's behaviour on each fixture is pinned.

use lint::{analyze_source, scan_source, Finding, Rule};

const STRICT: &str = "crates/repkv/src/fixture.rs";

fn rules(findings: &[Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn aliased_import_is_caught_at_its_use_sites() {
    let src = include_str!("fixtures/aliased_import.rs");
    let v2 = scan_source(STRICT, src);
    assert_eq!(rules(&v2), vec![Rule::HashIteration, Rule::HashIteration]);
    // The findings sit on the alias use-sites, not the import.
    assert_eq!(
        v2.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![7, 8],
        "{v2:?}"
    );
    assert!(v2[0].message.contains("resolves to"), "{}", v2[0].message);
}

#[test]
fn aliased_wall_clock_is_caught_through_the_alias() {
    let src = include_str!("fixtures/qualified_path.rs");
    let v2 = scan_source(STRICT, src);
    assert_eq!(
        rules(&v2),
        vec![Rule::WallClock, Rule::WallClock, Rule::HashIteration]
    );
}

#[test]
fn env_read_fires_on_module_import_and_call() {
    let src = include_str!("fixtures/env_read.rs");
    let v2 = scan_source(STRICT, src);
    assert_eq!(rules(&v2), vec![Rule::EnvRead, Rule::EnvRead]);
    // But not in a non-simulation crate, and not in a bin target.
    assert!(scan_source("crates/study/src/fixture.rs", src).is_empty());
    assert!(scan_source("crates/repkv/src/main.rs", src).is_empty());
}

#[test]
fn io_in_sim_fires_on_aliased_and_qualified_fs() {
    let src = include_str!("fixtures/io_in_sim.rs");
    let v2 = scan_source(STRICT, src);
    assert_eq!(rules(&v2), vec![Rule::IoInSim; 4], "{v2:?}");
    assert!(scan_source("crates/bench/src/fixture.rs", src).is_empty());
}

#[test]
fn float_nondet_fires_on_the_field_only() {
    let src = include_str!("fixtures/float_nondet.rs");
    let v2 = scan_source(STRICT, src);
    assert_eq!(rules(&v2), vec![Rule::FloatNondet]);
    assert_eq!(v2[0].line, 7, "{v2:?}");
}

#[test]
fn debug_hash_leak_is_caught_on_the_derived_type() {
    let src = include_str!("fixtures/debug_hash_leak.rs");
    let v2 = scan_source(STRICT, src);
    assert_eq!(rules(&v2), vec![Rule::DebugHashLeak]);
    assert!(
        v2[0].message.contains("fingerprint"),
        "{}",
        v2[0].message
    );
}

#[test]
fn fixture_allows_all_suppress_something() {
    // Every lint:allow in the fixtures is load-bearing; none may rot
    // into an unused site.
    for src in [
        include_str!("fixtures/aliased_import.rs"),
        include_str!("fixtures/qualified_path.rs"),
        include_str!("fixtures/debug_hash_leak.rs"),
    ] {
        let report = analyze_source(STRICT, src);
        assert!(report.unused_allows.is_empty(), "{:?}", report.unused_allows);
    }
}

#[test]
fn multi_rule_allows_cover_each_listed_rule() {
    let src = "use std::collections::HashMap; // lint:allow(hash-iteration)\n\
               #[derive(Debug)]\n\
               struct S { m: HashMap<u8, u8> } // lint:allow(hash-iteration, debug-hash-leak)\n";
    let report = analyze_source(STRICT, src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.unused_allows.is_empty(), "{:?}", report.unused_allows);
}

#[test]
fn allow_on_the_final_line_without_trailing_newline_counts() {
    let src = "fn f() { x.unwrap() } // lint:allow(unwrap-expect)";
    let report = analyze_source(STRICT, src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert!(report.unused_allows.is_empty());
}
