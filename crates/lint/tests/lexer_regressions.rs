//! The literal-handling cases that motivated the lexer rewrite, pinned
//! against the committed fixtures.

use lint::{scan_source, Rule};

/// Fixtures are scanned as if they lived in a strict simulation crate.
const STRICT: &str = "crates/simnet/src/fixture.rs";

fn rules(findings: &[lint::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn unwrap_after_a_backslash_char_literal_is_seen_and_raw_unsafe_is_not() {
    // The `.unwrap()` after `'\\'` is found; the raw identifier
    // `r#unsafe` is not the `unsafe` keyword.
    let src = include_str!("fixtures/v1_literal_bug.rs");
    let v2 = scan_source(STRICT, src);
    assert_eq!(rules(&v2), vec![Rule::UnwrapExpect], "{v2:?}");
}

#[test]
fn lexer_tracks_lines_through_every_fixture() {
    // Every fixture must lex cleanly with monotonically non-decreasing
    // line numbers that stay within the file.
    for src in [
        include_str!("fixtures/aliased_import.rs"),
        include_str!("fixtures/qualified_path.rs"),
        include_str!("fixtures/env_read.rs"),
        include_str!("fixtures/io_in_sim.rs"),
        include_str!("fixtures/float_nondet.rs"),
        include_str!("fixtures/debug_hash_leak.rs"),
        include_str!("fixtures/v1_literal_bug.rs"),
    ] {
        let toks = lint::lex::lex(src);
        assert!(!toks.is_empty());
        let total_lines = src.lines().count();
        let mut prev = 1;
        for t in &toks {
            assert!(t.line >= prev, "line numbers went backwards");
            assert!(t.line <= total_lines, "line {} > {total_lines}", t.line);
            prev = t.line;
        }
    }
}

#[test]
fn nested_block_comments_and_raw_strings_hide_findings() {
    // Both of these defeated naive stripping at some point; the lexer
    // must treat their contents as inert.
    let src = "/* outer /* x.unwrap() */ still comment */\n\
               fn f() -> &'static str { r#\"std::env::var(\"X\")\"# }\n";
    assert!(scan_source(STRICT, src).is_empty());
}
