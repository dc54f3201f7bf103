//! Determinism guard for the workspace.
//!
//! The whole reproduction rests on one property: *same seed ⇒ same
//! execution*. Every scenario, every checker verdict, every regenerated
//! table must be a pure function of the seed, or the campaign results and
//! the trace-divergence auditor are meaningless. This crate enforces that
//! property statically, and links no simulation crate to do it:
//!
//! [`scan`] runs every `.rs` file through a real lexer ([`lex`]),
//! resolves its imports per file ([`resolve`]) so
//! `use std::collections::HashMap as Map;` no longer smuggles a hash map
//! past the rules, and checks the token stream against eleven determinism
//! rules — hash-order iteration in the protocol/simulation crates, wall
//! clocks, OS entropy, OS threads, `unsafe`, panicking
//! `.unwrap()`/`.expect()` in non-test simulator code, `println!` in
//! library code, environment reads, filesystem/network I/O in simulator
//! crates, float fields in protocol state, and `derive(Debug)` structs
//! that leak hash-ordered maps into fingerprints.
//! `// lint:allow(<rule>[, <rule>…])` is the escape hatch for audited
//! exceptions; `--unused-allows` reports directives that no longer
//! suppress anything.
//!
//! The dynamic half of the guard is `cargo run -p fleet -- --audit`:
//! every campaign arm run twice with the same seed and the execution
//! fingerprints compared byte for byte. It lives with the campaign runner,
//! so a protocol edit rebuilds no part of this crate.
//!
//! The same rules are mirrored into the toolchain via `clippy.toml`
//! (`disallowed-types` / `disallowed-methods`) and `[workspace.lints]`,
//! so `cargo clippy` reports them too; this pass exists so the gate does
//! not depend on clippy being present and so the rules run as an
//! ordinary tier-1 integration test (`tests/lint_gate.rs`).

pub mod lex;
pub mod resolve;
pub mod scan;

pub use scan::{
    analyze_source, analyze_workspace, findings_to_json, scan_source, scan_workspace, FileReport,
    Finding, Rule, ScanStats, UnusedAllow, WorkspaceReport,
};
