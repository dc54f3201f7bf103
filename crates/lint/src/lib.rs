//! Determinism guard for the workspace.
//!
//! The whole reproduction rests on one property: *same seed ⇒ same
//! execution*. Every scenario, every checker verdict, every regenerated
//! table must be a pure function of the seed, or the campaign results and
//! the trace-divergence auditor are meaningless. This crate enforces that
//! property twice over:
//!
//! - **Statically** ([`scan`]): every `.rs` file is run through a real
//!   lexer ([`lex`]), its imports resolved per file ([`resolve`]) so
//!   `use std::collections::HashMap as Map;` no longer smuggles a hash
//!   map past the rules, and the token stream checked against eleven
//!   determinism rules — hash-order iteration in the protocol/simulation
//!   crates, wall clocks, OS entropy, OS threads, `unsafe`, panicking
//!   `.unwrap()`/`.expect()` in non-test simulator code, `println!` in
//!   library code, environment reads, filesystem/network I/O in
//!   simulator crates, float fields in protocol state, and
//!   `derive(Debug)` structs that leak hash-ordered maps into
//!   fingerprints. `// lint:allow(<rule>[, <rule>…])` is the escape
//!   hatch for audited exceptions; `--unused-allows` reports directives
//!   that no longer suppress anything.
//! - **Registry consistency** ([`registry`]): the scenario names that
//!   Table 15, the catalog coverage map and the arm literals in the
//!   workspace tests repeat are cross-checked against the registry in
//!   `src/campaign.rs`, so a renamed or unregistered scenario fails
//!   `lint` instead of silently decaying.
//! - **Dynamically** (`cargo run -p lint -- --audit`): every scenario in
//!   [`neat_repro::campaign::registry`] is run twice with the same seed
//!   and the rendered execution fingerprints are compared byte for byte
//!   via [`neat::audit`]. Any divergence is a determinism bug the static
//!   pass missed.
//!
//! The same rules are mirrored into the toolchain via `clippy.toml`
//! (`disallowed-types` / `disallowed-methods`) and `[workspace.lints]`,
//! so `cargo clippy` reports them too; this pass exists so the gate does
//! not depend on clippy being present and so the rules run as an
//! ordinary tier-1 integration test (`tests/lint_gate.rs`).

pub mod lex;
pub mod registry;
pub mod resolve;
pub mod scan;

pub use registry::{check_registry, RegistryFinding, RegistryReport};
pub use scan::{
    analyze_source, analyze_workspace, findings_to_json, scan_source, scan_workspace, FileReport,
    Finding, Rule, ScanStats, UnusedAllow, WorkspaceReport,
};

/// The stdout of `lint --audit` at `seed`: one `audit <arm>: ok <hash>`
/// line per arm that double-ran identically, then the summary line. The
/// committed `audit_hashes.txt` is this at seeds 8 and 42. Divergent arms
/// are left out; the CLI reports them on stderr.
pub fn audit_text(seed: u64, outcomes: &[neat::audit::AuditOutcome]) -> String {
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
