//! Shared helpers for the table, figure and artifact regenerators.
//!
//! The binaries:
//!
//! - `cargo run -p bench --bin tables` — Tables 1–13 plus the headline
//!   findings, paper value vs recomputed value.
//! - `cargo run -p bench --bin figures` — Figures 1, 2, 3, 5, 6 and the
//!   Finding-13 exploration experiment, with manifestation traces.
//! - `cargo run -p bench --bin campaign` — the §6.4 campaign and Table 15.
//! - `cargo run -p bench --bin export` — the failure catalog as JSON (the
//!   paper's released data set).
//! - `forensics`, `gray`, `workload_bench`, `explore_bench`, `lint_bench`
//!   and `perf` — one committed `BENCH_*.json` each, through
//!   [`emit_artifacts`].
//!
//! The binaries are thin wrappers over [`reports`] and [`perf_bench`] so
//! the golden-file tests (`tests/golden_outputs.rs` and
//! `tests/perf_gate.rs` at the workspace root) can regenerate the
//! committed artifacts and diff them without spawning processes. Every
//! artifact is a pure function of the tree: nothing here reads a clock,
//! and wall-clock numbers are published by `benchmarks/` only.

pub mod perf_bench;
pub mod reports;

/// Renders a horizontal bar for quick shape comparison in terminal output.
pub fn bar(pct: f64) -> String {
    let n = (pct / 2.0).round().clamp(0.0, 50.0) as usize;
    "#".repeat(n)
}

/// The shared body of the artifact binaries, given each artifact's file
/// name and regenerated content. With `--print` among the process
/// arguments nothing is written and `Ok` is the first artifact's content;
/// otherwise every artifact is written at the repository root and `Ok` is
/// one `wrote <path>` line per file. Either way `Ok` is the binary's
/// stdout and `Err` the diagnostic for its stderr.
pub fn emit_artifacts(artifacts: &[(&str, String)]) -> Result<String, String> {
    if std::env::args().skip(1).any(|a| a == "--print") {
        return Ok(artifacts.first().map(|(_, content)| content.clone()).unwrap_or_default());
    }
    let mut wrote = String::new();
    for (name, content) in artifacts {
        // The manifest dir is crates/bench; the artifacts live at the root.
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, content).map_err(|e| format!("cannot write {path}: {e}"))?;
        wrote.push_str(&format!("wrote {path}\n"));
    }
    Ok(wrote)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(0.0), "");
        assert_eq!(bar(100.0).len(), 50);
        assert_eq!(bar(10.0).len(), 5);
    }
}
