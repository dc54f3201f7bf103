//! The paper-facing views and the committed golden artifacts.
//!
//! The binaries:
//!
//! - `cargo run -p bench --bin tables` — Tables 1–13 plus the headline
//!   findings, paper value vs recomputed value.
//! - `cargo run -p bench --bin figures` — Figures 1, 2, 3, 5, 6 and the
//!   Finding-13 exploration experiment, with manifestation traces.
//! - `cargo run -p bench --bin export` — the failure catalog as JSON (the
//!   paper's released data set).
//! - `cargo run -p bench --bin forensics` — the seed-8 forensics sweep as
//!   a JSONL stream.
//! - `cargo run -p bench --bin perf [-- --seed N]` — each arm's exact
//!   events, allocations and queue depth.
//! - `cargo run --release -p bench --bin artifacts` — rewrites every row
//!   of [`ARTIFACTS`] at the repository root; `-- --print <file>` prints
//!   one row to stdout instead.
//!
//! The §6.4 campaign and Table 15 are `cargo run -p fleet`; its default
//! output is the `campaign_output.txt` row.
//!
//! Every committed artifact is one row of [`ARTIFACTS`]: its file name and
//! the function in [`reports`] or [`perf_bench`] that regenerates its
//! bytes. `tests/golden_outputs.rs` checks every row with
//! [`Artifact::check`], so adding an artifact is adding a row. Every
//! artifact is a pure function of the tree: nothing here reads a clock,
//! and wall-clock numbers are published by `benchmarks/` only.

use std::path::{Path, PathBuf};

pub mod perf_bench;
pub mod reports;

/// Renders a horizontal bar for quick shape comparison in terminal output.
pub fn bar(pct: f64) -> String {
    let n = (pct / 2.0).round().clamp(0.0, 50.0) as usize;
    "#".repeat(n)
}

/// One committed golden artifact.
pub struct Artifact {
    /// The file name at the repository root.
    pub file: &'static str,
    /// Regenerates the file's exact bytes; `Err` is a diagnostic.
    pub render: fn() -> Result<String, String>,
}

/// Every committed golden artifact, one row each. `BENCH_perf.json` only
/// comes out right in a binary that installs
/// [`alloc_counter::CountingAlloc`].
pub const ARTIFACTS: &[Artifact] = &[
    Artifact { file: "campaign_output.txt", render: || Ok(reports::campaign_report()) },
    Artifact { file: "tables_output.txt", render: reports::tables_report },
    Artifact { file: "figures_output.txt", render: || Ok(reports::figures_report()) },
    Artifact { file: "forensics_output.txt", render: || Ok(reports::forensics_report()) },
    Artifact { file: "verdicts.txt", render: || Ok(reports::verdicts_report()) },
    Artifact { file: "audit_hashes.txt", render: || Ok(reports::audit_hashes_report()) },
    Artifact { file: "BENCH_explore.json", render: reports::explore_machine_json },
    Artifact { file: "BENCH_forensics.json", render: || Ok(reports::forensics_machine_json()) },
    Artifact { file: "BENCH_gray.json", render: || Ok(reports::gray_machine_json()) },
    Artifact { file: "BENCH_lint.json", render: || reports::lint_machine_json(&repo_root()) },
    Artifact { file: "BENCH_perf.json", render: || Ok(perf_bench::machine_json()) },
    Artifact {
        file: "BENCH_workload.json",
        render: || Ok(reports::workload_machine_json(reports::LADDER_OPS)),
    },
];

/// The repository root, where the artifacts live.
pub fn repo_root() -> PathBuf {
    // The manifest dir is crates/bench.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

impl Artifact {
    /// Compares the committed copy under `root` with freshly regenerated
    /// bytes. `Err` names the file and, through [`compare`], the first
    /// difference; a file that cannot be read is reported, not rendered.
    pub fn check(&self, root: &Path) -> Result<(), String> {
        let path = root.join(self.file);
        let committed = std::fs::read_to_string(&path)
            .map_err(|e| format!("{}: cannot read {}: {e}", self.file, path.display()))?;
        let regenerated = (self.render)().map_err(|e| format!("{}: {e}", self.file))?;
        compare(self.file, &committed, &regenerated)
    }
}

/// Checks the row for `file` against its committed copy at [`repo_root`].
/// `Err` is [`Artifact::check`]'s diagnostic plus the command that
/// refreshes the file.
pub fn check_fresh(file: &str) -> Result<(), String> {
    let row = ARTIFACTS
        .iter()
        .find(|a| a.file == file)
        .ok_or_else(|| format!("{file}: not a row of bench::ARTIFACTS"))?;
    row.check(&repo_root()).map_err(|stale| {
        format!(
            "{stale}\na behaviour change refreshes it with \
             `cargo run --release -p bench --bin artifacts`"
        )
    })
}

/// `Ok` when `committed` and `regenerated` are the same bytes. Otherwise
/// `Err` names `file` and the first line that differs, or both line
/// counts when one is a prefix of the other.
pub fn compare(file: &str, committed: &str, regenerated: &str) -> Result<(), String> {
    if committed == regenerated {
        return Ok(());
    }
    let differing = committed
        .split_inclusive('\n')
        .zip(regenerated.split_inclusive('\n'))
        .enumerate()
        .find(|(_, (a, b))| a != b);
    Err(match differing {
        Some((i, (a, b))) => format!("{file}: line {}: committed {a:?} vs regenerated {b:?}", i + 1),
        None => format!(
            "{file}: committed has {} lines, regenerated {}",
            committed.split_inclusive('\n').count(),
            regenerated.split_inclusive('\n').count()
        ),
    })
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

    #[test]
    fn the_shared_check_names_the_file_and_the_first_difference() {
        let committed = "a\nb\nc\n";
        assert_eq!(compare("x.txt", committed, committed), Ok(()));
        // A one-byte edit: the file and the first differing line.
        assert_eq!(
            compare("x.txt", committed, "a\nB\nc\n"),
            Err(r#"x.txt: line 2: committed "b\n" vs regenerated "B\n""#.to_string())
        );
        // A truncated copy: both line counts.
        assert_eq!(
            compare("x.txt", "a\nb\n", committed),
            Err("x.txt: committed has 2 lines, regenerated 3".to_string())
        );
        // A lost trailing newline is a difference in the last line.
        assert_eq!(
            compare("x.txt", "a\nb\nc", committed),
            Err(r#"x.txt: line 3: committed "c" vs regenerated "c\n""#.to_string())
        );
        // A missing file is reported, not panicked on, and not rendered:
        // the bench crate's own directory holds no artifact.
        let err = ARTIFACTS[0]
            .check(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect_err("no artifact under crates/bench");
        assert!(err.starts_with("campaign_output.txt: cannot read "), "{err}");
    }
}
