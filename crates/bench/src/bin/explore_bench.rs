//! Regenerates `BENCH_explore.json` at the repo root: the coverage-guided
//! exploration pipeline at the historical seed 8 — naive vs guided vs
//! coverage hit rates at equal budget, the sharded-merge invariance
//! check, and every delta-minimized registry regression with a fresh
//! 1-minimality proof. Fully deterministic, so the tier-1 golden tests
//! regenerate the identical bytes in-process.
//!
//! ```text
//! cargo run --release -p bench --bin explore_bench            # writes the artifact
//! cargo run --release -p bench --bin explore_bench -- --print # JSON to stdout only
//! ```

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let out = bench::emit_artifacts(&[("BENCH_explore.json", bench::reports::explore_machine_json())]);
    match out.and_then(|text| std::io::stdout().write_all(text.as_bytes()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("explore_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
