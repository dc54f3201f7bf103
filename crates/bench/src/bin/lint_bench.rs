//! Regenerates `BENCH_lint.json` at the repo root: the determinism-lint
//! scan of the whole workspace reduced to deterministic counters, plus
//! the registry-consistency verdict. A pure function of the committed
//! source tree, so the tier-1 golden tests regenerate the identical
//! bytes in-process.
//!
//! ```text
//! cargo run --release -p bench --bin lint_bench            # writes the artifact
//! cargo run --release -p bench --bin lint_bench -- --print # JSON to stdout only
//! ```

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let out = bench::emit_artifacts(&[("BENCH_lint.json", bench::reports::lint_machine_json())]);
    match out.and_then(|text| std::io::stdout().write_all(text.as_bytes()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lint_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
