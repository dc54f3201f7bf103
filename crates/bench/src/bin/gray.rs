//! Regenerates `BENCH_gray.json` at the repo root: the campaign's
//! gray-failure scenarios (degraded, not severed, links) at the
//! historical seed 8 — both arms' verdicts plus the degradation counters.
//! Fully deterministic, so the tier-1 golden tests regenerate the
//! identical bytes in-process.
//!
//! ```text
//! cargo run --release -p bench --bin gray            # writes the artifact
//! cargo run --release -p bench --bin gray -- --print # JSON to stdout only
//! ```

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let out = bench::emit_artifacts(&[("BENCH_gray.json", bench::reports::gray_machine_json())]);
    match out.and_then(|text| std::io::stdout().write_all(text.as_bytes()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gray: {e}");
            ExitCode::FAILURE
        }
    }
}
