//! Regenerates `BENCH_workload.json` at the repo root: the campaign's
//! load-driven scenarios at the historical seed 8 — both arms' verdicts
//! plus the flawed arm's per-op latency percentiles — and the million-op
//! sharded open-loop read ladder, byte-compared across `--jobs 1/2/4/8`.
//! Every number is virtual-time, so the artifact is fully deterministic.
//!
//! ```text
//! cargo run --release -p bench --bin workload_bench            # writes the artifact
//! cargo run --release -p bench --bin workload_bench -- --print # JSON to stdout only
//! ```

use std::io::Write;
use std::process::ExitCode;

/// Total operations of the open-loop read ladder (split over 8 shards).
const LADDER_OPS: u64 = 1_000_000;

fn main() -> ExitCode {
    let out = bench::emit_artifacts(&[("BENCH_workload.json", bench::reports::workload_machine_json(LADDER_OPS))]);
    match out.and_then(|text| std::io::stdout().write_all(text.as_bytes()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("workload_bench: {e}");
            ExitCode::FAILURE
        }
    }
}
