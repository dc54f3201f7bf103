//! Regenerates `BENCH_perf.json` at the repo root: the deterministic
//! allocation and event counters of the campaign at the historical seed 8
//! that `tests/perf_gate.rs` compares byte for byte. No clock is read;
//! wall-clock numbers come from `bash benchmarks/run.sh`.
//!
//! ```text
//! cargo run --release -p bench --bin perf            # writes the artifact
//! cargo run --release -p bench --bin perf -- --print # JSON to stdout only
//! cargo run --release -p bench --bin perf -- --arms [--seed N]
//! ```
//!
//! `--arms` writes nothing: it prints each arm's Quick-mode events,
//! allocations, allocations per event, deepest event queue (`qmax`) and
//! events scheduled beyond the queue's window (`far`) at the seed (default
//! 8), most allocations first — the table that names an arm paying more per
//! event than its peers, and shows how few events a world ever has pending
//! and how few of them are due far ahead.

use std::io::Write;
use std::process::ExitCode;

// The allocation counters only count when the measuring binary routes its
// heap through the counting allocator.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

const USAGE: &str = "usage: perf [--print | --arms [--seed <n>]]";

/// `Some(seed)` for the `--arms` table, `None` for the artifact
/// (`--print` is read by [`bench::emit_artifacts`]).
fn parse(mut args: impl Iterator<Item = String>) -> Result<Option<u64>, String> {
    let (mut arms, mut seed) = (false, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--arms" => arms = true,
            "--print" => {}
            "--seed" => {
                let n = args.next().ok_or("--seed requires a number")?;
                seed = Some(n.parse().map_err(|_| format!("invalid seed `{n}`"))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (arms, seed) {
        (true, seed) => Ok(Some(seed.unwrap_or(8))),
        (false, None) => Ok(None),
        (false, Some(_)) => Err("--seed applies to --arms only; the artifact is pinned at seed 8".to_string()),
    }
}

fn main() -> ExitCode {
    let arms_seed = match parse(std::env::args().skip(1)) {
        Ok(arms_seed) => arms_seed,
        Err(msg) => {
            eprintln!("perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match arms_seed {
        Some(seed) => Ok(bench::perf_bench::render_arm_costs(&bench::perf_bench::arm_costs(seed))),
        None => bench::emit_artifacts(&[("BENCH_perf.json", bench::perf_bench::machine_json())]),
    };
    match out.and_then(|text| std::io::stdout().write_all(text.as_bytes()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
