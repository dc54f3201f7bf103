//! Prints each arm's Quick-mode cost at a seed (default 8): events,
//! allocations, allocations per event, deepest event queue (`qmax`),
//! events scheduled beyond the queue's window (`far`) and replies dropped
//! because their op had closed (`late`), most allocations first — the
//! table that names an arm paying more per event than its peers, and
//! shows how few events a world ever has pending, how few of them are
//! due far ahead, and which arms answer an op after its client gave up.
//! A second table gives each explorer target's trial tails over 50
//! coverage-guided trials at the seed: how many virtual ms and events its
//! trials spent between the final heal and the checkers, and how many
//! never settled and ran to the quiesce cap.
//! Exact counts, no clock: wall-clock numbers
//! come from `bash benchmarks/run.sh`. The campaign-wide counters are the
//! committed `BENCH_perf.json`, written by `bench --bin artifacts`.
//!
//! ```text
//! cargo run --release -p bench --bin perf [-- --seed N]
//! ```

use std::io::Write;
use std::process::ExitCode;

// The allocation counters only count when the measuring binary routes its
// heap through the counting allocator.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

const USAGE: &str = "usage: perf [--seed <n>]";

fn parse(mut args: impl Iterator<Item = String>) -> Result<u64, String> {
    let mut seed = 8;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                let n = args.next().ok_or("--seed requires a number")?;
                seed = n.parse().map_err(|_| format!("invalid seed `{n}`"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(seed)
}

fn main() -> ExitCode {
    let seed = match parse(std::env::args().skip(1)) {
        Ok(seed) => seed,
        Err(msg) => {
            eprintln!("perf: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    use bench::perf_bench::{arm_costs, explore_tails, render_arm_costs, render_explore_tails};
    let table =
        render_arm_costs(&arm_costs(seed)) + "\n" + &render_explore_tails(&explore_tails(seed));
    match std::io::stdout().write_all(table.as_bytes()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
