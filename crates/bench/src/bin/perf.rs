//! Measures the fingerprinting and simulator hot paths and writes
//! `BENCH_perf.json` at the repo root: simulator events/sec, full-campaign
//! and audit wall-clock (streamed vs rendered fingerprints), and the
//! deterministic allocation/event counters the perf gate asserts.
//!
//! ```text
//! cargo run --release -p bench --bin perf               # writes BENCH_perf.json
//! cargo run --release -p bench --bin perf -- --print    # stdout only
//! cargo run --release -p bench --bin perf -- --repeat 5 # min-of-5 wall clocks
//! cargo run --release -p bench --bin perf -- --arms [--seed N]
//! ```
//!
//! `--arms` writes nothing and times nothing: it prints each arm's Quick-mode
//! events, allocations and allocations per event at the seed (default 8),
//! most allocations first — the table that names an arm paying more per
//! event than its peers.

use std::process::ExitCode;

// The allocation counters in the `deterministic` section only count when
// the measuring binary routes its heap through the counting allocator.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1)?.parse::<usize>().ok()
    };
    if args.iter().any(|a| a == "--arms") {
        let seed = value_of("--seed").unwrap_or(8) as u64;
        print!("{}", bench::perf_bench::render_arm_costs(&bench::perf_bench::arm_costs(seed)));
        return ExitCode::SUCCESS;
    }
    let print_only = args.iter().any(|a| a == "--print");
    // `--repeat N`: rerun the wall-clock layers N times and keep each
    // label's minimum, so the committed numbers are less noise-hostage.
    let repeat = value_of("--repeat").unwrap_or(1);
    let bench = bench::perf_bench::measure_repeat(8, 10, repeat);
    let json = bench.to_pretty_json();
    if print_only {
        print!("{json}");
        return ExitCode::SUCCESS;
    }
    // The manifest dir is crates/bench; the artifact lives at the root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_perf.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("perf: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    print!("{json}");
    ExitCode::SUCCESS
}
