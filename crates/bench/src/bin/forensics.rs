//! Regenerates the failure-forensics artifacts at the repo root: every
//! flawed arm of the campaign, run at the historical seed 8 with trace
//! recording on, explained as Listing-1/2-style failure timelines
//! (`forensics_output.txt`) with the simulation counters in
//! `BENCH_forensics.json`, plus the verdict oracle `verdicts.txt` (every
//! arm's counters, verdicts and timeline at seeds 8 and 42). All are fully
//! deterministic, so the tier-1 golden tests regenerate the identical
//! bytes in-process.
//!
//! ```text
//! cargo run --release -p bench --bin forensics            # writes all three artifacts
//! cargo run --release -p bench --bin forensics -- --print # narrative to stdout only
//! cargo run --release -p bench --bin forensics -- --jsonl # JSONL stream to stdout
//! ```

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let out = if std::env::args().skip(1).any(|a| a == "--jsonl") {
        Ok(bench::reports::forensics_jsonl())
    } else {
        bench::emit_artifacts(&[
            ("forensics_output.txt", bench::reports::forensics_report()),
            ("BENCH_forensics.json", bench::reports::forensics_machine_json()),
            ("verdicts.txt", bench::reports::verdicts_report()),
        ])
    };
    match out.and_then(|text| std::io::stdout().write_all(text.as_bytes()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("forensics: {e}");
            ExitCode::FAILURE
        }
    }
}
