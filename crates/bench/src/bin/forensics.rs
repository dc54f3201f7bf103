//! Prints the failure-forensics sweep as a JSONL stream: every flawed arm
//! of the campaign, run at the historical seed 8 with trace recording on,
//! as one `report` header line per scenario followed by its timeline
//! events. The same sweep's narrative (`forensics_output.txt`) and
//! counters (`BENCH_forensics.json`) are committed artifacts, written by
//! `bench --bin artifacts`.
//!
//! ```text
//! cargo run --release -p bench --bin forensics > forensics.jsonl
//! ```

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: forensics (takes no arguments)");
        return ExitCode::from(2);
    }
    match std::io::stdout().write_all(bench::reports::forensics_jsonl().as_bytes()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("forensics: {e}");
            ExitCode::FAILURE
        }
    }
}
