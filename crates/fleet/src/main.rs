//! CLI for the fleet runner.
//!
//! ```text
//! cargo run --release -p fleet                      # serial campaign, seed 8
//! cargo run --release -p fleet -- --jobs 4          # same bytes, 4 workers
//! cargo run --release -p fleet -- --seeds 16        # multi-seed sweep
//! cargo run --release -p fleet -- --seeds 16 --jobs 8
//! cargo run --release -p fleet -- --audit --seed 42 # double-run trace audit
//! ```
//!
//! Exit codes: `0` success, `1` audit divergence or a failed write to
//! stdout, `2` usage error.

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match fleet::cli::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                return emit(&format!("{}\n", fleet::cli::usage()), ExitCode::SUCCESS);
            }
            eprintln!("fleet: {msg}\n{}", fleet::cli::usage());
            return ExitCode::from(2);
        }
    };
    if !opts.audit {
        return emit(&format!("{}\n", fleet::cli::report(&opts)), ExitCode::SUCCESS);
    }
    let outcomes = fleet::campaign::audit(opts.seed, opts.jobs);
    let divergent: Vec<_> = outcomes.iter().filter(|o| !o.is_ok()).collect();
    for outcome in &divergent {
        eprintln!("{}", outcome.render());
    }
    let code = if divergent.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    emit(&fleet::campaign::audit_text(opts.seed, &outcomes), code)
}

/// Writes `text` to stdout and returns `code`; a failed write (a closed
/// pipe, say) is reported on stderr and returns `1`.
fn emit(text: &str, code: ExitCode) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => code,
        Err(e) => {
            eprintln!("fleet: {e}");
            ExitCode::FAILURE
        }
    }
}
