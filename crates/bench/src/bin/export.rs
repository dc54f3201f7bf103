//! Exports the 136-failure catalog as JSON — the reproduction's analogue
//! of the paper's released data set. Writes to stdout; exits non-zero if
//! the stream cannot be written (e.g. a closed pipe mid-document).

use std::io::Write;
use std::process::ExitCode;

use study::json::Value;

fn run() -> std::io::Result<()> {
    let catalog = Value::Arr(study::catalog().iter().map(Value::from).collect());
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{}", catalog.pretty())?;
    out.flush()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("export: failed to write catalog JSON: {e}");
            ExitCode::FAILURE
        }
    }
}
