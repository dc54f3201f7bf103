//! CLI for the determinism guard.
//!
//! ```text
//! cargo run -p lint                 # the static determinism pass
//! cargo run -p lint -- --json      # same, machine-readable findings
//! cargo run -p lint -- --unused-allows  # report stale lint:allow sites
//! cargo run -p lint -- --root /path/to/tree
//! ```
//!
//! The double-run trace audit is `cargo run -p fleet -- --audit`.
//!
//! Exit codes: `0` clean, `1` violations found or a failed write to
//! stdout, `2` usage or I/O error.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    json: bool,
    unused_allows: bool,
    root: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: lint [--json] [--root <dir>] [--unused-allows]\n\
     \n\
     Default mode scans every .rs file under the workspace for the\n\
     determinism rules (hash-iteration, wall-clock, os-entropy,\n\
     thread-spawn, unsafe-code, unwrap-expect, println-in-lib,\n\
     env-read, io-in-sim, float-nondet, debug-hash-leak).\n\
     --unused-allows instead reports lint:allow directives that no\n\
     longer suppress any finding. The double-run trace audit is\n\
     `fleet --audit`."
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        json: false,
        unused_allows: false,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--unused-allows" => opts.unused_allows = true,
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    explicit.unwrap_or_else(|| {
        // crates/lint -> crates -> workspace root.
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(|p| p.parent())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."))
    })
}

fn run_scan(opts: &Opts) -> ExitCode {
    let root = workspace_root(opts.root.clone());
    let report = match lint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings = report.findings;
    let out = if opts.json {
        format!("{}\n", lint::findings_to_json(&findings))
    } else if findings.is_empty() {
        "lint: workspace clean under all determinism rules\n".to_string()
    } else {
        findings.iter().map(|f| format!("{f}\n")).collect()
    };
    let code = if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    let code = emit(&out, code);
    if !opts.json && !findings.is_empty() {
        eprintln!("lint: {} violation(s)", findings.len());
    }
    code
}

fn run_unused_allows(opts: &Opts) -> ExitCode {
    let root = workspace_root(opts.root.clone());
    let report = match lint::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if report.unused_allows.is_empty() {
        let out = format!(
            "lint: all {} lint:allow site(s) suppress at least one finding\n",
            report.stats.allow_sites
        );
        return emit(&out, ExitCode::SUCCESS);
    }
    let out: String = report.unused_allows.iter().map(|u| format!("{u}\n")).collect();
    let code = emit(&out, ExitCode::FAILURE);
    eprintln!("lint: {} unused allow(s)", report.unused_allows.len());
    code
}

/// Writes `text` to stdout and returns `code`; a failed write (a closed
/// pipe, say) is reported on stderr and returns `1`.
fn emit(text: &str, code: ExitCode) -> ExitCode {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => code,
        Err(e) => {
            eprintln!("lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                return emit(&format!("{}\n", usage()), ExitCode::SUCCESS);
            }
            eprintln!("lint: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.unused_allows {
        run_unused_allows(&opts)
    } else {
        run_scan(&opts)
    }
}
