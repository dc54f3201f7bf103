//! CLI for the determinism guard.
//!
//! ```text
//! cargo run -p lint                 # static pass + registry consistency
//! cargo run -p lint -- --json      # same, machine-readable findings
//! cargo run -p lint -- --unused-allows  # report stale lint:allow sites
//! cargo run -p lint -- --audit     # dynamic double-run trace audit
//! cargo run -p lint -- --audit --seed 7
//! cargo run -p lint -- --audit --jobs 4   # fleet-sharded, same bytes
//! cargo run -p lint -- --root /path/to/tree
//! ```
//!
//! Exit codes: `0` clean, `1` violations or trace divergence found,
//! `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    json: bool,
    audit: bool,
    unused_allows: bool,
    root: Option<PathBuf>,
    seed: u64,
    jobs: usize,
}

fn usage() -> &'static str {
    "usage: lint [--json] [--root <dir>] [--unused-allows]\n\
     \x20           [--audit] [--seed <n>] [--jobs <k>]\n\
     \n\
     Default mode scans every .rs file under the workspace for the\n\
     determinism rules (hash-iteration, wall-clock, os-entropy,\n\
     thread-spawn, unsafe-code, unwrap-expect, println-in-lib,\n\
     env-read, io-in-sim, float-nondet, debug-hash-leak), then\n\
     cross-checks the scenario names the campaign tables and the\n\
     tests under the root repeat against the registry (with --json,\n\
     those findings go to stderr).\n\
     --unused-allows instead reports lint:allow directives that no\n\
     longer suppress any finding. --audit runs every registered\n\
     scenario twice with the same seed and compares the execution\n\
     fingerprints; --jobs K shards the audit across K fleet workers\n\
     with byte-identical output."
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        json: false,
        audit: false,
        unused_allows: false,
        root: None,
        seed: 42,
        jobs: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--audit" => opts.audit = true,
            "--unused-allows" => opts.unused_allows = true,
            "--root" => {
                let dir = args.next().ok_or("--root requires a directory")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--seed" => {
                let n = args.next().ok_or("--seed requires a number")?;
                opts.seed = n.parse().map_err(|_| format!("invalid seed `{n}`"))?;
            }
            "--jobs" => {
                let n = args.next().ok_or("--jobs requires a worker count")?;
                let jobs: usize = n.parse().map_err(|_| format!("invalid job count `{n}`"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = jobs;
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
    if opts.json {
        println!("{}", lint::findings_to_json(&findings));
    } else if findings.is_empty() {
        println!("lint: workspace clean under all determinism rules");
    } else {
        for f in &findings {
            println!("{f}");
        }
        eprintln!("lint: {} violation(s)", findings.len());
    }
    // The registry pass reads no artifact, so it runs on any root; with
    // --json its findings go to stderr and stdout stays one JSON array.
    let registry = lint::check_registry(&root);
    for f in &registry.findings {
        if opts.json {
            eprintln!("{f}");
        } else {
            println!("{f}");
        }
    }
    if !registry.findings.is_empty() {
        eprintln!("lint: {} registry inconsistency(ies)", registry.findings.len());
    } else if !opts.json {
        println!(
            "lint: registry consistent ({} scenarios, {} arms)",
            registry.scenarios, registry.arms
        );
    }
    if findings.is_empty() && registry.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
    for u in &report.unused_allows {
        println!("{u}");
    }
    if report.unused_allows.is_empty() {
        println!(
            "lint: all {} lint:allow site(s) suppress at least one finding",
            report.stats.allow_sites
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("lint: {} unused allow(s)", report.unused_allows.len());
        ExitCode::FAILURE
    }
}

fn run_audit(opts: &Opts) -> ExitCode {
    let outcomes = fleet::campaign::audit(opts.seed, opts.jobs);
    let divergent: Vec<_> = outcomes.iter().filter(|o| !o.is_ok()).collect();
    for outcome in &divergent {
        eprintln!("{}", outcome.render());
    }
    print!("{}", lint::audit_text(opts.seed, &outcomes));
    if divergent.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("lint: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if opts.audit {
        run_audit(&opts)
    } else if opts.unused_allows {
        run_unused_allows(&opts)
    } else {
        run_scan(&opts)
    }
}
