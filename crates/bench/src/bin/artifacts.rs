//! Regenerates the committed golden artifacts at the repository root, one
//! row of `bench::ARTIFACTS` each: the table, figure, campaign and
//! forensics transcripts, the verdict oracle, the audit hashes and every
//! `BENCH_*.json`. Each is a pure function of the tree, so the tier-1
//! golden test regenerates the same bytes in-process.
//!
//! ```text
//! cargo run --release -p bench --bin artifacts                          # rewrites every row
//! cargo run --release -p bench --bin artifacts -- --print BENCH_gray.json # one row to stdout
//! ```

use std::io::Write;
use std::process::ExitCode;

use bench::ARTIFACTS;

// `BENCH_perf.json` counts allocations, which only count when the binary
// routes its heap through the counting allocator.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

const USAGE: &str = "usage: artifacts [--print <file>]";

/// Renders every row and writes it at the repository root; `Ok` is one
/// `wrote <path>` line per file.
fn write_all() -> Result<String, String> {
    let mut wrote = String::new();
    for a in ARTIFACTS {
        let path = bench::repo_root().join(a.file);
        let content = (a.render)().map_err(|e| format!("{}: {e}", a.file))?;
        std::fs::write(&path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        wrote.push_str(&format!("wrote {}\n", path.display()));
    }
    Ok(wrote)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [] => write_all(),
        [flag, file] if flag == "--print" => match ARTIFACTS.iter().find(|a| a.file == file) {
            Some(a) => (a.render)(),
            None => {
                let files: Vec<_> = ARTIFACTS.iter().map(|a| a.file).collect();
                eprintln!("artifacts: no artifact `{file}`; the rows are {}\n{USAGE}", files.join(", "));
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("artifacts: unexpected arguments {args:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match out.and_then(|text| std::io::stdout().write_all(text.as_bytes()).map_err(|e| e.to_string())) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("artifacts: {e}");
            ExitCode::FAILURE
        }
    }
}
