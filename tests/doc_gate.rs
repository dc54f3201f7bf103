//! Tier-1 gate: the documented crates must build docs warning-free.
//!
//! `crates/obs` is `#![deny(missing_docs)]`, and the public surfaces of
//! `simnet::trace` and `neat::audit` carry the same module-level deny —
//! but those attributes only catch *missing* docs. This gate runs
//! `cargo doc --no-deps` with `RUSTDOCFLAGS="-D warnings"` over the
//! forensics-layer crates, so broken intra-doc links, bad code fences,
//! and every other rustdoc lint fail `cargo test` instead of rotting
//! silently.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The gray-failure modules were born `#![deny(missing_docs)]`; keep it
/// that way — `cargo doc -D warnings` alone would not notice the deny
/// being quietly dropped.
#[test]
fn gray_failure_modules_deny_missing_docs() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for module in [
        "crates/neat/src/gray.rs",
        "crates/neat/src/retry.rs",
        "crates/neat/src/explore.rs",
        "crates/neat/src/explore/schedule.rs",
        "crates/neat/src/explore/coverage.rs",
        "crates/neat/src/explore/minimize.rs",
    ] {
        let src = std::fs::read_to_string(root.join(module))
            .unwrap_or_else(|e| panic!("cannot read {module}: {e}"));
        assert!(
            src.contains("#![deny(missing_docs)]"),
            "{module} lost its #![deny(missing_docs)] attribute"
        );
    }
}

#[test]
fn forensics_layer_docs_build_without_warnings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Test harness, not simulation code: finding the cargo that spawned
    // us is exactly what the env-read rule's test carve-out is for.
    #[allow(clippy::disallowed_methods)]
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["doc", "--no-deps", "-q", "-p", "obs", "-p", "simnet", "-p", "neat"])
        .env("RUSTDOCFLAGS", "-D warnings")
        .output()
        .expect("spawn cargo doc");
    assert!(
        out.status.success(),
        "`cargo doc --no-deps` failed under RUSTDOCFLAGS=\"-D warnings\":\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every `` `path.rs:N` `` citation in ARCHITECTURE.md points at a real
/// line: the file exists and has at least N lines, and where a backticked
/// name introduces the citation (`` `Name` (`path.rs:N` ``) line N holds
/// the name's last path segment (`Neat::request` → `request`). A path
/// cited without a line (`` `dir/file.rs` ``, braces expanded, globs
/// skipped) must exist too.
#[test]
fn architecture_citations_point_at_their_lines() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("ARCHITECTURE.md")).expect("read ARCHITECTURE.md");
    // Prose only: fenced blocks are diagrams, not citations.
    let prose: String = doc.split("```").step_by(2).collect::<Vec<_>>().join("\n");
    let ticks: Vec<usize> = prose.match_indices('`').map(|(at, _)| at).collect();
    // Inline code spans as (open tick, close tick).
    let spans: Vec<(usize, usize)> = ticks.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let (mut cited, mut files) = (0, 0);
    let mut stale = Vec::new();
    for (i, &(open, close)) in spans.iter().enumerate() {
        let span = &prose[open + 1..close];
        if span.ends_with(".rs") && span.contains('/') && !span.contains(['*', ' ']) {
            for path in expand_braces(span) {
                files += 1;
                if !root.join(&path).is_file() {
                    stale.push(format!("{path}: no such file"));
                }
            }
            continue;
        }
        let Some((path, line)) = span.split_once(".rs:") else { continue };
        let Ok(line) = line.parse::<usize>() else { continue };
        cited += 1;
        let path = format!("{path}.rs");
        let src = std::fs::read_to_string(root.join(&path)).unwrap_or_default();
        let Some(text) = line.checked_sub(1).and_then(|n| src.lines().nth(n)) else {
            stale.push(format!("{path}:{line}: no such file or line"));
            continue;
        };
        let Some(&(name_open, name_close)) = i.checked_sub(1).map(|p| &spans[p]) else { continue };
        if prose[name_close + 1..open].trim() != "(" {
            continue;
        }
        let name = &prose[name_open + 1..name_close];
        let last = name.rsplit("::").next().unwrap_or(name);
        let ident: String = last.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if !text.contains(&ident) {
            stale.push(format!("{path}:{line}: `{name}` is not on this line: {:?}", text.trim()));
        }
    }
    assert!(cited > 100, "only {cited} citations found; is the parser broken?");
    assert!(files > 20, "only {files} line-less paths found; is the parser broken?");
    assert!(stale.is_empty(), "stale ARCHITECTURE.md citations:\n{}", stale.join("\n"));
}

/// Every `cargo run … [-p <pkg>] [--bin <b>] [--example <e>]` in the
/// user-facing docs names a workspace package and a binary or example it
/// has; without `--bin` or `--example` the package needs a `src/main.rs`.
/// Each `--flag` after the command's `--` must appear as the literal
/// `"--flag"` somewhere in that package's `src/`, so a documented option
/// the CLI no longer parses fails here.
#[test]
fn documented_cargo_run_commands_name_real_targets() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path:?}: {e}"))
    };
    let workspace = read(&root.join("Cargo.toml"));
    let members = workspace
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .map_or("", |(list, _)| list);
    let mut packages: BTreeMap<String, PathBuf> = BTreeMap::new();
    for dir in std::iter::once(".").chain(members.split('"').skip(1).step_by(2)) {
        let manifest = read(&root.join(dir).join("Cargo.toml"));
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
            .unwrap_or_else(|| panic!("{dir}/Cargo.toml names no package"));
        packages.insert(name.to_string(), root.join(dir));
    }

    let mut sources: BTreeMap<String, String> = BTreeMap::new();
    let (mut checked, mut flags, mut stale) = (0, 0, Vec::new());
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md", "ARCHITECTURE.md"] {
        let text = read(&root.join(doc));
        for (at, _) in text.match_indices("cargo run") {
            // An inline code span may wrap a line and ends at its close; a
            // line of a fenced block ends at a comment or the line's end.
            let rest = &text[at + "cargo run".len()..];
            let ends: &[char] = if text[..at].ends_with('`') { &['`'] } else { &['`', '#', '\n'] };
            let command = &rest[..rest.find(ends).unwrap_or(rest.len())];
            let mut words = command.split_whitespace();
            let (mut package, mut bin, mut example) = ("neat-repro", None, None);
            let mut has_args = false;
            while let Some(word) = words.next() {
                let slot = match word {
                    "--release" => continue,
                    "-p" => &mut package,
                    "--bin" => bin.insert(""),
                    "--example" => example.insert(""),
                    "--" => {
                        has_args = true;
                        break;
                    }
                    _ => break,
                };
                *slot = words.next().unwrap_or("").trim_end_matches([',', '.', ')', ';', ':']);
            }
            checked += 1;
            let Some(dir) = packages.get(package) else {
                stale.push(format!("{doc}: `cargo run{command}`: no package {package}"));
                continue;
            };
            let found = match (bin, example) {
                (_, Some(e)) => dir.join("examples").join(format!("{e}.rs")).is_file(),
                (Some(b), None) => {
                    dir.join("src/bin").join(format!("{b}.rs")).is_file()
                        || dir.join("src/bin").join(b).join("main.rs").is_file()
                        || (b == package && dir.join("src/main.rs").is_file())
                }
                (None, None) => dir.join("src/main.rs").is_file(),
            };
            if !found {
                stale.push(format!("{doc}: `cargo run{}`: no such target", command.trim_end()));
            }
            if !has_args {
                continue;
            }
            let src = sources.entry(package.to_string()).or_insert_with(|| rs_sources(&dir.join("src")));
            for flag in words.map(|w| w.trim_matches(['[', ']', ',', '.', ')', ';', ':'])) {
                if flag.starts_with("--") {
                    flags += 1;
                    if !src.contains(&format!("\"{flag}\"")) {
                        stale.push(format!("{doc}: `cargo run{}`: {package} parses no `{flag}`", command.trim_end()));
                    }
                }
            }
        }
    }
    assert!(checked > 30, "only {checked} commands found; is the parser broken?");
    assert!(flags > 15, "only {flags} flags found; is the parser broken?");
    assert!(stale.is_empty(), "documented commands that cannot run:\n{}", stale.join("\n"));
}

/// Every `.rs` file under `dir`, concatenated.
fn rs_sources(dir: &Path) -> String {
    let mut out = String::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {dir:?}: {e}")) {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            out.push_str(&rs_sources(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push_str(&std::fs::read_to_string(&path).unwrap_or_default());
        }
    }
    out
}

/// `crates/{a,b}/src/x.rs` → `crates/a/src/x.rs`, `crates/b/src/x.rs`.
fn expand_braces(path: &str) -> Vec<String> {
    let Some((head, rest)) = path.split_once('{') else { return vec![path.to_string()] };
    let Some((alts, tail)) = rest.split_once('}') else { return vec![path.to_string()] };
    alts.split(',')
        .flat_map(|alt| expand_braces(&format!("{head}{alt}{tail}")))
        .collect()
}
