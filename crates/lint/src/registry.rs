//! The registry-consistency pass.
//!
//! `src/campaign.rs` is the single source of truth for scenario and arm
//! IDs, but three other places repeat those names: the committed golden
//! artifacts, the Table 15 / catalog-coverage mappings inside the
//! campaign itself, and string literals in the workspace tests. A typo
//! or a renamed scenario silently decays into "not modelled" rows and
//! dead forensics blocks — this pass makes that a lint failure instead.
//!
//! Checks, each a cheap cross-reference:
//!
//! 1. every registered scenario appears in `campaign_output.txt`;
//! 2. `forensics_output.txt` block headers (`== name — …`) and the
//!    registry agree in *both* directions;
//! 3. `BENCH_forensics.json` `per_scenario` names and its `scenarios`
//!    count agree with the registry (parsed with [`study::json`]);
//! 4. every `BENCH_gray.json` scenario is registered;
//! 5. every `"arms"`/`"scenarios"` counter in `BENCH_perf.json` matches
//!    the registry;
//! 6. every scenario named by `table15` / `catalog_coverage` is
//!    registered (dead internal references);
//! 7. arm-shaped string literals (`…/flawed`, `…/fixed`) in the root
//!    `tests/` tree name registered scenarios;
//! 8. `BENCH_workload.json` `per_scenario` names and the registry's
//!    load-driven subset (partition label `load*`) agree in *both*
//!    directions, every row drove a non-zero operation count, and the
//!    sharded ladder's `byte_identical` verdict is `true`;
//! 9. `BENCH_explore.json` `minimized` names and the registry's
//!    delta-minimized subset (partition label `explored*`) agree in
//!    *both* directions, every minimized row is still 1-minimal with a
//!    firing flawed arm and a clean fixed arm, coverage-guided search
//!    still strictly beats naive on at least two targets, and the
//!    sharded exploration merge is still byte-identical.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lex::{self, TokenKind};
use neat_repro::campaign::{scenarios_of, ScenarioClass};
use study::json::Value;

/// One inconsistency between the registry and an artifact or reference.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegistryFinding {
    /// The artifact or reference site the registry disagrees with.
    pub artifact: String,
    pub message: String,
}

impl std::fmt::Display for RegistryFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "registry: {}: {}", self.artifact, self.message)
    }
}

/// The outcome of the pass: registry shape plus any inconsistencies.
#[derive(Debug)]
pub struct RegistryReport {
    pub scenarios: usize,
    pub arms: usize,
    pub findings: Vec<RegistryFinding>,
}

/// True when `root` looks like a checkout carrying the golden artifacts
/// this pass cross-checks (the default `lint` run skips the pass on
/// bare trees, e.g. `--root` pointed at a single crate).
pub fn artifacts_present(root: &Path) -> bool {
    root.join("campaign_output.txt").exists()
}

/// Runs every check against the artifacts under `root`. The registry
/// itself comes from the linked `neat_repro::campaign`, so the pass
/// compares the *code's* scenario set against the committed bytes.
pub fn check_registry(root: &Path) -> RegistryReport {
    let registered: BTreeSet<String> = neat_repro::campaign::registry()
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    let arms = neat_repro::campaign::arm_ids().len();
    let mut findings = Vec::new();

    check_campaign_output(root, &registered, &mut findings);
    check_forensics_text(root, &registered, &mut findings);
    check_forensics_bench(root, &registered, &mut findings);
    check_gray_bench(root, &registered, &mut findings);
    check_counts(root, "BENCH_perf.json", registered.len(), arms, &mut findings);
    check_internal_references(&registered, &mut findings);
    check_test_references(root, &registered, &mut findings);
    check_workload_bench(root, &mut findings);
    check_explore_bench(root, &mut findings);

    RegistryReport {
        scenarios: registered.len(),
        arms,
        findings,
    }
}

fn push(findings: &mut Vec<RegistryFinding>, artifact: &str, message: String) {
    findings.push(RegistryFinding {
        artifact: artifact.to_string(),
        message,
    });
}

fn read(root: &Path, name: &str, findings: &mut Vec<RegistryFinding>) -> Option<String> {
    match std::fs::read_to_string(root.join(name)) {
        Ok(s) => Some(s),
        Err(e) => {
            push(findings, name, format!("cannot read artifact: {e}"));
            None
        }
    }
}

/// Check 1: every registered scenario shows up in the campaign table.
fn check_campaign_output(
    root: &Path,
    registered: &BTreeSet<String>,
    findings: &mut Vec<RegistryFinding>,
) {
    let Some(text) = read(root, "campaign_output.txt", findings) else {
        return;
    };
    for name in registered {
        if !text.contains(name.as_str()) {
            push(
                findings,
                "campaign_output.txt",
                format!("registered scenario `{name}` missing from the campaign table — regenerate the goldens"),
            );
        }
    }
}

/// Check 2: forensics block headers ↔ registry, both directions.
fn check_forensics_text(
    root: &Path,
    registered: &BTreeSet<String>,
    findings: &mut Vec<RegistryFinding>,
) {
    let Some(text) = read(root, "forensics_output.txt", findings) else {
        return;
    };
    let blocks: BTreeSet<String> = text
        .lines()
        .filter_map(|l| l.strip_prefix("== "))
        .filter(|l| l.contains(" — "))
        .filter_map(|l| l.split(" — ").next())
        .map(str::to_string)
        .collect();
    for name in registered.difference(&blocks) {
        push(
            findings,
            "forensics_output.txt",
            format!("registered scenario `{name}` has no forensics block"),
        );
    }
    for name in blocks.difference(registered) {
        push(
            findings,
            "forensics_output.txt",
            format!("forensics block `{name}` names an unregistered scenario"),
        );
    }
}

/// Check 3: BENCH_forensics.json per-scenario names and counts.
fn check_forensics_bench(
    root: &Path,
    registered: &BTreeSet<String>,
    findings: &mut Vec<RegistryFinding>,
) {
    let Some(text) = read(root, "BENCH_forensics.json", findings) else {
        return;
    };
    let doc = match study::json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            push(findings, "BENCH_forensics.json", format!("unparseable: {e}"));
            return;
        }
    };
    if let Some(n) = doc.get("scenarios").and_then(Value::as_u64) {
        if n as usize != registered.len() {
            push(
                findings,
                "BENCH_forensics.json",
                format!("records {n} scenarios; the registry has {}", registered.len()),
            );
        }
    }
    let names: BTreeSet<String> = doc
        .get("per_scenario")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| row.get("scenario").and_then(Value::as_str))
        .map(str::to_string)
        .collect();
    for name in registered.difference(&names) {
        push(
            findings,
            "BENCH_forensics.json",
            format!("registered scenario `{name}` missing from per_scenario"),
        );
    }
    for name in names.difference(registered) {
        push(
            findings,
            "BENCH_forensics.json",
            format!("per_scenario entry `{name}` names an unregistered scenario"),
        );
    }
}

/// Check 4: every gray-bench scenario is registered.
fn check_gray_bench(
    root: &Path,
    registered: &BTreeSet<String>,
    findings: &mut Vec<RegistryFinding>,
) {
    let Some(text) = read(root, "BENCH_gray.json", findings) else {
        return;
    };
    let doc = match study::json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            push(findings, "BENCH_gray.json", format!("unparseable: {e}"));
            return;
        }
    };
    let mut names = Vec::new();
    collect_key_strings(&doc, "scenario", &mut names);
    for name in names {
        if !registered.contains(&name) {
            push(
                findings,
                "BENCH_gray.json",
                format!("scenario `{name}` is not registered"),
            );
        }
    }
}

/// Check 5: every `"scenarios"`/`"arms"` counter matches the registry.
fn check_counts(
    root: &Path,
    artifact: &str,
    scenarios: usize,
    arms: usize,
    findings: &mut Vec<RegistryFinding>,
) {
    let Some(text) = read(root, artifact, findings) else {
        return;
    };
    let doc = match study::json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            push(findings, artifact, format!("unparseable: {e}"));
            return;
        }
    };
    let mut counts = Vec::new();
    collect_key_nums(&doc, "arms", &mut counts);
    for n in counts.drain(..) {
        if n as usize != arms {
            push(
                findings,
                artifact,
                format!("records {n} arms; the registry has {arms}"),
            );
        }
    }
    collect_key_nums(&doc, "scenarios", &mut counts);
    for n in counts {
        if n as usize != scenarios {
            push(
                findings,
                artifact,
                format!("records {n} scenarios; the registry has {scenarios}"),
            );
        }
    }
}

/// Check 6: Table 15 and catalog-coverage rows reference live scenarios.
fn check_internal_references(
    registered: &BTreeSet<String>,
    findings: &mut Vec<RegistryFinding>,
) {
    for row in neat_repro::campaign::table15(&[]) {
        if let Some(name) = row.scenario {
            if !registered.contains(name) {
                push(
                    findings,
                    "src/campaign.rs (table15)",
                    format!(
                        "row {} {} maps to `{name}`, which is not registered",
                        row.system, row.reference
                    ),
                );
            }
        }
    }
    for (reference, name) in neat_repro::campaign::catalog_coverage() {
        if !registered.contains(name) {
            push(
                findings,
                "src/campaign.rs (catalog_coverage)",
                format!("catalog row {reference} maps to `{name}`, which is not registered"),
            );
        }
    }
}

/// Check 7: arm-shaped string literals in the root `tests/` tree.
fn check_test_references(
    root: &Path,
    registered: &BTreeSet<String>,
    findings: &mut Vec<RegistryFinding>,
) {
    let dir = root.join("tests");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no root tests tree: nothing to cross-check
    };
    let mut files: Vec<_> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    for path in files {
        let Ok(source) = std::fs::read_to_string(&path) else {
            continue;
        };
        let rel = format!("tests/{}", path.file_name().unwrap_or_default().to_string_lossy());
        for t in lex::lex(&source) {
            if t.kind != TokenKind::Str {
                continue;
            }
            let Some(contents) = t.str_contents() else {
                continue;
            };
            let Some(scenario) = contents
                .strip_suffix("/flawed")
                .or_else(|| contents.strip_suffix("/fixed"))
            else {
                continue;
            };
            if !scenario.is_empty() && !registered.contains(scenario) {
                push(
                    findings,
                    &rel,
                    format!(
                        "line {}: arm literal `{contents}` names unregistered scenario `{scenario}`",
                        t.line
                    ),
                );
            }
        }
    }
}

/// Check 8: BENCH_workload.json ↔ the registry's load-driven subset,
/// both directions, plus the op counters and the ladder verdict. A
/// doctored or rotted artifact fails here: a ghost scenario, a dropped
/// scenario, a row that drove no traffic, or a ladder whose sharded
/// runs stopped merging byte-identically.
fn check_workload_bench(root: &Path, findings: &mut Vec<RegistryFinding>) {
    const ARTIFACT: &str = "BENCH_workload.json";
    let load: BTreeSet<String> = scenarios_of(ScenarioClass::Load)
        .map(|s| s.name.to_string())
        .collect();
    let Some(text) = read(root, ARTIFACT, findings) else {
        return;
    };
    let doc = match study::json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            push(findings, ARTIFACT, format!("unparseable: {e}"));
            return;
        }
    };
    let mut names = BTreeSet::new();
    for row in doc
        .get("per_scenario")
        .and_then(Value::as_array)
        .unwrap_or(&[])
    {
        let Some(name) = row.get("scenario").and_then(Value::as_str) else {
            continue;
        };
        names.insert(name.to_string());
        if row.get("ops").and_then(Value::as_u64) == Some(0) {
            push(
                findings,
                ARTIFACT,
                format!("scenario `{name}` drove zero operations"),
            );
        }
    }
    for name in load.difference(&names) {
        push(
            findings,
            ARTIFACT,
            format!("registered load scenario `{name}` missing from per_scenario"),
        );
    }
    for name in names.difference(&load) {
        push(
            findings,
            ARTIFACT,
            format!("per_scenario entry `{name}` is not a registered load scenario"),
        );
    }
    match doc
        .get("open_loop")
        .and_then(|o| o.get("byte_identical"))
        .and_then(Value::as_bool)
    {
        Some(true) => {}
        Some(false) => push(
            findings,
            ARTIFACT,
            "the sharded open-loop ladder no longer merges byte-identically".to_string(),
        ),
        None => push(
            findings,
            ARTIFACT,
            "missing the open_loop byte_identical verdict".to_string(),
        ),
    }
}

/// Check 9: BENCH_explore.json ↔ the registry's delta-minimized subset,
/// both directions, plus the per-row repro verdicts and the pipeline's
/// acceptance verdicts. A doctored or rotted artifact fails here: a
/// ghost regression, a dropped regression, a schedule that is no longer
/// 1-minimal, a flawed arm that stopped firing, a fixed arm that started
/// firing, a coverage comparison that fell under the two-target floor,
/// or a sharded exploration that stopped merging byte-identically.
fn check_explore_bench(root: &Path, findings: &mut Vec<RegistryFinding>) {
    const ARTIFACT: &str = "BENCH_explore.json";
    let explored: BTreeSet<String> = scenarios_of(ScenarioClass::Explored)
        .map(|s| s.name.to_string())
        .collect();
    let Some(text) = read(root, ARTIFACT, findings) else {
        return;
    };
    let doc = match study::json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            push(findings, ARTIFACT, format!("unparseable: {e}"));
            return;
        }
    };
    let mut names = BTreeSet::new();
    for row in doc.get("minimized").and_then(Value::as_array).unwrap_or(&[]) {
        let Some(name) = row.get("scenario").and_then(Value::as_str) else {
            continue;
        };
        names.insert(name.to_string());
        if row.get("one_minimal").and_then(Value::as_bool) != Some(true) {
            push(
                findings,
                ARTIFACT,
                format!("minimized schedule `{name}` is not 1-minimal"),
            );
        }
        if row
            .get("flawed")
            .and_then(Value::as_array)
            .is_none_or(<[Value]>::is_empty)
        {
            push(
                findings,
                ARTIFACT,
                format!("minimized schedule `{name}` no longer fires on the flawed arm"),
            );
        }
        if row
            .get("fixed")
            .and_then(Value::as_array)
            .is_none_or(|a| !a.is_empty())
        {
            push(
                findings,
                ARTIFACT,
                format!("minimized schedule `{name}` fires on the fixed arm"),
            );
        }
    }
    for name in explored.difference(&names) {
        push(
            findings,
            ARTIFACT,
            format!("registered explored scenario `{name}` missing from minimized"),
        );
    }
    for name in names.difference(&explored) {
        push(
            findings,
            ARTIFACT,
            format!("minimized entry `{name}` is not a registered explored scenario"),
        );
    }
    match doc
        .get("coverage_strictly_better_targets")
        .and_then(Value::as_u64)
    {
        Some(n) if n >= 2 => {}
        Some(n) => push(
            findings,
            ARTIFACT,
            format!("coverage-guided search beats naive on only {n} targets (needs >= 2)"),
        ),
        None => push(
            findings,
            ARTIFACT,
            "missing the coverage_strictly_better_targets verdict".to_string(),
        ),
    }
    match doc
        .get("sharded")
        .and_then(|o| o.get("byte_identical"))
        .and_then(Value::as_bool)
    {
        Some(true) => {}
        Some(false) => push(
            findings,
            ARTIFACT,
            "the sharded exploration no longer merges byte-identically".to_string(),
        ),
        None => push(
            findings,
            ARTIFACT,
            "missing the sharded byte_identical verdict".to_string(),
        ),
    }
}

/// Collects every string under `key` anywhere in the document.
fn collect_key_strings(doc: &Value, key: &str, out: &mut Vec<String>) {
    match doc {
        Value::Obj(fields) => {
            for (k, v) in fields {
                if k == key {
                    if let Some(s) = v.as_str() {
                        out.push(s.to_string());
                    }
                }
                collect_key_strings(v, key, out);
            }
        }
        Value::Arr(items) => {
            for v in items {
                collect_key_strings(v, key, out);
            }
        }
        _ => {}
    }
}

/// Collects every number under `key` anywhere in the document.
fn collect_key_nums(doc: &Value, key: &str, out: &mut Vec<u64>) {
    match doc {
        Value::Obj(fields) => {
            for (k, v) in fields {
                if k == key {
                    if let Some(n) = v.as_u64() {
                        out.push(n);
                    }
                }
                collect_key_nums(v, key, out);
            }
        }
        Value::Arr(items) => {
            for v in items {
                collect_key_nums(v, key, out);
            }
        }
        _ => {}
    }
}
