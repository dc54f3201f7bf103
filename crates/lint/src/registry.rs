//! The registry-consistency pass.
//!
//! `src/campaign.rs` is the single source of truth for scenario and arm
//! IDs, but two places repeat those names where no regenerated artifact
//! sees them: the Table 15 / catalog-coverage mappings inside the
//! campaign itself, and string literals in the workspace tests. A typo or
//! a renamed scenario silently decays into "not modelled" rows and dead
//! test references — this pass makes that a lint failure instead.
//!
//! Two checks, each a cheap cross-reference:
//!
//! - every scenario named by `table15` / `catalog_coverage` is
//!   registered (dead internal references);
//! - arm-shaped string literals (`…/flawed`, `…/fixed`) in the root
//!   `tests/` tree name registered scenarios.
//!
//! The committed golden artifacts need no check here: every one of them
//! is regenerated and compared byte for byte by `tests/golden_outputs.rs`
//! (the `bench::ARTIFACTS` table), which a stale scenario name fails.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lex::{self, TokenKind};

/// One inconsistency between the registry and a site that repeats its names.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RegistryFinding {
    /// The reference site the registry disagrees with.
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

/// Runs both checks. The registry itself comes from the linked
/// `neat_repro::campaign`, so the pass compares the *code's* scenario set
/// against the names the campaign tables and the tests under `root`
/// repeat.
pub fn check_registry(root: &Path) -> RegistryReport {
    let registered: BTreeSet<String> = neat_repro::campaign::registry()
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    let mut findings = Vec::new();
    check_internal_references(&registered, &mut findings);
    check_test_references(root, &registered, &mut findings);
    RegistryReport {
        scenarios: registered.len(),
        arms: neat_repro::campaign::arm_ids().len(),
        findings,
    }
}

fn push(findings: &mut Vec<RegistryFinding>, artifact: &str, message: String) {
    findings.push(RegistryFinding {
        artifact: artifact.to_string(),
        message,
    });
}

/// Table 15 and catalog-coverage rows reference live scenarios.
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

/// Arm-shaped string literals in the root `tests/` tree.
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
