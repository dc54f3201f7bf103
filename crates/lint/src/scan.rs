//! The static pass: lexer-accurate determinism analysis.
//!
//! v2 of the scanner. Where v1 (since deleted) stripped literals line by
//! line and matched identifiers in the residue, this pass lexes each
//! file into spanned tokens ([`crate::lex`]), collects the per-file
//! import table ([`crate::resolve`]), and walks the token stream with a
//! small amount of structure: attribute tracking for `#[cfg(test)]` and
//! `#[derive(Debug)]`, a brace stack that knows which regions are
//! `struct`/`enum` bodies, and path resolution so `use … as` aliases and
//! fully-qualified paths hit the same rules the bare names do.
//!
//! False positives keep their first-class escape hatch: a
//! `// lint:allow(<rule>, …)` comment suppresses the named rules on its
//! own line and on the line below it. v2 additionally tracks which
//! directives actually suppressed something, so stale annotations are
//! reported by `lint --unused-allows` instead of rotting in place.

use std::fmt;
use std::path::Path;

use crate::lex::{self, Token, TokenKind};
use crate::resolve::Imports;

/// The determinism rules the pass enforces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// `HashMap`/`HashSet` in the protocol/simulation crates: iteration
    /// order is seed-independent, so any iteration leaks nondeterminism
    /// into traces. Use `BTreeMap`/`BTreeSet` or sort first. Catches
    /// `use … as` aliases and `std::collections::…` qualified paths.
    HashIteration,
    /// `Instant`/`SystemTime`: wall-clock time differs between runs.
    /// Simulated code must use `simnet` virtual time.
    WallClock,
    /// `thread_rng`, `OsRng`, `from_entropy`, `getrandom`, `rand::random`:
    /// OS entropy makes runs unrepeatable. Seed a `StdRng` explicitly.
    OsEntropy,
    /// `thread::spawn`, `thread::scope`, `thread::Builder`, and `.spawn()`
    /// calls: OS scheduling is nondeterministic; the simulator is
    /// single-threaded by design. `lint:allow(thread-spawn)` is honored
    /// only inside `crates/fleet` (the audited orchestration layer, which
    /// parallelizes *whole* deterministic runs) and test-like directories.
    ThreadSpawn,
    /// `unsafe` anywhere in the workspace.
    UnsafeCode,
    /// `.unwrap()`/`.expect()` in non-test code of the simulation crates.
    /// Either propagate a `Result` or annotate a genuine invariant.
    UnwrapExpect,
    /// `println!`/`print!`/`eprintln!`/`eprint!` in library code: library
    /// crates must emit through the `obs` layer or returned strings so
    /// output stays part of the deterministic, testable byte stream. Bin
    /// targets (`src/bin/`, `main.rs`) print freely;
    /// `lint:allow(println-in-lib)` is honored only outside the
    /// simulation crates.
    PrintlnInLib,
    /// `std::env` in simulation crates: the process environment is an
    /// input the seed does not control. Bin targets parse their own CLI.
    EnvRead,
    /// `std::fs`/`std::net` in simulation crates: real I/O breaks
    /// deterministic replay; the network is modelled through `simnet`.
    IoInSim,
    /// `f32`/`f64` fields in `struct`/`enum` bodies of simulation crates:
    /// float accumulation order changes results across refactors. Protocol
    /// state wants integer ticks or fixed-point; audited probability knobs
    /// carry a `lint:allow(float-nondet)`.
    FloatNondet,
    /// A `#[derive(Debug)]` type in a simulation crate holding a
    /// `HashMap`/`HashSet` field: execution fingerprints hash the compact
    /// `{:?}` rendering, and Debug iterates hash containers in nondeterministic
    /// order — a direct fingerprint-poisoning vector.
    DebugHashLeak,
}

impl Rule {
    pub const ALL: [Rule; 11] = [
        Rule::HashIteration,
        Rule::WallClock,
        Rule::OsEntropy,
        Rule::ThreadSpawn,
        Rule::UnsafeCode,
        Rule::UnwrapExpect,
        Rule::PrintlnInLib,
        Rule::EnvRead,
        Rule::IoInSim,
        Rule::FloatNondet,
        Rule::DebugHashLeak,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Rule::HashIteration => "hash-iteration",
            Rule::WallClock => "wall-clock",
            Rule::OsEntropy => "os-entropy",
            Rule::ThreadSpawn => "thread-spawn",
            Rule::UnsafeCode => "unsafe-code",
            Rule::UnwrapExpect => "unwrap-expect",
            Rule::PrintlnInLib => "println-in-lib",
            Rule::EnvRead => "env-read",
            Rule::IoInSim => "io-in-sim",
            Rule::FloatNondet => "float-nondet",
            Rule::DebugHashLeak => "debug-hash-leak",
        }
    }

    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a source location.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.path, self.line, self.rule, self.message)
    }
}

/// A `lint:allow` directive that never suppressed a finding — either
/// stale after a fix, out of scope, or naming an unknown rule.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UnusedAllow {
    pub path: String,
    pub line: usize,
    /// The rule name as written (it may not be a known rule at all).
    pub name: String,
}

impl fmt::Display for UnusedAllow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let note = if Rule::from_name(&self.name).is_some() {
            "suppresses nothing"
        } else {
            "unknown rule"
        };
        write!(f, "{}:{}: unused lint:allow({}) — {note}", self.path, self.line, self.name)
    }
}

/// The crates whose `src/` trees carry the strict rules (`hash-iteration`,
/// `unwrap-expect`, and the v2 families): everything that executes inside
/// the simulation, plus `obs`, whose recordings feed the fingerprints.
const STRICT_CRATES: [&str; 11] = [
    "simnet",
    "neat",
    "consensus",
    "repkv",
    "coord",
    "mqueue",
    "gridstore",
    "sched",
    "dfs",
    "obs",
    "workload",
];

#[derive(Clone, Copy, Debug)]
pub(crate) struct FileClass {
    /// Inside a simulation crate (or the root campaign `src/`).
    pub(crate) strict: bool,
    /// Under a `tests/`, `benches/`, or `examples/` directory.
    pub(crate) test_like: bool,
    /// Inside `crates/fleet` — the audited orchestration layer, the one
    /// crate whose `lint:allow(thread-spawn)` directives are honored.
    pub(crate) orchestration: bool,
    /// A binary target (`src/bin/…`, any `main.rs`, `build.rs`): stdout
    /// is its interface, so the print rule does not apply.
    pub(crate) bin_like: bool,
}

pub(crate) fn classify(rel_path: &str) -> FileClass {
    let strict = rel_path.starts_with("src/")
        || STRICT_CRATES.iter().any(|c| {
            rel_path
                .strip_prefix("crates/")
                .and_then(|r| r.strip_prefix(c))
                .is_some_and(|r| r.starts_with('/'))
        });
    let test_like = rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples");
    let orchestration = rel_path.starts_with("crates/fleet/");
    let bin_like = rel_path.split('/').any(|seg| seg == "bin")
        || rel_path.ends_with("main.rs")
        || rel_path.ends_with("build.rs");
    FileClass {
        strict,
        test_like,
        orchestration,
        bin_like,
    }
}

/// One `lint:allow` directive site.
#[derive(Debug)]
struct AllowSite {
    line: usize,
    /// Rule name as written.
    name: String,
    rule: Option<Rule>,
    used: bool,
}

/// Collects `lint:allow(<rule>, …)` directives from comment tokens.
/// Directives inside multi-line block comments attach to the line they
/// are written on, matching the v1 scanner.
fn collect_allows(tokens: &[Token<'_>]) -> Vec<AllowSite> {
    let mut sites = Vec::new();
    // Plain comments only: doc comments *describe* the directive syntax
    // (this crate's own rustdoc quotes it verbatim) and must neither
    // grant suppressions nor show up as stale sites.
    let plain = |t: &&Token<'_>| {
        matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment)
    };
    for t in tokens.iter().filter(plain) {
        for (off, text) in t.text.lines().enumerate() {
            let mut rest = text;
            while let Some(pos) = rest.find("lint:allow(") {
                rest = &rest[pos + "lint:allow(".len()..];
                let Some(end) = rest.find(')') else { break };
                for name in rest[..end].split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        continue;
                    }
                    sites.push(AllowSite {
                        line: t.line + off,
                        name: name.to_string(),
                        rule: Rule::from_name(name),
                        used: false,
                    });
                }
                rest = &rest[end..];
            }
        }
    }
    sites
}

/// A brace region on the walker's stack.
#[derive(Clone, Copy, Default)]
struct Frame {
    /// Opened under a `#[cfg(test)]` attribute.
    test: bool,
    /// A `struct` or `enum` body: its direct contents are fields.
    type_body: bool,
    /// An `enum` body specifically — variant braces nested directly in
    /// it are also field positions.
    is_enum: bool,
    /// The type carries `#[derive(Debug)]`.
    derived_debug: bool,
}

/// Walks the significant tokens of one file and produces raw findings
/// (before allow filtering, deduplicated per line and rule).
struct Walker<'a> {
    path: &'a str,
    class: FileClass,
    imports: &'a Imports,
    findings: Vec<Finding>,
}

impl<'a> Walker<'a> {
    fn push(&mut self, line: usize, rule: Rule, message: String) {
        if self.findings.iter().any(|f| f.line == line && f.rule == rule) {
            return;
        }
        self.findings.push(Finding {
            path: self.path.to_string(),
            line,
            rule,
            message,
        });
    }

    fn run(&mut self, sig: &[Token<'a>]) {
        let mut frames: Vec<Frame> = Vec::new();
        let mut pending_test = false;
        let mut pending_debug = false;
        // Last `struct`/`enum` keyword since the previous item boundary.
        let mut introducer: Option<&str> = None;
        // Generic-parameter depth while an introducer is live, so the
        // parens of `Fn(f64)` bounds are not taken for tuple fields.
        let mut angle_depth = 0usize;
        // Tuple-struct/variant field parens: (derived_debug, paren depth).
        let mut tuple_fields: Option<(bool, usize)> = None;

        let mut i = 0usize;
        while i < sig.len() {
            let t = &sig[i];
            match t.kind {
                TokenKind::Punct => {
                    let c = t.text.chars().next().unwrap_or(' ');
                    match c {
                        '#' => {
                            if let Some(next) = attribute(sig, i) {
                                let (armed_test, armed_debug) = attr_flags(&sig[i..next]);
                                pending_test |= armed_test;
                                pending_debug |= armed_debug;
                                i = next;
                                continue;
                            }
                        }
                        '{' => {
                            let parent = frames.last().copied().unwrap_or_default();
                            let from_introducer =
                                matches!(introducer, Some("struct") | Some("enum") | Some("union"));
                            let variant_body = parent.type_body && parent.is_enum;
                            frames.push(Frame {
                                test: pending_test,
                                type_body: from_introducer || variant_body,
                                is_enum: introducer == Some("enum"),
                                derived_debug: if from_introducer {
                                    pending_debug
                                } else {
                                    variant_body && parent.derived_debug
                                },
                            });
                            pending_test = false;
                            pending_debug = false;
                            introducer = None;
                            angle_depth = 0;
                        }
                        '}' => {
                            frames.pop();
                        }
                        ';' => {
                            pending_test = false;
                            pending_debug = false;
                            introducer = None;
                            angle_depth = 0;
                            tuple_fields = None;
                        }
                        '<' if introducer.is_some() => angle_depth += 1,
                        '>' if introducer.is_some() && angle_depth > 0 => {
                            // `->` is an arrow, not a generics close.
                            let arrow = i > 0
                                && sig[i - 1].is_punct('-')
                                && sig[i - 1].glued(t);
                            if !arrow {
                                angle_depth -= 1;
                            }
                        }
                        '(' => {
                            if let Some((_, depth)) = tuple_fields.as_mut() {
                                *depth += 1;
                            } else {
                                let parent = frames.last().copied().unwrap_or_default();
                                let header = matches!(
                                    introducer,
                                    Some("struct") | Some("union")
                                ) && angle_depth == 0;
                                let variant = parent.type_body;
                                if header || variant {
                                    let debug = if header {
                                        pending_debug
                                    } else {
                                        parent.derived_debug
                                    };
                                    tuple_fields = Some((debug, 1));
                                }
                            }
                        }
                        ')' => {
                            if let Some((_, depth)) = tuple_fields.as_mut() {
                                *depth -= 1;
                                if *depth == 0 {
                                    tuple_fields = None;
                                }
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                TokenKind::Ident => {
                    match t.text {
                        "struct" | "enum" | "union" => {
                            introducer = Some(if t.text == "enum" { "enum" } else { t.text });
                            angle_depth = 0;
                            i += 1;
                            continue;
                        }
                        "fn" | "impl" | "trait" | "mod" => {
                            introducer = None;
                            i += 1;
                            continue;
                        }
                        _ => {}
                    }
                    let after_dot = i > 0 && sig[i - 1].is_punct('.');
                    let in_test = frames.iter().any(|f| f.test);
                    let top = frames.last().copied().unwrap_or_default();
                    let field_pos = top.type_body || tuple_fields.is_some();
                    let field_debug = (top.type_body && top.derived_debug)
                        || tuple_fields.is_some_and(|(d, _)| d);
                    let ctx = Ctx {
                        in_test,
                        field_pos,
                        field_debug,
                    };
                    if after_dot {
                        self.ident_rules(t, sig.get(i + 1), true, &ctx);
                        i += 1;
                        continue;
                    }
                    // A path expression: `a::b::c…`. Ident rules apply to
                    // every segment; path rules to the resolved whole.
                    let start = i;
                    let mut segments: Vec<&str> = vec![t.text];
                    self.ident_rules(t, sig.get(i + 1), false, &ctx);
                    while let (Some(c1), Some(c2), Some(seg)) =
                        (sig.get(i + 1), sig.get(i + 2), sig.get(i + 3))
                    {
                        if c1.is_punct(':')
                            && c2.is_punct(':')
                            && c1.glued(c2)
                            && seg.kind == TokenKind::Ident
                        {
                            segments.push(seg.text);
                            self.ident_rules(seg, sig.get(i + 4), false, &ctx);
                            i += 3;
                        } else {
                            break;
                        }
                    }
                    self.path_rules(sig[start].line, &segments, &ctx);
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }

    /// Rules keyed on a single identifier.
    fn ident_rules(&mut self, t: &Token<'a>, next: Option<&Token<'a>>, after_dot: bool, ctx: &Ctx) {
        let line = t.line;
        let class = self.class;
        match t.text {
            "Instant" | "SystemTime" => self.push(
                line,
                Rule::WallClock,
                format!("`{}`: wall-clock time differs between runs; use simnet virtual time", t.text),
            ),
            "thread_rng" | "OsRng" | "from_entropy" | "getrandom" => self.push(
                line,
                Rule::OsEntropy,
                format!("`{}`: OS entropy makes runs unrepeatable; seed a StdRng explicitly", t.text),
            ),
            "unsafe" => self.push(
                line,
                Rule::UnsafeCode,
                "unsafe code is forbidden workspace-wide".to_string(),
            ),
            "HashMap" | "HashSet" if class.strict => {
                self.push(
                    line,
                    Rule::HashIteration,
                    format!(
                        "`{}` iteration order is nondeterministic in simulation code; \
                         use BTreeMap/BTreeSet or sort before iterating",
                        t.text
                    ),
                );
                self.hash_field_leak(line, t.text, ctx);
            }
            "f32" | "f64" if class.strict && !class.test_like && !ctx.in_test && ctx.field_pos => {
                self.push(
                    line,
                    Rule::FloatNondet,
                    format!(
                        "`{}` field in protocol state: float accumulation order changes \
                         results across refactors; use integer ticks/fixed-point or annotate \
                         an audited knob with lint:allow(float-nondet)",
                        t.text
                    ),
                );
            }
            "println" | "print" | "eprintln" | "eprint"
                if !class.bin_like
                    && !class.test_like
                    && !ctx.in_test
                    && next.is_some_and(|n| n.is_punct('!')) =>
            {
                self.push(
                    line,
                    Rule::PrintlnInLib,
                    format!(
                        "`{}!` in library code; emit through the obs layer or return \
                         strings — stdout belongs to bin targets",
                        t.text
                    ),
                );
            }
            "unwrap" | "expect"
                if after_dot && class.strict && !class.test_like && !ctx.in_test =>
            {
                self.push(
                    line,
                    Rule::UnwrapExpect,
                    format!(
                        "`.{}()` in non-test simulation code; propagate a Result or \
                         annotate a genuine invariant with lint:allow(unwrap-expect)",
                        t.text
                    ),
                );
            }
            "spawn" if after_dot => self.push(
                line,
                Rule::ThreadSpawn,
                "`.spawn()`: scoped/builder spawns are still OS threads; the simulator \
                 is single-threaded"
                    .to_string(),
            ),
            _ => {}
        }
    }

    /// Rules keyed on a resolved path.
    fn path_rules(&mut self, line: usize, segments: &[&str], ctx: &Ctx) {
        // Textual `thread::spawn`-family and `rand::random` pairs fire
        // even unresolved, exactly like v1.
        for pair in segments.windows(2) {
            if pair[0] == "thread" && matches!(pair[1], "spawn" | "scope" | "Builder") {
                self.push(
                    line,
                    Rule::ThreadSpawn,
                    "OS threads introduce scheduling nondeterminism; the simulator is \
                     single-threaded"
                        .to_string(),
                );
            }
            if pair[0] == "rand" && pair[1] == "random" {
                self.push(
                    line,
                    Rule::OsEntropy,
                    "`rand::random` draws from OS entropy; seed a StdRng explicitly".to_string(),
                );
            }
        }

        let canon = self.imports.resolve(segments);
        let seg = |s: &str| canon.iter().any(|c| c == s);
        let class = self.class;
        match canon.first().map(String::as_str) {
            Some("std") => match canon.get(1).map(String::as_str) {
                Some("env")
                    if class.strict && !class.test_like && !class.bin_like && !ctx.in_test =>
                {
                    self.push(
                        line,
                        Rule::EnvRead,
                        "`std::env` reads the process environment — an input the seed does \
                         not control; simulation inputs must come from the scenario"
                            .to_string(),
                    );
                }
                Some(m @ ("fs" | "net"))
                    if class.strict && !class.test_like && !class.bin_like && !ctx.in_test =>
                {
                    self.push(
                        line,
                        Rule::IoInSim,
                        format!(
                            "`std::{m}`: real I/O in simulation code breaks deterministic \
                             replay; model it through simnet"
                        ),
                    );
                }
                Some("collections") if class.strict && (seg("HashMap") || seg("HashSet")) => {
                    let name = if seg("HashMap") { "HashMap" } else { "HashSet" };
                    self.push(
                        line,
                        Rule::HashIteration,
                        format!(
                            "resolves to `std::collections::{name}`: iteration order is \
                             nondeterministic in simulation code; use BTreeMap/BTreeSet \
                             or sort before iterating"
                        ),
                    );
                    self.hash_field_leak(line, name, ctx);
                }
                Some("time") if seg("Instant") || seg("SystemTime") => {
                    self.push(
                        line,
                        Rule::WallClock,
                        "resolves to `std::time::Instant`/`SystemTime`: wall-clock time \
                         differs between runs; use simnet virtual time"
                            .to_string(),
                    );
                }
                Some("thread") if seg("spawn") || seg("scope") || seg("Builder") => {
                    self.push(
                        line,
                        Rule::ThreadSpawn,
                        "OS threads introduce scheduling nondeterminism; the simulator is \
                         single-threaded"
                            .to_string(),
                    );
                }
                _ => {}
            },
            Some("rand")
                if seg("random") || seg("thread_rng") || seg("OsRng") || seg("from_entropy") =>
            {
                self.push(
                    line,
                    Rule::OsEntropy,
                    "resolves to a `rand` OS-entropy source; seed a StdRng explicitly"
                        .to_string(),
                );
            }
            _ => {}
        }
    }

    /// `debug-hash-leak`: a hash container named in a field position of a
    /// `#[derive(Debug)]` type.
    fn hash_field_leak(&mut self, line: usize, name: &str, ctx: &Ctx) {
        if self.class.strict && !self.class.test_like && !ctx.in_test && ctx.field_debug {
            self.push(
                line,
                Rule::DebugHashLeak,
                format!(
                    "`#[derive(Debug)]` type holds a `{name}` field: Debug renders hash \
                     containers in nondeterministic order, poisoning the execution \
                     fingerprint"
                ),
            );
        }
    }
}

/// Per-token context computed by the walker.
struct Ctx {
    in_test: bool,
    /// Directly inside a `struct`/`enum` body or tuple-field parens.
    field_pos: bool,
    /// …and that type derives `Debug`.
    field_debug: bool,
}

/// If `sig[i]` opens an attribute (`#[…]` or `#![…]`), returns the index
/// just past its closing `]`.
fn attribute(sig: &[Token<'_>], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if sig.get(j).is_some_and(|t| t.is_punct('!')) {
        j += 1;
    }
    if !sig.get(j).is_some_and(|t| t.is_punct('[')) {
        return None;
    }
    let mut depth = 0usize;
    for (k, t) in sig.iter().enumerate().skip(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k + 1);
            }
        }
    }
    Some(sig.len())
}

/// Does this attribute token span arm `#[cfg(test)]` and/or carry
/// `derive(… Debug …)`?
fn attr_flags(attr: &[Token<'_>]) -> (bool, bool) {
    let mut test = false;
    let mut debug = false;
    for (k, t) in attr.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "cfg"
            && attr.get(k + 1).is_some_and(|t| t.is_punct('('))
            && attr.get(k + 2).is_some_and(|t| t.kind == TokenKind::Ident && t.text == "test")
            && attr.get(k + 3).is_some_and(|t| t.is_punct(')'))
        {
            test = true;
        }
        if t.text == "derive" && attr.get(k + 1).is_some_and(|t| t.is_punct('(')) {
            let mut depth = 0usize;
            for u in &attr[k + 1..] {
                if u.is_punct('(') {
                    depth += 1;
                } else if u.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if u.kind == TokenKind::Ident && u.text == "Debug" {
                    debug = true;
                }
            }
        }
    }
    (test, debug)
}

/// Everything the analysis knows about one file.
pub struct FileReport {
    pub findings: Vec<Finding>,
    pub unused_allows: Vec<UnusedAllow>,
    pub lines: usize,
    pub tokens: usize,
    pub use_decls: usize,
    pub allow_sites: usize,
    pub allows_used: usize,
    /// Allow-directive sites per rule name (known rules only).
    pub allow_rules: Vec<Rule>,
}

/// Analyzes one already-loaded source file: findings, allow-directive
/// accounting, and scan counters. `rel_path` decides which rules apply
/// (see [`classify`]) and is echoed into the findings.
pub fn analyze_source(rel_path: &str, source: &str) -> FileReport {
    let class = classify(rel_path);
    let tokens = lex::lex(source);
    let imports = Imports::collect(&tokens);
    let mut allows = collect_allows(&tokens);

    let sig: Vec<Token<'_>> = tokens.iter().filter(|t| !t.is_comment()).copied().collect();
    let mut walker = Walker {
        path: rel_path,
        class,
        imports: &imports,
        findings: Vec::new(),
    };
    walker.run(&sig);

    // Allow filtering: a directive suppresses its rule on its own line and
    // the line below — unless the rule's escape hatch is scoped away from
    // this file. Every matching directive is marked used.
    let scope_ok = |rule: Rule| -> bool {
        if rule == Rule::ThreadSpawn && !class.orchestration && !class.test_like {
            return false;
        }
        if rule == Rule::PrintlnInLib && class.strict && !class.test_like {
            return false;
        }
        true
    };
    let mut findings = Vec::new();
    for f in walker.findings {
        let mut suppressed = false;
        if scope_ok(f.rule) {
            for site in allows.iter_mut() {
                if site.rule == Some(f.rule) && (site.line == f.line || site.line + 1 == f.line) {
                    site.used = true;
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            findings.push(f);
        }
    }

    let unused_allows = allows
        .iter()
        .filter(|s| !s.used)
        .map(|s| UnusedAllow {
            path: rel_path.to_string(),
            line: s.line,
            name: s.name.clone(),
        })
        .collect();
    FileReport {
        findings,
        unused_allows,
        lines: source.lines().count(),
        tokens: tokens.len(),
        use_decls: imports.use_decls,
        allow_sites: allows.len(),
        allows_used: allows.iter().filter(|s| s.used).count(),
        allow_rules: allows.iter().filter_map(|s| s.rule).collect(),
    }
}

/// Scans one already-loaded source file, returning only the findings.
pub fn scan_source(rel_path: &str, source: &str) -> Vec<Finding> {
    analyze_source(rel_path, source).findings
}

/// Deterministic counters for the whole-workspace scan, the payload of
/// `BENCH_lint.json`.
#[derive(Debug)]
pub struct ScanStats {
    pub files: usize,
    pub lines: usize,
    pub tokens: usize,
    pub use_decls: usize,
    pub allow_sites: usize,
    pub allows_used: usize,
    /// `(rule, findings, allow sites)` for every rule, in `Rule::ALL` order.
    pub per_rule: Vec<(Rule, usize, usize)>,
}

/// The whole-workspace analysis.
pub struct WorkspaceReport {
    pub findings: Vec<Finding>,
    pub unused_allows: Vec<UnusedAllow>,
    pub stats: ScanStats,
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures` directories hold deliberate violations for the
            // lint crate's own tests; they are inputs, not workspace code.
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Every `.rs` file under `root` (skipping `target/`, `fixtures/` and dot
/// directories) as a `/`-separated path relative to `root`, sorted.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

/// Analyzes every [`workspace_files`] entry, in sorted path order for
/// deterministic output.
pub fn analyze_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let files = workspace_files(root)?;
    let mut findings = Vec::new();
    let mut unused_allows = Vec::new();
    let mut stats = ScanStats {
        files: 0,
        lines: 0,
        tokens: 0,
        use_decls: 0,
        allow_sites: 0,
        allows_used: 0,
        per_rule: Rule::ALL.iter().map(|&r| (r, 0, 0)).collect(),
    };
    for rel in files {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let report = analyze_source(&rel, &source);
        stats.files += 1;
        stats.lines += report.lines;
        stats.tokens += report.tokens;
        stats.use_decls += report.use_decls;
        stats.allow_sites += report.allow_sites;
        stats.allows_used += report.allows_used;
        for f in &report.findings {
            if let Some(row) = stats.per_rule.iter_mut().find(|(r, _, _)| *r == f.rule) {
                row.1 += 1;
            }
        }
        for r in &report.allow_rules {
            if let Some(row) = stats.per_rule.iter_mut().find(|(pr, _, _)| pr == r) {
                row.2 += 1;
            }
        }
        findings.extend(report.findings);
        unused_allows.extend(report.unused_allows);
    }
    Ok(WorkspaceReport {
        findings,
        unused_allows,
        stats,
    })
}

/// Scans every `.rs` file under `root`, returning only the findings.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(analyze_workspace(root)?.findings)
}

/// Renders findings as a JSON array for machine consumption (`--json`).
/// The output parses back through `study::json::parse` — see the
/// round-trip test in `tests/lint_gate.rs`.
pub fn findings_to_json(findings: &[Finding]) -> String {
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            let row = study::obj! {
                "path" => f.path.as_str(),
                "line" => f.line,
                "rule" => f.rule.name(),
                "message" => f.message.as_str(),
            };
            format!("\n  {}", row.to_json())
        })
        .collect();
    let end = if findings.is_empty() { "" } else { "\n" };
    format!("[{}{end}]", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STRICT_FILE: &str = "crates/simnet/src/fabric.rs";
    const LOOSE_FILE: &str = "crates/study/src/types.rs";

    fn rules(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn wall_clock_and_entropy_fire_everywhere() {
        let src = "fn f() { let t = std::time::Instant::now(); let r = rand::thread_rng(); }\n";
        let fs = scan_source(LOOSE_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::WallClock, Rule::OsEntropy]);
        assert_eq!(fs[0].line, 1);
    }

    #[test]
    fn hash_types_fire_only_in_strict_crates() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::HashIteration]);
        assert!(scan_source(LOOSE_FILE, src).is_empty());
    }

    #[test]
    fn unwrap_fires_only_in_strict_non_test_code() {
        let src = "fn f() { x.unwrap(); }\nfn g() { y.expect(\"msg\"); }\n";
        assert_eq!(
            rules(&scan_source(STRICT_FILE, src)),
            vec![Rule::UnwrapExpect, Rule::UnwrapExpect]
        );
        assert!(scan_source(LOOSE_FILE, src).is_empty());
        assert!(scan_source("crates/simnet/tests/props.rs", src).is_empty());
    }

    #[test]
    fn repeated_hits_on_one_line_dedup_to_one_finding() {
        let src = "fn f() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::UnwrapExpect]);
    }

    #[test]
    fn expect_err_is_not_expect() {
        let src = "fn f() { y.expect_err(\"must fail\"); }\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_unwrap() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\nfn h() { y.unwrap(); }\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 6);
    }

    #[test]
    fn cfg_not_test_does_not_open_a_test_region() {
        let src = "#[cfg(not(test))]\nmod real {\n    fn g() { x.unwrap(); }\n}\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::UnwrapExpect]);
    }

    #[test]
    fn string_line_continuations_keep_line_numbers_true() {
        let src = "fn f() { let s = \"a \\\n        b\"; }\nfn g() { x.unwrap(); }\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = concat!(
            "// HashMap Instant thread_rng\n",
            "/* unsafe SystemTime */\n",
            "fn f() { let s = \"HashMap unsafe\"; let r = r#\"Instant \"quoted\"\"#; }\n",
        );
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn char_literals_and_lifetimes_are_skipped() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\"'; let d = '\\''; c }\nfn g() { q.unwrap(); }\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::UnwrapExpect]);
        assert_eq!(fs[0].line, 2);
    }

    #[test]
    fn backslash_char_literal_does_not_hide_code() {
        // v1's state machine over-consumed `'\\'` and swallowed the rest
        // of the line — this is one of the lexer's reasons to exist.
        let src = "fn f() { let c = '\\\\'; x.unwrap(); }\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::UnwrapExpect]);
    }

    #[test]
    fn raw_identifiers_do_not_fire_keyword_rules() {
        // v1 fired unsafe-code on `r#unsafe`, which is just an identifier.
        let src = "fn f() { let r#unsafe = 1; }\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = concat!(
            "fn f() { x.unwrap(); } // lint:allow(unwrap-expect)\n",
            "// lint:allow(wall-clock)\n",
            "fn g() { std::time::Instant::now(); }\n",
            "fn h() { y.unwrap(); }\n",
        );
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 4);
    }

    #[test]
    fn allow_of_wrong_rule_does_not_suppress() {
        let src = "fn f() { x.unwrap(); } // lint:allow(wall-clock)\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::UnwrapExpect]);
    }

    #[test]
    fn allow_accepts_multiple_rules() {
        let src = "// lint:allow(wall-clock, os-entropy)\nfn f() { Instant::now(); thread_rng(); }\n";
        assert!(scan_source(LOOSE_FILE, src).is_empty());
    }

    #[test]
    fn allow_on_final_line_without_newline_works() {
        let src = "fn f() { x.unwrap() } // lint:allow(unwrap-expect)";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn unused_allows_are_reported_with_rule_names() {
        let src = concat!(
            "// lint:allow(wall-clock)\n",
            "fn f() {}\n",
            "// lint:allow(unwrap-expect) -- used below\n",
            "fn g() { x.unwrap(); }\n",
            "// lint:allow(not-a-rule)\n",
        );
        let report = analyze_source(STRICT_FILE, src);
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
        let names: Vec<(usize, &str)> = report
            .unused_allows
            .iter()
            .map(|u| (u.line, u.name.as_str()))
            .collect();
        assert_eq!(names, vec![(1, "wall-clock"), (5, "not-a-rule")]);
        assert_eq!(report.allow_sites, 3);
        assert_eq!(report.allows_used, 1);
    }

    #[test]
    fn scope_ignored_allows_count_as_unused() {
        // thread-spawn allows are dead weight inside a simulation crate.
        let src = "// lint:allow(thread-spawn)\nfn f() { std::thread::spawn(|| {}); }\n";
        let report = analyze_source(STRICT_FILE, src);
        assert_eq!(rules(&report.findings), vec![Rule::ThreadSpawn]);
        assert_eq!(report.unused_allows.len(), 1);
    }

    #[test]
    fn unsafe_and_thread_spawn_fire() {
        let src = "fn f() { unsafe { std::thread::spawn(|| {}); } }\n";
        let fs = scan_source(LOOSE_FILE, src);
        assert!(fs.iter().any(|f| f.rule == Rule::UnsafeCode), "{fs:?}");
        assert!(fs.iter().any(|f| f.rule == Rule::ThreadSpawn), "{fs:?}");
    }

    #[test]
    fn scoped_and_builder_spawns_fire() {
        let src = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let fs = scan_source(LOOSE_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::ThreadSpawn], "{fs:?}");
        let src = "fn g() { std::thread::Builder::new(); }\n";
        assert_eq!(rules(&scan_source(LOOSE_FILE, src)), vec![Rule::ThreadSpawn]);
        let src = "fn h() { builder.spawn(work)?; }\n";
        assert_eq!(rules(&scan_source(LOOSE_FILE, src)), vec![Rule::ThreadSpawn]);
    }

    #[test]
    fn thread_spawn_allows_are_scoped_to_the_fleet_crate() {
        let src = "// lint:allow(thread-spawn)\nfn f() { std::thread::spawn(|| {}); }\n";
        // The orchestration crate may annotate audited exceptions…
        assert!(scan_source("crates/fleet/src/pool.rs", src).is_empty());
        // …and test-like dirs keep the escape hatch…
        assert!(scan_source("crates/simnet/tests/t.rs", src).is_empty());
        // …but the same directive inside a simulation crate is ignored.
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::ThreadSpawn]);
        assert_eq!(rules(&scan_source(LOOSE_FILE, src)), vec![Rule::ThreadSpawn]);
        assert_eq!(rules(&scan_source("src/campaign.rs", src)), vec![Rule::ThreadSpawn]);
    }

    #[test]
    fn print_macros_fire_in_library_code_only() {
        let src = "fn f() { println!(\"x\"); }\nfn g() { eprint!(\"y\"); }\n";
        assert_eq!(
            rules(&scan_source(STRICT_FILE, src)),
            vec![Rule::PrintlnInLib, Rule::PrintlnInLib]
        );
        assert_eq!(rules(&scan_source(LOOSE_FILE, src)), vec![Rule::PrintlnInLib, Rule::PrintlnInLib]);
        // Bin targets own stdout.
        assert!(scan_source("crates/bench/src/bin/campaign.rs", src).is_empty());
        assert!(scan_source("crates/lint/src/main.rs", src).is_empty());
        // Tests and examples print freely.
        assert!(scan_source("crates/simnet/tests/t.rs", src).is_empty());
        assert!(scan_source("examples/demo.rs", src).is_empty());
    }

    #[test]
    fn print_calls_without_bang_do_not_fire() {
        let src = "fn f(p: &Printer) { p.print(); report.println(1); }\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn cfg_test_blocks_may_print() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { println!(\"dbg\"); }\n}\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn println_allows_are_ignored_in_simulation_crates() {
        let src = "// lint:allow(println-in-lib)\nfn f() { println!(\"x\"); }\n";
        // Non-simulation library code may annotate audited exceptions…
        assert!(scan_source(LOOSE_FILE, src).is_empty());
        // …but a simulation crate cannot waive the rule.
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::PrintlnInLib]);
        assert_eq!(rules(&scan_source("src/campaign.rs", src)), vec![Rule::PrintlnInLib]);
    }

    #[test]
    fn root_src_is_strict() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(rules(&scan_source("src/campaign.rs", src)), vec![Rule::UnwrapExpect]);
    }

    #[test]
    fn obs_is_strict() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules(&scan_source("crates/obs/src/recorder.rs", src)),
            vec![Rule::UnwrapExpect]
        );
    }

    #[test]
    fn aliased_hash_imports_are_resolved() {
        // The import line itself is caught by the ident rule; the alias
        // use-sites only fall to the resolver.
        // The allow covers the import line and the line below it only —
        // alias use-sites further down still fire.
        let src = "use std::collections::HashMap as Map; // lint:allow(hash-iteration)\n\
                   \n\
                   fn f() { let m: Map<u8, u8> = Map::new(); }\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::HashIteration]);
        assert_eq!(fs[0].line, 3);
        assert!(fs[0].message.contains("resolves to"), "{}", fs[0].message);
    }

    #[test]
    fn qualified_paths_fire_without_imports() {
        let src = "fn f() { let m = std::collections::HashMap::<u8, u8>::new(); }\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::HashIteration]);
        // Aliased wall-clock types resolve too.
        let src = "use std::time::Instant as Clock; // lint:allow(wall-clock)\n\
                   \n\
                   fn f() { let t = Clock::now(); }\n";
        let fs = scan_source(LOOSE_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::WallClock]);
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn env_read_fires_in_strict_crates_only() {
        let src = "fn f() { let v = std::env::var(\"SEED\"); }\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::EnvRead]);
        assert!(scan_source(LOOSE_FILE, src).is_empty());
        // Bin targets own their CLI/environment.
        assert!(scan_source("crates/simnet/src/main.rs", src).is_empty());
        // Aliased module imports resolve.
        let src = "use std::env as environment;\nfn f() { environment::var(\"X\"); }\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::EnvRead, Rule::EnvRead]);
    }

    #[test]
    fn env_macro_is_not_env_read() {
        let src = "fn f() -> &'static str { env!(\"CARGO_MANIFEST_DIR\") }\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn io_in_sim_fires_for_fs_and_net() {
        let src = "fn f() { let _ = std::fs::read(\"x\"); }\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::IoInSim]);
        let src = "use std::net::TcpStream;\nfn f(s: TcpStream) {}\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::IoInSim, Rule::IoInSim]);
        // Non-simulation crates may do I/O.
        let src = "fn f() { let _ = std::fs::read(\"x\"); }\n";
        assert!(scan_source("crates/bench/src/reports.rs", src).is_empty());
        assert!(scan_source("crates/simnet/tests/t.rs", src).is_empty());
    }

    #[test]
    fn float_fields_fire_in_type_bodies_only() {
        let src = "struct Cfg { p: f64 }\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::FloatNondet]);
        // Locals, params, and returns are fine — accumulation in state is
        // the hazard, not arithmetic.
        let src = "fn f(x: f64) -> f64 { let y: f32 = 0.5; x }\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
        // Tuple structs and enum variants are fields too.
        let src = "struct P(f64);\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::FloatNondet]);
        let src = "enum E { V { p: f64 }, W(f32) }\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::FloatNondet]);
        // Not strict ⇒ not checked.
        let src = "struct Cfg { p: f64 }\n";
        assert!(scan_source(LOOSE_FILE, src).is_empty());
        // Test fixtures may hold floats.
        let src = "#[cfg(test)]\nmod t { struct S { p: f64 } }\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn float_generic_bounds_are_not_fields() {
        let src = "struct S<F: Fn(f64) -> f64> { f: F }\n";
        assert!(scan_source(STRICT_FILE, src).is_empty());
    }

    #[test]
    fn debug_hash_leak_fires_on_derived_types_with_hash_fields() {
        let src = "// lint:allow(hash-iteration)\n\
                   use std::collections::HashMap;\n\
                   #[derive(Clone, Debug)]\n\
                   struct State { m: HashMap<u8, u8> } // lint:allow(hash-iteration)\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::DebugHashLeak]);
        assert_eq!(fs[0].line, 4);
        // Without derive(Debug) only hash-iteration fires.
        let src = "struct State { m: HashMap<u8, u8> }\n";
        assert_eq!(rules(&scan_source(STRICT_FILE, src)), vec![Rule::HashIteration]);
        // Aliased field types leak just the same.
        let src = "// lint:allow(hash-iteration)\n\
                   use std::collections::HashSet as Seen;\n\
                   #[derive(Debug)]\n\
                   pub struct Tracker(Seen<u64>); // lint:allow(hash-iteration)\n";
        let fs = scan_source(STRICT_FILE, src);
        assert_eq!(rules(&fs), vec![Rule::DebugHashLeak]);
    }

    #[test]
    fn findings_render_as_path_line_rule() {
        let fs = scan_source(STRICT_FILE, "fn f() { x.unwrap(); }\n");
        let line = fs[0].to_string();
        assert!(
            line.starts_with("crates/simnet/src/fabric.rs:1: unwrap-expect:"),
            "{line}"
        );
    }

    #[test]
    fn json_output_is_well_formed() {
        let fs = scan_source(STRICT_FILE, "fn f() { x.unwrap(); }\n");
        let json = findings_to_json(&fs);
        assert!(json.contains("\"rule\":\"unwrap-expect\""), "{json}");
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert_eq!(findings_to_json(&[]), "[]");
    }
}
