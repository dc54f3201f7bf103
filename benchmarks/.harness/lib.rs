//! The NEAT-rs performance ledger: six workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run. See
//! `benchmarks/README.md` for every name, unit and clock.
//!
//! One process runs one workload. Output is one `metric <name> <workload>
//! <value> <unit>` line per metric (`n=` is the sample count behind a
//! percentile), one `digest` line, and last a JSON object with exactly the
//! keys `correct`, `attempted`, `failed`, `metrics`.

// The root clippy.toml bans wall-clock types for the simulation crates.
// This harness measures host time and never steers a simulation with it.
#![allow(clippy::disallowed_types)]

pub mod calib;
pub mod fabric;
pub mod layers;
pub mod spanned;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use calib::Timed;
use stats::{percentile, samples_beyond, Digest};
use workloads::{RoundOut, Workload};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile.
    pub samples: Option<usize>,
}

impl Metric {
    pub(crate) fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }
}

/// Untimed rounds before the first timed one, once per set-up.
const WARMUP_ROUNDS: u64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cross-checks that cost a second execution run on every this-many-th round.
const CROSS_CHECK_EVERY: u64 = 10;
/// The digest covers the first this-many rounds — half the 100-round
/// floor — so that runs bounded by `--seconds` digest the same rounds
/// whatever their speed.
const DIGEST_ROUNDS: u64 = 50;
/// Where the spans go, relative to the repository root `run.sh` starts in.
const OUT_DIR: &str = "benchmarks/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run exactly this many timed rounds instead of `seconds` of them
    /// (with a tenth as many warm-up rounds): the smoke mode.
    rounds: Option<u64>,
}

const USAGE: &str =
    "usage: ledger --workload <name> [--seed N] [--seconds S | --rounds R] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 8,
        seconds: 12.0,
        trace: false,
        rounds: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
            }
            "--rounds" => {
                let rounds: u64 = value.parse().map_err(|_| bad("a round count"))?;
                if rounds == 0 {
                    return Err(bad("at least 1"));
                }
                args.rounds = Some(rounds);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Entry point of both binaries. `counting` says whether this binary
/// installed `alloc_counter::CountingAlloc`; `--trace` must agree with it
/// (`run.sh` picks the binary).
pub fn main(counting: bool) -> std::process::ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) if args.trace == counting => args,
        Ok(_) => {
            eprintln!("--trace 1 needs the ledger-traced binary and --trace 0 the ledger one");
            return 2.into();
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2.into();
        }
    };
    let report = if args.trace {
        traced_run(&args, started)
    } else {
        plain_run(&args, started)
    };
    report.print(&args.workload);
    if report.correct {
        0.into()
    } else {
        1.into()
    }
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    rounds_digested: u64,
    digest: Digest,
    /// The metrics BENCHMARK.json declares for this kind of run.
    metrics: Vec<Metric>,
    /// Printed, never gated, and not part of the result line.
    info: Vec<Metric>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            rounds_digested: 0,
            digest: Digest::default(),
            metrics: Vec::new(),
            info: Vec::new(),
        }
    }
}

impl Report {
    /// Accounts one timed round.
    fn record(&mut self, w: &dyn Workload, r: u64, out: &RoundOut) {
        self.attempted += w.work_per_round();
        self.failed += out.failed;
        if r < DIGEST_ROUNDS {
            self.digest.u64(out.digest.0);
            self.rounds_digested += 1;
        }
    }

    fn print(&self, workload: &str) {
        for m in self.metrics.iter().chain(&self.info) {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            let n = m.samples.map_or(String::new(), |n| format!(" n={n}"));
            println!("metric {} {workload} {} {}{n}", m.name, m.value, m.unit);
        }
        println!(
            "digest {workload} {:016x} rounds={} failed_share={}",
            self.digest.0,
            self.rounds_digested,
            self.failed as f64 / self.attempted as f64
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// One round with a panic anywhere inside it counted as the whole round's
/// work failing.
fn timed_round(w: &mut dyn Workload, r: u64) -> Timed<RoundOut> {
    let work = w.work_per_round();
    calib::timed(|| {
        catch_unwind(AssertUnwindSafe(|| w.round(r))).unwrap_or_else(|_| RoundOut {
            failed: work,
            digest: Digest::default(),
        })
    })
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.expect("VmHWM in /proc/self/status") / 1024.0
}

/// Tracing off: the end-to-end metrics.
fn plain_run(args: &Args, started: Instant) -> Report {
    let warmup = args.rounds.map_or(WARMUP_ROUNDS, |r| r.div_ceil(10));
    // Set-up is enumeration (arms, targets, jobs) plus the warm-up rounds,
    // done SETUPS times; the first also covers process start.
    let mut setups = Vec::new();
    let mut w = None;
    for i in 0..SETUPS {
        let since_start = if i == 0 {
            started.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let t = calib::timed(|| {
            let mut fresh =
                workloads::build(&args.workload, args.seed).expect("checked by parse_args");
            for r in 0..warmup {
                fresh.round(r);
            }
            fresh
        });
        setups.push(t.secs + since_start * t.speed);
        w = Some(t.out);
    }
    let mut w = w.expect("SETUPS > 0");

    let mut report = Report::default();
    let (mut times, mut speeds) = (Vec::new(), Vec::new());
    let mut host_secs = 0.0;
    let mut first = None;
    let mut r = 0;
    while args.rounds.map_or(host_secs < args.seconds, |n| r < n) {
        let t = timed_round(w.as_mut(), r);
        times.push(t.secs);
        speeds.push(t.speed);
        host_secs += t.secs / t.speed;
        report.record(w.as_ref(), r, &t.out);
        first.get_or_insert(t.out.digest);
        if r % CROSS_CHECK_EVERY == 0 {
            report.failed += w.cross_check(r);
        }
        r += 1;
    }
    // Round 0 again: the same seed and index must give the same outputs.
    if first != Some(timed_round(w.as_mut(), 0).out.digest) {
        eprintln!("round 0 digest changed between the start and the end of the run");
        report.correct = false;
    }
    report.correct &= report.failed == 0;

    let scaled_secs: f64 = times.iter().sum();
    stats::sort(&mut times);
    let n = times.len();
    if samples_beyond(n, 0.9) < 10 {
        eprintln!("note: {n} rounds leave fewer than 10 samples beyond p90");
    }
    let round_ms = |name: &str, p: f64| {
        let mut m = Metric::new(name, percentile(&times, p) * 1e3, "ms");
        m.samples = Some(n);
        m
    };
    // The rounds at or below `round_ms_p10`. Every round attempts the same
    // work, so they hold that share of it.
    let quiet = &times[..n.div_ceil(10)];
    let quiet_work = w.work_per_round() as f64 * quiet.len() as f64;
    report.metrics = vec![
        Metric::new("setup_s", stats::median(setups), "s"),
        Metric::new(
            "work_per_s",
            quiet_work / quiet.iter().sum::<f64>(),
            "work/s",
        ),
        round_ms("round_ms_p10", 0.1),
    ];
    report.info = vec![
        Metric::new(
            "work_per_s_all",
            report.attempted as f64 / scaled_secs,
            "work/s",
        ),
        round_ms("round_ms_p50", 0.5),
        round_ms("round_ms_p90", 0.9),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("host_speed", stats::median(speeds), "ratio"),
    ];
    report
}

/// Tracing on: the per-layer ledger, then plain and traced rounds of the
/// chosen workload in turn — their ratio is the tracing overhead — and the
/// workload's spans written to `benchmarks/out/<workload>.spans.jsonl`.
fn traced_run(args: &Args, started: Instant) -> Report {
    assert!(
        alloc_counter::is_counting(),
        "ledger-traced must install the counting allocator"
    );
    // Smoke mode takes each layer metric once; a real run, the median of 5.
    let reps = if args.rounds.is_some() { 1 } else { 5 };
    let mut report = Report {
        metrics: layers::ledger(args.seed, reps),
        ..Report::default()
    };

    let mut w = workloads::build(&args.workload, args.seed).expect("checked by parse_args");
    let tracer = trace::Tracer::default();
    w.round(0);
    w.traced_round(0, &tracer);
    tracer.take();

    let (mut plain, mut traced, mut speeds) = (Vec::new(), Vec::new(), Vec::new());
    let mut r = 0;
    // At least three pairs, however long the ledger took.
    while args.rounds.map_or(
        r < 3 || started.elapsed().as_secs_f64() < args.seconds,
        |n| r < n,
    ) {
        // Alternate which side goes first.
        for side in [r % 2, 1 - r % 2] {
            if side == 0 {
                let t = calib::timed(|| w.traced_round(r, &tracer));
                traced.push(t.secs);
                speeds.push(t.speed);
            } else {
                let t = timed_round(w.as_mut(), r);
                plain.push(t.secs);
                speeds.push(t.speed);
                report.record(w.as_ref(), r, &t.out);
            }
        }
        r += 1;
    }
    report.correct = report.failed == 0;

    let path = Path::new(OUT_DIR).join(format!("{}.spans.jsonl", args.workload));
    if let Err(e) = trace::write_jsonl(&path, &tracer.take()) {
        eprintln!("cannot write {}: {e}", path.display());
        report.correct = false;
    }

    let overhead = 100.0 * (stats::median(traced) / stats::median(plain.clone()) - 1.0);
    report.metrics.extend([
        Metric::new("harness.trace_overhead_pct", overhead, "%"),
        Metric::new("harness.round_cv_pct", stats::cv_pct(&plain), "%"),
        Metric::new("harness.host_speed", stats::median(speeds), "ratio"),
    ]);
    report
}
