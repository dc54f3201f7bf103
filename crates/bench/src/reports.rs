//! The exact bytes of every committed artifact but `BENCH_perf.json`
//! (see [`crate::perf_bench`]).
//!
//! Everything here returns a full byte stream, so the rows of
//! [`crate::ARTIFACTS`] regenerate the committed files in-process and the
//! tier-1 golden test fails the build when one goes stale. `cargo run -p
//! fleet` and the `tables` and `figures` binaries `print!` the same streams.

use std::fmt::Write as _;
use std::path::Path;

use neat::explore::{explore, Strategy};
use neat_repro::campaign::{scenarios_of, ScenarioClass};
use simnet::{Application, Ctx, NodeId, TimerId, WorldBuilder};
use study::{catalog, json::Value, obj, stats, PartitionType, Source, Timing};

/// `writeln!` into a `String` (which cannot fail).
macro_rules! w {
    ($out:expr) => { let _ = writeln!($out); };
    ($out:expr, $($t:tt)*) => { let _ = writeln!($out, $($t)*); };
}

// --- campaign ------------------------------------------------------------

/// Exact stdout of `cargo run -p fleet` with no arguments:
/// the full serial campaign at the historical seed 8.
pub fn campaign_report() -> String {
    format!("{}\n", fleet::cli::report(&fleet::cli::Opts::default()))
}

// --- tables --------------------------------------------------------------

fn render_appendix(out: &mut String) {
    w!(out, "Table 14/15 — the failure catalog (appendix fields as transcribed)");
    w!(
        out,
        "  {:>3} {:<15} {:<8} {:<7} {:<30} {:<9} {:<14}",
        "id", "system", "source", "ref", "impact", "partition", "timing"
    );
    for f in catalog() {
        let source = match f.source {
            Source::IssueTracker => "tracker",
            Source::Jepsen => "jepsen",
            Source::Neat => "NEAT",
        };
        let partition = match f.partition {
            PartitionType::Complete => "complete",
            PartitionType::Partial => "partial",
            PartitionType::Simplex => "simplex",
        };
        let timing = match f.timing {
            Timing::Deterministic => "deterministic",
            Timing::Fixed => "fixed",
            Timing::Bounded => "bounded",
            Timing::Unknown => "unknown",
        };
        w!(
            out,
            "  {:>3} {:<15} {:<8} {:<7} {:<30} {:<9} {:<14}",
            f.id,
            f.system.name(),
            source,
            f.reference,
            f.impact.label(),
            partition,
            timing
        );
    }
    w!(out);
}

/// Exact stdout of `cargo run -p bench --bin tables`. `Err` carries the
/// diagnostic the binary prints to stderr before exiting non-zero.
pub fn tables_report() -> Result<String, String> {
    let mut out = String::new();
    w!(out, "== An Analysis of Network-Partitioning Failures in Cloud Systems ==");
    w!(out, "== Table regeneration: paper vs this reproduction ==\n");

    // Table 1 has a different shape (absolute counts per system).
    w!(out, "Table 1 — List of studied systems");
    w!(
        out,
        "  {:<15} {:<16} {:>8} {:>8} {:>10} {:>10}",
        "system", "consistency", "paper#", "ours#", "paper-cat", "ours-cat"
    );
    let mut totals = (0, 0, 0, 0);
    for (s, consistency, pt, t, pc, c) in stats::table1() {
        w!(
            out,
            "  {:<15} {:<16} {:>8} {:>8} {:>10} {:>10}",
            s.name(),
            consistency,
            pt,
            t,
            pc,
            c
        );
        totals = (totals.0 + pt, totals.1 + t, totals.2 + pc, totals.3 + c);
    }
    w!(
        out,
        "  {:<15} {:<16} {:>8} {:>8} {:>10} {:>10}\n",
        "Total", "-", totals.0, totals.1, totals.2, totals.3
    );

    for t in stats::all_tables() {
        w!(out, "{}", t.render());
    }

    let (_, design_days, impl_days) = stats::table12();
    w!(
        out,
        "Table 12 resolution times: design {design_days:.0} days (paper: 205), \
         implementation {impl_days:.0} days (paper: 81)\n"
    );

    render_appendix(&mut out);

    let Some(worst) = stats::all_tables()
        .into_iter()
        .map(|t| (t.id, t.max_delta()))
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return Err("tables: statistics engine produced no tables".to_string());
    };
    w!(
        out,
        "largest paper-vs-measured delta across all tables: {:.1} points ({})",
        worst.1, worst.0
    );
    Ok(out)
}

// --- figures -------------------------------------------------------------

/// A do-nothing application for the Figure 1 connectivity demo.
struct Idle;
impl Application for Idle {
    type Msg = ();
    fn on_start(&mut self, _: &mut Ctx<'_, ()>) {}
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
    fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerId, _: u64) {}
}

fn figure1(out: &mut String) {
    w!(out, "== Figure 1: the three network-partitioning fault types ==\n");
    fn show(out: &mut String, title: &str, f: &dyn Fn(&mut neat::Neat<Idle>) -> neat::Partition) {
        let mut engine = neat::Neat::new(WorldBuilder::new(1).build(5, |_| Idle));
        let p = f(&mut engine);
        w!(out, "{title} (1 = i→j flows):");
        w!(out, "{}", engine.world.net().connectivity_matrix(5));
        engine.heal(&p);
        w!(out, "after heal:");
        w!(out, "{}", engine.world.net().connectivity_matrix(5));
    }
    let g1 = [NodeId(0), NodeId(1)];
    let g2 = [NodeId(2), NodeId(3), NodeId(4)];
    show(out, "(a) complete partition {0,1} | {2,3,4}", &|e| {
        e.partition_complete(&g1, &g2)
    });
    let g2b = [NodeId(2), NodeId(3)];
    show(out, "(b) partial partition {0,1} | {2,3}; node 4 bridges", &|e| {
        e.partition_partial(&g1, &g2b)
    });
    show(out, "(c) simplex partition: {0,1} → {2,3,4} dropped", &|e| {
        e.partition_simplex(&g1, &g2)
    });
}

fn figure2(out: &mut String) {
    w!(out, "== Figure 2: dirty read in VoltDB (ENG-10389) ==\n");
    let o = repkv::scenarios::dirty_and_stale_read(repkv::Config::voltdb(), 7, true);
    w!(out, "{}", o.timeline.render());
    let fixed = repkv::scenarios::dirty_and_stale_read(repkv::Config::fixed(), 7, false);
    w!(out, "  fixed profile violations: {}\n", fixed.violations.len());
}

fn figure3(out: &mut String) {
    w!(out, "== Figure 3: MapReduce double execution (MAPREDUCE-4819) ==\n");
    let o = sched::double_execution(
        sched::MrFlaws {
            relaunch_without_checking: true,
        },
        81,
        true,
    );
    w!(out, "{}", o.timeline.render());
    let fixed = sched::double_execution(
        sched::MrFlaws {
            relaunch_without_checking: false,
        },
        81,
        false,
    );
    w!(out, "  fixed ResourceManager violations: {}\n", fixed.violations.len());
}

fn figure5(out: &mut String) {
    w!(out, "== Figure 5: Ignite semaphore double locking (IGNITE-8882) ==\n");
    let o = gridstore::scenarios::semaphore_double_lock(gridstore::GridFlaws::flawed(), 61, true);
    w!(out, "{}", o.timeline.render());
    let fixed =
        gridstore::scenarios::semaphore_double_lock(gridstore::GridFlaws::fixed(), 61, false);
    w!(
        out,
        "  with split-brain protection: {} violations\n",
        fixed.violations.len()
    );
}

fn figure6(out: &mut String) {
    w!(out, "== Figure 6: ActiveMQ hangs under a partial partition (AMQ-7064) ==\n");
    let o = mqueue::scenarios::fig6_hang(mqueue::BrokerFlaws::flawed(), 41, true);
    w!(out, "{}", o.timeline.render());
    let fixed = mqueue::scenarios::fig6_hang(mqueue::BrokerFlaws::fixed(), 41, false);
    w!(out, "  fixed brokers violations: {}\n", fixed.violations.len());
}

fn bounded_timing(out: &mut String) {
    w!(out, "== §5.2: a bounded-timing failure — the fault must overlap a sync ==\n");
    let flawed = coord::CoordFlaws {
        apply_chunks_in_place: true,
        ..coord::CoordFlaws::default()
    };
    let o = coord::scenarios::sync_interrupted_corruption(flawed, 57, true);
    w!(out, "{}", o.timeline.render());
    let fixed = coord::scenarios::sync_interrupted_corruption(coord::CoordFlaws::default(), 57, false);
    w!(
        out,
        "  atomic chunk installation (fixed): {} violations\n",
        fixed.violations.len()
    );
}

fn finding13(out: &mut String) {
    w!(out, "== Finding 13 / §5.4: findings-guided vs naive random testing ==\n");
    let trials = 40;
    for (name, config) in [
        ("VoltDB profile", repkv::Config::voltdb()),
        ("Elasticsearch profile", repkv::Config::elasticsearch()),
        ("fixed baseline", repkv::Config::fixed()),
    ] {
        let mut target = repkv::RepkvTarget::new(config);
        let guided = explore(&mut target, &Strategy::findings_guided(), trials, 99);
        let naive = explore(&mut target, &Strategy::naive(3), trials, 99);
        w!(
            out,
            "  {name:<24} guided: {:>2}/{trials} trials hit (first at #{:?})   naive: {:>2}/{trials}",
            guided.trials_with_violation,
            guided.first_violation_trial,
            naive.trials_with_violation,
        );
    }
    // The data grid gives the explorer the full Table 8 palette (locks,
    // queues, counters).
    for (name, flaws) in [
        ("Ignite-like grid (flawed)", gridstore::GridFlaws::flawed()),
        ("grid + protection (fixed)", gridstore::GridFlaws::fixed()),
    ] {
        let mut target = gridstore::GridTarget::new(flaws);
        let guided = explore(&mut target, &Strategy::findings_guided(), trials, 99);
        let naive = explore(&mut target, &Strategy::naive(3), trials, 99);
        w!(
            out,
            "  {name:<24} guided: {:>2}/{trials} trials hit (first at #{:?})   naive: {:>2}/{trials}",
            guided.trials_with_violation,
            guided.first_violation_trial,
            naive.trials_with_violation,
        );
    }
    w!(
        out,
        "\n  Shape check: guided >> naive on flawed profiles, both zero on the fixed\n  \
         baseline — the paper's testability claim (93% reproducible via guided tests)."
    );
}

/// Exact stdout of `cargo run -p bench --bin figures`.
pub fn figures_report() -> String {
    let mut out = String::new();
    figure1(&mut out);
    figure2(&mut out);
    figure3(&mut out);
    figure5(&mut out);
    figure6(&mut out);
    bounded_timing(&mut out);
    finding13(&mut out);
    w!(
        out,
        "(Figure 4 — the NEAT architecture — is this framework itself; its \
              overhead is measured by the ledger in `benchmarks/`.)"
    );
    out
}

// --- forensics -----------------------------------------------------------

/// Exact content of `forensics_output.txt`: every flawed arm of the
/// campaign run at the historical seed 8 with trace recording on, each
/// explained as a Listing-1/2-style failure timeline.
pub fn forensics_report() -> String {
    let reports = neat_repro::campaign::forensic_reports(8);
    neat_repro::campaign::render_forensics(8, &reports)
}

/// Exact content of `verdicts.txt`, the verdict oracle: every arm of the
/// campaign, recorded, at seeds 8 and 42 (see
/// [`neat_repro::campaign::render_verdicts`]).
pub fn verdicts_report() -> String {
    [8, 42].into_iter().map(neat_repro::campaign::render_verdicts).collect()
}

/// Exact content of `audit_hashes.txt`: the stdout of `lint --audit` at
/// seeds 8 and 42, one execution-fingerprint hash per arm and seed. A
/// change that moves one byte of any arm's fingerprint moves a line here.
pub fn audit_hashes_report() -> String {
    [8, 42]
        .into_iter()
        .map(|seed| lint::audit_text(seed, &fleet::campaign::audit(seed, 1)))
        .collect()
}

/// The `forensics` binary's stdout: the seed-8 sweep as JSONL, one
/// `report` header line per scenario followed by its timeline events.
pub fn forensics_jsonl() -> String {
    neat_repro::campaign::forensics_jsonl(&neat_repro::campaign::forensic_reports(8))
}

/// Exact content of `BENCH_forensics.json`: the simulation counters of
/// the seed-8 forensics sweep, aggregate and per scenario. Fully
/// deterministic and golden-tested byte-for-byte.
pub fn forensics_machine_json() -> String {
    let reports = neat_repro::campaign::forensic_reports(8);
    let detected = reports.iter().filter(|r| r.detected()).count();
    let mut total = neat::obs::Counters::default();
    for r in &reports {
        total.merge(&r.timeline.counters);
    }
    let counters = |c: &neat::obs::Counters| {
        obj! {
            "events_simulated" => c.events_simulated,
            "messages_dropped" => c.messages_dropped,
            "ops_ordered" => c.ops_ordered,
            "partitions_installed" => c.partitions_installed,
            "heals" => c.heals,
            "degrades_installed" => c.degrades_installed,
            "degrade_heals" => c.degrade_heals,
            "crashes" => c.crashes,
            "restarts" => c.restarts,
            "verdicts" => c.verdicts,
            "load_samples" => c.load_samples,
        }
    };
    let per_scenario: Vec<Value> = reports
        .iter()
        .map(|r| {
            obj! {
                "scenario" => r.scenario.as_str(),
                "violations" => r.violations.len(),
                "events" => r.timeline.len(),
                "counters" => counters(&r.timeline.counters),
            }
        })
        .collect();
    let doc = obj! {
        "bench" => "forensics",
        "seed" => 8u64,
        "scenarios" => reports.len(),
        "detected" => detected,
        "counters" => counters(&total),
        "per_scenario" => per_scenario,
    };
    format!("{}\n", doc.pretty())
}

// --- gray failures -------------------------------------------------------

/// The distinct violation kinds in `vs`, sorted by name.
fn kinds(vs: &[neat::Violation]) -> Value {
    let mut kinds: Vec<String> = vs.iter().map(|v| v.kind.to_string()).collect();
    kinds.sort();
    kinds.dedup();
    kinds.into()
}

/// Exact content of `BENCH_gray.json`: every gray-failure scenario of the
/// campaign at the historical seed 8 — both arms' checker verdicts side
/// by side (the no-retry vs retry-with-backoff contrast) plus the
/// degradation counters of the flawed run. Like `BENCH_forensics.json`
/// this records no wall-clock numbers, so it is fully deterministic and
/// golden-tested byte-for-byte.
pub fn gray_machine_json() -> String {
    let gray: Vec<_> = scenarios_of(ScenarioClass::Gray).collect();
    let arms: usize = gray
        .iter()
        .map(|s| 1 + usize::from(s.fixed.is_some()))
        .sum();
    let per_scenario: Vec<Value> = gray
        .iter()
        .map(|s| {
            let flawed = (s.flawed)(8, true);
            let fixed = s.fixed.map(|f| f(8, true));
            let c = &flawed.timeline.counters;
            obj! {
                "scenario" => s.name,
                "partition" => s.partition,
                "flawed" => kinds(&flawed.violations),
                "fixed" => kinds(fixed.as_ref().map_or(&[], |f| &f.violations)),
                "degrades_installed" => c.degrades_installed,
                "degrade_heals" => c.degrade_heals,
                "messages_dropped" => c.messages_dropped,
                "verdicts" => c.verdicts,
            }
        })
        .collect();
    let doc = obj! {
        "bench" => "gray",
        "seed" => 8u64,
        "scenarios" => gray.len(),
        "arms" => arms,
        "per_scenario" => per_scenario,
    };
    format!("{}\n", doc.pretty())
}

// --- load workloads ------------------------------------------------------

/// Shards of the sharded open-loop read ladder; fixed, so the shard
/// decomposition — and therefore every shard's report — never depends on
/// the `--jobs` rung being measured.
const LADDER_SHARDS: usize = 8;

/// The `--jobs` rungs the determinism ladder climbs.
const LADDER_JOBS: [usize; 4] = [1, 2, 4, 8];

/// Total operations of the committed artifact's open-loop read ladder.
pub const LADDER_OPS: u64 = 1_000_000;

/// Exact content of `BENCH_workload.json`: every load-driven scenario of
/// the campaign at the historical seed 8 — both arms' checker verdicts,
/// the flawed arm's per-op outcome counts and latency percentiles from
/// the forensic timeline — plus the sharded open-loop read ladder:
/// `ladder_ops` operations split over [`LADDER_SHARDS`] shards, run at
/// every [`LADDER_JOBS`] rung, with the merged reports compared
/// byte-for-byte. All numbers are virtual-time, so the artifact is fully
/// deterministic; the committed file runs the ladder at [`LADDER_OPS`].
pub fn workload_machine_json(ladder_ops: u64) -> String {
    let load: Vec<_> = scenarios_of(ScenarioClass::Load).collect();
    let arms: usize = load
        .iter()
        .map(|s| 1 + usize::from(s.fixed.is_some()))
        .sum();
    let per_scenario: Vec<Value> = load
        .iter()
        .map(|s| {
            let flawed = (s.flawed)(8, true);
            let fixed = s.fixed.map(|f| f(8, true));
            let (ok, fail, timeout) = flawed.timeline.op_outcome_counts();
            let (p50, p99, p999, max) = flawed
                .timeline
                .latency_percentiles()
                .unwrap_or((0, 0, 0, 0));
            obj! {
                "scenario" => s.name,
                "partition" => s.partition,
                "flawed" => kinds(&flawed.violations),
                "fixed" => kinds(fixed.as_ref().map_or(&[], |f| &f.violations)),
                "ops" => ok + fail + timeout,
                "ok" => ok,
                "fail" => fail,
                "timeout" => timeout,
                "p50" => p50,
                "p99" => p99,
                "p999" => p999,
                "max" => max,
                "load_samples" => flawed.timeline.counters.load_samples,
            }
        })
        .collect();

    // The determinism ladder: the same sharded run at every jobs rung
    // must merge to the same bytes (fleet's index-sorted reduce plus
    // shard-pure reports make scheduling invisible).
    let per_shard = ladder_ops / LADDER_SHARDS as u64;
    let mut rendered: Vec<String> = Vec::new();
    let mut merged = workload::LoadReport::default();
    for (r, &jobs) in LADDER_JOBS.iter().enumerate() {
        let shards = fleet::pool::map(jobs, LADDER_SHARDS, |i| {
            repkv::load::open_loop_read_shard(i as u64, per_shard)
        });
        let mut total = workload::LoadReport::default();
        for s in &shards {
            total.merge(s);
        }
        if r == 0 {
            merged = total.clone();
        }
        rendered.push(total.render());
    }
    let byte_identical = rendered.iter().all(|r| *r == rendered[0]);
    let doc = obj! {
        "bench" => "workload",
        "seed" => 8u64,
        "load_scenarios" => load.len(),
        "arms" => arms,
        "per_scenario" => per_scenario,
        "open_loop" => obj! {
            "ops" => per_shard * LADDER_SHARDS as u64,
            "shards" => LADDER_SHARDS,
            "jobs" => LADDER_JOBS.to_vec(),
            "byte_identical" => byte_identical,
            "issued" => merged.issued,
            "ok" => merged.ok,
            "fail" => merged.failed,
            "timeout" => merged.timed_out,
            "p50" => merged.latency.p50().unwrap_or(0),
            "p99" => merged.latency.p99().unwrap_or(0),
            "p999" => merged.latency.p999().unwrap_or(0),
            "max" => merged.latency.max().unwrap_or(0),
            "report" => rendered[0].as_str(),
        },
    };
    format!("{}\n", doc.pretty())
}

// --- lint scan counters --------------------------------------------------

/// Exact content of `BENCH_lint.json` for the workspace at `root`: the
/// determinism-lint scan reduced to deterministic counters — files, lines,
/// and tokens scanned, `use` declarations resolved, allow sites and how
/// many of them suppress something, per-rule finding/allow counts, and the
/// registry-consistency verdict. A pure function of the committed source
/// tree (no wall-clock numbers), so it is golden-tested byte-for-byte and
/// regenerating it flags any scan regression as a diff. `Err` names
/// `root` when the scan cannot read it.
pub fn lint_machine_json(root: &Path) -> Result<String, String> {
    let report = lint::analyze_workspace(root)
        .map_err(|e| format!("lint scan of {} failed: {e}", root.display()))?;
    let registry = lint::check_registry(root);
    let s = &report.stats;
    let per_rule: Vec<Value> = s
        .per_rule
        .iter()
        .map(|(rule, findings, allows)| {
            obj! { "rule" => rule.name(), "findings" => *findings, "allows" => *allows }
        })
        .collect();
    let doc = obj! {
        "bench" => "lint",
        "files" => s.files,
        "lines" => s.lines,
        "tokens" => s.tokens,
        "use_decls" => s.use_decls,
        "allow_sites" => s.allow_sites,
        "allows_used" => s.allows_used,
        "unused_allows" => report.unused_allows.len(),
        "findings_total" => report.findings.len(),
        "per_rule" => per_rule,
        "registry" => obj! {
            "scenarios" => registry.scenarios,
            "arms" => registry.arms,
            "findings" => registry.findings.len(),
        },
    };
    Ok(format!("{}\n", doc.pretty()))
}

// --- coverage-guided exploration -----------------------------------------

/// Trial budget per strategy/target pair — the equal budget at which the
/// acceptance criterion compares coverage-guided search against naive
/// random testing.
const EXPLORE_TRIALS: usize = 30;

/// Base seed of the exploration comparison (the campaign's historical 8).
const EXPLORE_SEED: u64 = 8;

/// Shard layout of the jobs-invariance check: [`EXPLORE_SHARDS`] shards of
/// [`EXPLORE_SHARD_TRIALS`] trials each, merged at every jobs rung.
const EXPLORE_SHARDS: usize = 4;

/// Trials per shard in the jobs-invariance check.
const EXPLORE_SHARD_TRIALS: usize = 6;

/// Independent exploration runs behind the §5.4 detection-probability
/// curve: consecutive seeds from [`EXPLORE_SEED`], one curve point per
/// trial budget up to [`CURVE_TRIALS`].
const CURVE_SEEDS: usize = 32;

/// Trial budget of each curve run — the `finding13` budget of `figures`.
const CURVE_TRIALS: usize = 40;

/// One strategy's report at the standard budget.
fn explore_arm(report: &neat::explore::ExplorationReport) -> Value {
    obj! {
        "hits" => report.trials_with_violation,
        "first" => report.first_violation_trial,
        "distinct_kinds" => report.distinct_kinds(),
        "signatures" => report.signatures.len(),
        "kinds" => report.kinds.keys().map(ToString::to_string).collect::<Vec<_>>(),
    }
}

/// Builds the baked plan for one explored registry scenario at
/// [`EXPLORE_SEED`] with the plan function its replay uses, and re-proves
/// its 1-minimality by replay.
fn explored_plan_facts<T: neat::explore::TestTarget>(
    mut probe: T,
    mut target: T,
    plan: fn(&mut T) -> neat::explore::SchedulePlan,
    kind: neat::ViolationKind,
) -> (usize, String, bool) {
    use neat::explore::{minimize::is_one_minimal, run_schedule, SchedulePlan};

    probe.reset(EXPLORE_SEED, false);
    let plan = plan(&mut probe);
    let one_minimal = is_one_minimal(&plan.steps, |steps| {
        target.reset(EXPLORE_SEED, false);
        run_schedule(&mut target, &SchedulePlan { steps: steps.to_vec() })
            .iter()
            .any(|v| v.kind == kind)
    });
    (plan.steps.len(), plan.render(), one_minimal)
}

/// Exact content of `BENCH_explore.json`: the coverage-guided exploration
/// pipeline measured end to end at the historical seed 8.
///
/// Four sections:
/// - `targets`: naive vs findings-guided vs coverage-guided hit rates and
///   distinct violation kinds on three real flawed systems at an equal
///   [`EXPLORE_TRIALS`]-trial budget, with the acceptance verdict
///   (`coverage_strictly_better_targets >= 2`) computed from the same
///   numbers the tier-1 test asserts on.
/// - `sharded`: the fleet's sharded exploration merged at 1, 2, and 4
///   jobs, compared byte-for-byte.
/// - `minimized`: every delta-minimized registry regression — both arms'
///   verdicts at seed 8 plus a fresh 1-minimality proof by replay.
/// - `detection_curve`: the §5.4 testability claim as a curve. Campaign
///   scenarios detect deterministically (flat at 1.0 from budget 1 — see
///   `SweepReport::detection_curve`), so the budget axis that moves is
///   *exploration trials*: `points[b-1]` is the fraction of
///   [`CURVE_SEEDS`] independent findings-guided runs against the VoltDB
///   profile whose first violation arrived within `b` trials.
///
/// All numbers are virtual-time and seed-pure, so the artifact is fully
/// deterministic and golden-tested byte-for-byte. `Err` names an explored
/// scenario this function has no plan builder for.
pub fn explore_machine_json() -> Result<String, String> {
    use neat::explore::TestTarget;

    // Strategy comparison at equal budget on three real flawed systems.
    type MakeTarget = Box<dyn Fn() -> Box<dyn TestTarget>>;
    let targets: Vec<(&str, MakeTarget)> = vec![
        (
            "repkv-voltdb",
            Box::new(|| Box::new(repkv::RepkvTarget::new(repkv::Config::voltdb()))),
        ),
        (
            "gridstore-flawed",
            Box::new(|| Box::new(gridstore::GridTarget::new(gridstore::GridFlaws::flawed()))),
        ),
        (
            "mqueue-flawed",
            Box::new(|| {
                Box::new(mqueue::explorer::MqTarget::new(mqueue::BrokerFlaws::flawed()))
            }),
        ),
    ];
    let mut strictly_better = 0usize;
    let mut compared = Vec::new();
    for (name, make) in &targets {
        let mut target = make();
        let naive = explore(target.as_mut(), &Strategy::naive(4), EXPLORE_TRIALS, EXPLORE_SEED);
        let guided = explore(
            target.as_mut(),
            &Strategy::findings_guided(),
            EXPLORE_TRIALS,
            EXPLORE_SEED,
        );
        let coverage = explore(
            target.as_mut(),
            &Strategy::coverage_guided(4),
            EXPLORE_TRIALS,
            EXPLORE_SEED,
        );
        let beats = coverage.distinct_kinds() > naive.distinct_kinds();
        strictly_better += usize::from(beats);
        compared.push(obj! {
            "target" => *name,
            "naive" => explore_arm(&naive),
            "guided" => explore_arm(&guided),
            "coverage" => explore_arm(&coverage),
            "coverage_beats_naive" => beats,
        });
    }

    // Sharded merge invariance: serial vs 2 and 4 jobs, byte-for-byte.
    let make = || repkv::RepkvTarget::new(repkv::Config::voltdb());
    let strategy = Strategy::coverage_guided(4);
    let serial = fleet::explore::explore_sharded(
        1,
        EXPLORE_SHARDS,
        EXPLORE_SEED,
        make,
        &strategy,
        EXPLORE_SHARD_TRIALS,
    );
    let byte_identical = [2usize, 4].iter().all(|&jobs| {
        let parallel = fleet::explore::explore_sharded(
            jobs,
            EXPLORE_SHARDS,
            EXPLORE_SEED,
            make,
            &strategy,
            EXPLORE_SHARD_TRIALS,
        );
        format!("{parallel:?}") == format!("{serial:?}")
    });

    // Delta-minimized registry regressions: both arms at seed 8 plus a
    // fresh 1-minimality proof by replay.
    let explored: Vec<_> = scenarios_of(ScenarioClass::Explored).collect();
    let mut minimized = Vec::new();
    for s in &explored {
        let flawed = (s.flawed)(EXPLORE_SEED, false);
        let fixed = s.fixed.map(|f| f(EXPLORE_SEED, false));
        let (steps, plan, one_minimal) = match s.name {
            "explored_simplex_leader_write" => explored_plan_facts(
                repkv::RepkvTarget::new(repkv::Config::voltdb()),
                repkv::RepkvTarget::new(repkv::Config::voltdb()),
                repkv::explored::simplex_leader_write_plan,
                neat::ViolationKind::DataCorruption,
            ),
            "explored_simplex_heal_write" => explored_plan_facts(
                gridstore::GridTarget::new(gridstore::GridFlaws::flawed()),
                gridstore::GridTarget::new(gridstore::GridFlaws::flawed()),
                gridstore::explored::simplex_heal_write_plan,
                neat::ViolationKind::DataLoss,
            ),
            "explored_partition_double_dequeue" => explored_plan_facts(
                mqueue::explorer::MqTarget::new(mqueue::BrokerFlaws::flawed()),
                mqueue::explorer::MqTarget::new(mqueue::BrokerFlaws::flawed()),
                mqueue::explored::partition_double_dequeue_plan,
                neat::ViolationKind::DoubleDequeue,
            ),
            other => return Err(format!("explored scenario {other} has no plan builder")),
        };
        minimized.push(obj! {
            "scenario" => s.name,
            "system" => s.system,
            "partition" => s.partition,
            "steps" => steps,
            "plan" => plan,
            "flawed" => kinds(&flawed.violations),
            "fixed" => kinds(fixed.as_ref().map_or(&[], |f| &f.violations)),
            "one_minimal" => one_minimal,
        });
    }

    // The §5.4 curve: budget `b` detects iff the run's first violation
    // arrived within `b` trials.
    let curve_seeds = fleet::cli::sweep_seeds(&fleet::cli::Opts {
        seed: EXPLORE_SEED,
        seeds: Some(CURVE_SEEDS),
        ..fleet::cli::Opts::default()
    });
    let runs = fleet::explore::explore_sweep(
        1,
        &curve_seeds,
        make,
        &Strategy::findings_guided(),
        CURVE_TRIALS,
    );
    let points: Vec<Value> = (1..=CURVE_TRIALS)
        .map(|b| {
            let hit = runs
                .iter()
                .filter(|r| r.first_violation_trial.is_some_and(|t| t <= b))
                .count();
            Value::Num(format!("{:.3}", hit as f64 / CURVE_SEEDS as f64))
        })
        .collect();

    let doc = obj! {
        "bench" => "explore",
        "seed" => EXPLORE_SEED,
        "trials_per_strategy" => EXPLORE_TRIALS,
        "targets" => compared,
        "coverage_strictly_better_targets" => strictly_better,
        "sharded" => obj! {
            "shards" => EXPLORE_SHARDS,
            "trials_per_shard" => EXPLORE_SHARD_TRIALS,
            "jobs" => vec![1usize, 2, 4],
            "byte_identical" => byte_identical,
            "corpus" => serial.corpus.len(),
            "finds" => serial.finds.len(),
            "signatures" => serial.report.signatures.len(),
        },
        "minimized" => minimized,
        "minimized_count" => explored.len(),
        "explored_scenarios" => explored.len(),
        "detection_curve" => obj! {
            "sweep_seeds" => CURVE_SEEDS,
            "trials" => CURVE_TRIALS,
            "points" => points,
        },
    };
    Ok(format!("{}\n", doc.pretty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_report_matches_the_serial_library_run() {
        let expected = format!(
            "{}\n",
            neat_repro::campaign::render(&neat_repro::campaign::run_all_scenarios(8))
        );
        assert_eq!(campaign_report(), expected);
    }

    #[test]
    fn tables_report_renders_every_table() {
        let out = tables_report().expect("tables render");
        assert!(out.contains("Table 1 — List of studied systems"));
        assert!(out.contains("largest paper-vs-measured delta"));
    }

    #[test]
    fn figures_report_is_deterministic() {
        assert_eq!(figures_report(), figures_report());
    }

    #[test]
    fn forensics_report_covers_every_scenario() {
        let out = forensics_report();
        assert!(out.starts_with("== NEAT failure forensics ==\n"), "{out}");
        for s in neat_repro::campaign::run_all_scenarios(8) {
            assert!(
                out.contains(&format!("== {} — ", s.name)),
                "missing forensics block for {}",
                s.name
            );
        }
        assert!(out.contains("aggregate counters: events="), "{out}");
    }

    #[test]
    fn forensics_jsonl_is_one_report_per_scenario() {
        let stream = forensics_jsonl();
        let headers = stream
            .lines()
            .filter(|l| l.starts_with("{\"type\":\"report\""))
            .count();
        assert_eq!(headers, neat_repro::campaign::scenario_count());
        assert!(stream.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    /// The artifact parsed, with its `bench` name checked.
    fn parse_artifact(json: &str, bench: &str) -> Value {
        assert!(json.ends_with('\n'));
        let doc = study::json::parse(json).expect("the artifact parses");
        assert_eq!(doc.get("bench").and_then(Value::as_str), Some(bench), "{json}");
        doc
    }

    /// The rows under `key`: one per scenario of `class`, in registry
    /// order, each detecting a violation on its flawed arm and none on its
    /// repaired one (an absent repaired arm reads as clean).
    fn verdict_rows<'a>(doc: &'a Value, key: &str, class: ScenarioClass) -> &'a [Value] {
        let rows = doc.get(key).and_then(Value::as_array).expect("the rows");
        let names = rows.iter().map(|r| r.get("scenario").and_then(Value::as_str));
        assert!(names.eq(scenarios_of(class).map(|s| Some(s.name))), "{rows:?}");
        for row in rows {
            let kinds = |arm| row.get(arm).and_then(Value::as_array).map(<[Value]>::len);
            assert!(kinds("flawed") > Some(0), "flawed arm detects nothing: {row:?}");
            assert_eq!(kinds("fixed"), Some(0), "repaired arm is not clean: {row:?}");
        }
        rows
    }

    #[test]
    fn explore_machine_json_meets_the_acceptance_criteria() {
        let json = explore_machine_json().expect("every explored scenario has a plan builder");
        let doc = parse_artifact(&json, "explore");
        // Acceptance: coverage-guided search finds strictly more distinct
        // violation kinds than naive random testing at the same trial
        // budget on at least two real targets.
        let better = doc
            .get("coverage_strictly_better_targets")
            .and_then(Value::as_u64)
            .expect("coverage_strictly_better_targets present");
        assert!(better >= 2, "coverage beat naive on {better} targets: {json}");
        // Sharded exploration must merge byte-identically at every rung.
        let sharded = doc.get("sharded").and_then(|s| s.get("byte_identical"));
        assert_eq!(sharded.and_then(Value::as_bool), Some(true), "{json}");
        // Every shipped regression is 1-minimal, reproduces when flawed,
        // and is clean when repaired.
        let minimized = verdict_rows(&doc, "minimized", ScenarioClass::Explored);
        assert!(minimized.len() >= 2, "only {} explored scenarios", minimized.len());
        for m in minimized {
            assert_eq!(m.get("one_minimal").and_then(Value::as_bool), Some(true), "{m:?}");
        }
        let count = doc.get("minimized_count").and_then(Value::as_u64);
        assert_eq!(count, Some(minimized.len() as u64));
    }

    #[test]
    fn gray_machine_json_covers_every_gray_scenario() {
        let doc = parse_artifact(&gray_machine_json(), "gray");
        // Every gray scenario installs at least one degradation, detects a
        // violation when flawed, and is clean when repaired.
        let per_scenario = verdict_rows(&doc, "per_scenario", ScenarioClass::Gray);
        assert!(per_scenario.len() >= 6, "only {} gray scenarios", per_scenario.len());
        for row in per_scenario {
            let degrades = row.get("degrades_installed").and_then(Value::as_u64);
            assert!(degrades > Some(0), "{row:?}");
        }
    }

    #[test]
    fn workload_machine_json_covers_every_load_scenario() {
        // A small ladder keeps the test quick; the artifact runs a million.
        let doc = parse_artifact(&workload_machine_json(4000), "workload");
        // Every load scenario drives real traffic, samples the stream,
        // detects when flawed, and is clean when repaired; the ladder
        // merges byte-identically at every jobs rung.
        let per_scenario = verdict_rows(&doc, "per_scenario", ScenarioClass::Load);
        assert!(per_scenario.len() >= 5, "only {} load scenarios", per_scenario.len());
        for row in per_scenario {
            for counter in ["ops", "load_samples"] {
                assert!(row.get(counter).and_then(Value::as_u64) > Some(0), "{row:?}");
            }
        }
        let ladder = doc.get("open_loop").expect("open_loop present");
        assert_eq!(ladder.get("byte_identical").and_then(Value::as_bool), Some(true));
        // Healthy-cluster ladder shards must answer every read: a shard
        // streaming against a stale leader shows up as fails here.
        let answered = ["issued", "ok", "fail"].map(|k| ladder.get(k).and_then(Value::as_u64));
        assert_eq!(answered, [Some(4000), Some(4000), Some(0)], "{ladder:?}");
    }

    #[test]
    fn lint_machine_json_names_a_root_it_cannot_scan() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-workspace");
        let err = lint_machine_json(&root).expect_err("nothing to scan there");
        assert!(err.contains(&root.display().to_string()), "{err}");
    }

    #[test]
    fn forensics_machine_json_counts_match_the_report() {
        let json = forensics_machine_json();
        assert!(json.contains("\"bench\": \"forensics\""), "{json}");
        assert!(
            json.contains(&format!(
                "\"scenarios\": {}",
                neat_repro::campaign::scenario_count()
            )),
            "{json}"
        );
        assert!(json.contains("\"events_simulated\": "), "{json}");
        assert!(json.ends_with('\n'));
    }
}
