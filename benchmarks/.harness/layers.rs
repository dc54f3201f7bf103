//! The per-layer ledger: every layer metric, taken from outside by timing
//! calls into each module's public functions. Runs in the traced binary
//! only. Host times are medians over `reps` repetitions; `count` metrics
//! come from round 0 and are deterministic for a given `--seed`.

use std::hint::black_box;

use alloc_counter::count_allocations;
use neat::explore::Signature;
use neat_repro::campaign;
use rand::{rngs::StdRng, SeedableRng};
use simnet::net::bidirectional_pairs;
use simnet::{Application, Ctx, NodeId, TimerId, World, WorldBuilder};
use workload::{
    Arrival, Driver, Histogram, KeySampler, Keyspace, Mix, OpStatus, Pacing, WorkloadSpec,
};

use crate::calib;
use crate::fabric::{self, Nemesis};
use crate::spanned;
use crate::stats::median;
use crate::trace::{self_ns, total_ns, Span, Tracer};
use crate::workloads::{
    self, AuditHash, CampaignQuick, ExploreCov, FabricStorm, LadderReads, SweepParallel, Workload,
};
use crate::Metric;

/// The seven model crates, plus `other` for a system the map below does
/// not know (a new scenario family shows up there, not silently nowhere).
pub const FAMILIES: [&str; 8] = [
    "consensus",
    "coord",
    "repkv",
    "gridstore",
    "mqueue",
    "sched",
    "dfs",
    "other",
];

/// Registry `system` label -> index into [`FAMILIES`].
pub fn family_of(system: &str) -> usize {
    let name = match system {
        "RethinkDB" | "Raft" => "consensus",
        "ZooKeeper" => "coord",
        "VoltDB" | "Elasticsearch" | "Redis" | "Aerospike" | "MongoDB" | "RepKV" => "repkv",
        "Ignite" | "Terracotta" | "Hazelcast" => "gridstore",
        "ActiveMQ" | "RabbitMQ" | "Kafka" => "mqueue",
        "MapReduce" | "DKron" => "sched",
        "HDFS" | "MooseFS" | "HBase" | "Ceph" => "dfs",
        _ => "other",
    };
    FAMILIES.iter().position(|f| *f == name).expect("listed")
}

/// Family index of every arm, in `arm_ids()` order.
pub fn arm_families() -> Vec<usize> {
    let specs = campaign::registry();
    campaign::arm_ids()
        .iter()
        .map(|arm| family_of(specs[arm.scenario].system))
        .collect()
}

/// Sum of the `arm_span` durations per family, in ns. A span's `item` is
/// its arm index.
pub fn family_ns(spans: &[Span], arm_span: &str, arm_family: &[usize]) -> [u64; 8] {
    let mut rows = [0u64; 8];
    for s in spans.iter().filter(|s| s.name == arm_span) {
        rows[arm_family[s.item as usize]] += s.dur_ns();
    }
    rows
}

/// Runs `f`; returns its host seconds at the reference clock speed.
fn secs<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = calib::timed(f);
    (t.out, t.secs)
}

/// Runs one traced repetition and returns its spans' durations by `row`,
/// every column scaled to the reference clock speed.
fn span_row<R, const N: usize>(
    t: &Tracer,
    traced: impl FnOnce() -> R,
    row: impl FnOnce(&[Span]) -> [f64; N],
) -> (R, [f64; N]) {
    let rep = calib::timed(traced);
    let spans = t.take();
    (rep.out, row(&spans).map(|ns| ns * rep.speed))
}

/// Median over `reps` runs of `f`, which returns one host-time sample.
fn med(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median((0..reps).map(|_| f()).collect())
}

/// Column-wise median of `reps` rows.
fn med_rows<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    std::array::from_fn(|c| median(rows.iter().map(|r| r[c]).collect()))
}

/// The ledger being filled in.
struct Ledger(Vec<Metric>);

impl Ledger {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric::new(name, value, unit));
    }
}

/// Every per-layer metric except the two `harness.*` ones, which belong to
/// the workload being traced.
pub fn ledger(seed: u64, reps: usize) -> Vec<Metric> {
    let mut l = Ledger(Vec::new());
    let t = Tracer::default();
    let (registry_ns, quick_us_per_arm) = campaign_layers(&mut l, &t, seed, reps);
    audit_layers(&mut l, &t, seed, reps, registry_ns, quick_us_per_arm);
    explore_layers(&mut l, &t, seed, reps);
    ladder_layers(&mut l, &t, seed, reps);
    simnet_layers(&mut l, &t, seed, reps);
    fleet_layers(&mut l, &t, seed, reps);
    l.0
}

// --- campaign + family (Quick) ----------------------------------------------

/// Returns `(campaign.registry_ns, campaign.quick_us_per_arm)`.
fn campaign_layers(l: &mut Ledger, t: &Tracer, seed: u64, reps: usize) -> (f64, f64) {
    let mut w = CampaignQuick::new(seed);
    let arms = w.arms.len() as f64;
    let seeds = CampaignQuick::SEEDS as f64;
    let arm_family = arm_families();

    let registry_ns = med(reps * 4, || {
        secs(|| {
            for _ in 0..100 {
                black_box(campaign::registry());
            }
        })
        .1 * 1e9
            / 100.0
    });
    l.push("campaign.registry_ns", registry_ns, "ns");

    // One row per repetition:
    // [seed-span ns, arm-span ns, top arm ns, family ns x 8].
    let mut rows = Vec::new();
    let mut events = 0;
    for _ in 0..reps {
        let (simulated, row) = span_row(
            t,
            || w.traced(0, t),
            |spans| {
                let mut per_arm = vec![0u64; w.arms.len()];
                for s in spans.iter().filter(|s| s.name == workloads::QUICK_ARM) {
                    per_arm[s.item as usize] += s.dur_ns();
                }
                let mut row = [0f64; 11];
                row[0] = total_ns(spans, workloads::CAMPAIGN_SEED) as f64;
                row[1] = total_ns(spans, workloads::QUICK_ARM) as f64;
                row[2] = per_arm.iter().copied().max().unwrap_or(0) as f64;
                let fam = family_ns(spans, workloads::QUICK_ARM, &arm_family);
                for (c, ns) in fam.iter().enumerate() {
                    row[3 + c] = *ns as f64;
                }
                row
            },
        );
        events = simulated;
        rows.push(row);
    }
    let m = med_rows(&rows);
    let quick_us_per_arm = m[1] / (arms * seeds) / 1e3;
    l.push("campaign.quick_us_per_arm", quick_us_per_arm, "us");
    l.push("campaign.top_arm_share", m[2] / m[0], "ratio");
    l.push(
        "campaign.unattributed_pct",
        100.0 * (m[0] - m[1]) / m[0],
        "%",
    );
    l.push(
        "simnet.host_ns_per_event.campaign",
        m[0] / events as f64,
        "ns",
    );
    for (c, family) in FAMILIES.iter().enumerate() {
        let n_arms = arm_family.iter().filter(|f| **f == c).count() as f64;
        // `run_arm` rebuilds the registry on every call; that time is
        // reported once, as campaign.registry_ns, not in every family.
        let ms_per_seed = (m[3 + c] / seeds - n_arms * registry_ns) / 1e6;
        l.push(
            format!("family.{family}.quick_ms"),
            ms_per_seed.max(0.0),
            "ms",
        );
    }

    let (mut detected, mut dirty) = (0u64, 0u64);
    for s in w.sim_seeds(0) {
        for res in campaign::run_all_scenarios(s) {
            detected += u64::from(!res.flawed.is_empty());
            dirty += u64::from(!res.fixed.is_empty());
        }
    }
    l.push("campaign.detected_cells", detected as f64, "count");
    l.push("campaign.fixed_dirty_cells", dirty as f64, "count");

    let (_, allocs) = count_allocations(|| w.round(0));
    l.push(
        "alloc.per_arm.quick",
        allocs as f64 / (arms * seeds),
        "count",
    );
    (registry_ns, quick_us_per_arm)
}

// --- audit: campaign (Hash), neat fingerprinting, obs -----------------------

fn audit_layers(
    l: &mut Ledger,
    t: &Tracer,
    seed: u64,
    reps: usize,
    registry_ns: f64,
    quick_us_per_arm: f64,
) {
    let mut w = AuditHash::new(seed);
    let arms = w.arms.len() as f64;
    let arm_family = arm_families();
    let s = w.sim_seed(0);

    // [audit-arm ns, hash-arm ns, family ns x 8]
    let mut rows = Vec::new();
    let mut timelines = Vec::new();
    for _ in 0..reps {
        let (kept, row) = span_row(
            t,
            || w.traced(0, t),
            |spans| {
                let mut row = [0f64; 10];
                row[0] = total_ns(spans, workloads::AUDIT_ARM) as f64;
                row[1] = total_ns(spans, workloads::HASH_ARM) as f64;
                let fam = family_ns(spans, workloads::HASH_ARM, &arm_family);
                for (c, ns) in fam.iter().enumerate() {
                    row[2 + c] = *ns as f64;
                }
                row
            },
        );
        timelines = kept;
        rows.push(row);
    }
    let m = med_rows(&rows);
    let audit_us_per_arm = m[0] / arms / 1e3;
    l.push("campaign.hash_us_per_arm", m[1] / (2.0 * arms) / 1e3, "us");
    l.push(
        "neat.audit_overhead_ratio",
        audit_us_per_arm / (2.0 * quick_us_per_arm),
        "ratio",
    );
    for (c, family) in FAMILIES.iter().enumerate() {
        let n_arms = arm_family.iter().filter(|f| **f == c).count() as f64;
        let ms_per_seed = (m[2 + c] / 2.0 - n_arms * registry_ns) / 1e6;
        l.push(
            format!("family.{family}.hash_ms"),
            ms_per_seed.max(0.0),
            "ms",
        );
    }
    let events: u64 = timelines
        .iter()
        .map(|tl| tl.counters.events_simulated)
        .sum();
    l.push(
        "simnet.host_ns_per_event.audit",
        m[1] / (2.0 * events as f64),
        "ns",
    );

    let n = timelines.len() as f64;
    let recorded: usize = timelines.iter().map(|tl| tl.len()).sum();
    l.push("obs.timeline_events_per_arm", recorded as f64 / n, "count");
    let per_timeline_us = |f: &dyn Fn(&neat::obs::Timeline)| {
        med(reps, || secs(|| timelines.iter().for_each(f)).1) * 1e6 / n
    };
    l.push(
        "obs.analyses_us_per_timeline",
        per_timeline_us(&|tl| {
            black_box((
                tl.fault_windows(),
                tl.ops_in_flight(),
                tl.first_divergent_op(),
            ));
        }),
        "us",
    );
    l.push(
        "obs.render_us_per_timeline",
        per_timeline_us(&|tl| {
            black_box(tl.render());
        }),
        "us",
    );
    l.push(
        "obs.jsonl_us_per_timeline",
        per_timeline_us(&|tl| {
            let mut out = String::new();
            tl.write_jsonl("arm", &mut out);
            black_box(out);
        }),
        "us",
    );
    l.push(
        "obs.forensics_ms_per_seed",
        med(reps, || {
            secs(|| {
                let reports = fleet::campaign::forensics(s, 1);
                black_box(campaign::render_forensics(s, &reports));
            })
            .1
        }) * 1e3,
        "ms",
    );

    let mut prints = Vec::new();
    let render_s = med(reps, || {
        let (p, dt) = secs(|| campaign::scenario_fingerprints(s));
        prints = p;
        dt
    });
    let bytes: usize = prints.iter().map(|(_, p)| p.len()).sum();
    l.push("campaign.render_us_per_arm", render_s * 1e6 / arms, "us");
    l.push(
        "neat.fingerprint_bytes_per_arm",
        bytes as f64 / arms,
        "count",
    );
    let hash_s = med(reps, || {
        secs(|| {
            for (_, p) in &prints {
                black_box(neat::audit::trace_hash(p));
            }
        })
        .1
    });
    l.push("neat.hash_mb_per_s", bytes as f64 / 1e6 / hash_s, "MB/s");

    let (_, allocs) = count_allocations(|| w.round(0));
    l.push("alloc.per_arm.hash", allocs as f64 / (2.0 * arms), "count");
}

// --- explore: neat::explore, the four targets -------------------------------

fn explore_layers(l: &mut Ledger, t: &Tracer, seed: u64, reps: usize) {
    let mut w = ExploreCov::new(seed);
    let trials = w.work_per_round() as f64;
    let per_target = ExploreCov::TRIALS as f64;

    // [explorer self ns, run ns, finish+check ns, timeline ns,
    //  explore_full ns x 4, reset ns x 4]
    let mut rows = Vec::new();
    let mut explorations = Vec::new();
    for _ in 0..reps {
        let (found, row) = span_row(
            t,
            || w.traced(0, t, false).0,
            |spans| {
                let mut row = [0f64; 12];
                for (s, own) in spans.iter().zip(self_ns(spans)) {
                    let k = s.item as usize;
                    match s.name {
                        workloads::EXPLORE => {
                            row[0] += own as f64;
                            row[4 + k] += s.dur_ns() as f64;
                        }
                        spanned::RUN => row[1] += s.dur_ns() as f64,
                        spanned::FINISH_CHECK => row[2] += s.dur_ns() as f64,
                        spanned::TIMELINE => row[3] += s.dur_ns() as f64,
                        spanned::RESET => row[8 + k] += s.dur_ns() as f64,
                        _ => {}
                    }
                }
                row
            },
        );
        explorations = found;
        rows.push(row);
    }
    let m = med_rows(&rows);
    l.push("neat.explore.self_us_per_trial", m[0] / trials / 1e3, "us");
    l.push("target.run_us", m[1] / trials / 1e3, "us");
    l.push("target.finish_check_us", m[2] / trials / 1e3, "us");
    l.push("target.timeline_us", m[3] / trials / 1e3, "us");
    for (k, family) in workloads::TARGETS.iter().enumerate() {
        // One reset per trial: reset *is* cluster construction.
        l.push(
            format!("family.{family}.reset_us"),
            m[8 + k] / per_target / 1e3,
            "us",
        );
        l.push(
            format!("family.{family}.trial_us"),
            m[4 + k] / per_target / 1e3,
            "us",
        );
    }

    let sum = |f: &dyn Fn(&neat::explore::Exploration) -> usize| {
        explorations.iter().map(f).sum::<usize>() as f64
    };
    l.push("neat.explore.trials", sum(&|e| e.report.trials), "count");
    l.push(
        "neat.explore.violating_trials",
        sum(&|e| e.report.trials_with_violation),
        "count",
    );
    l.push(
        "neat.explore.signatures",
        sum(&|e| e.report.signatures.len()),
        "count",
    );
    l.push(
        "neat.explore.corpus_entries",
        sum(&|e| e.corpus.len()),
        "count",
    );
    l.push("neat.explore.finds", sum(&|e| e.finds.len()), "count");

    let kept = w.traced(0, t, true).1;
    t.take();
    let signature_s = med(reps, || {
        secs(|| {
            for (timeline, verdicts) in &kept {
                black_box(Signature::of(timeline, verdicts));
            }
        })
        .1
    });
    l.push(
        "neat.explore.signature_us",
        signature_s * 1e6 / kept.len() as f64,
        "us",
    );
    let events: u64 = kept
        .iter()
        .map(|(tl, _)| tl.counters.events_simulated)
        .sum();
    let full_ns: f64 = m[4..8].iter().sum();
    l.push(
        "simnet.host_ns_per_event.explore",
        full_ns / events as f64,
        "ns",
    );

    let (_, allocs) = count_allocations(|| w.round(0));
    l.push("alloc.per_trial", allocs as f64 / trials, "count");
}

// --- ladder: workload -------------------------------------------------------

fn ladder_layers(l: &mut Ledger, t: &Tracer, seed: u64, reps: usize) {
    let mut w = LadderReads::new(seed);
    let report = w.shard(0, Some(t));
    t.take();
    let vms = |v: Option<u64>| v.unwrap_or(0) as f64;
    l.push("workload.ladder_vms_p50", vms(report.latency.p50()), "vms");
    l.push("workload.ladder_vms_p99", vms(report.latency.p99()), "vms");
    l.push("workload.max_lag_vms", report.max_lag as f64, "vms");
    l.push("workload.behind", report.behind as f64, "count");
    l.push("workload.ops_ok", report.ok as f64, "count");

    let (_, allocs) = count_allocations(|| w.round(0));
    l.push(
        "alloc.per_kop.ladder",
        allocs as f64 / (LadderReads::OPS as f64 / 1e3),
        "count",
    );

    const N: u64 = 100_000;
    let driver_s = med(reps, || {
        // The ladder's own spec, with no cluster behind it.
        let mut driver = Driver::new(
            WorkloadSpec {
                pacing: Pacing::Open(Arrival::Poisson { rate: 200.0 }),
                keyspace: Keyspace::Uniform { keys: 4 },
                mix: Mix::read_write(1, 0),
                ops: N,
                batch: 0,
                start_at: 0,
            },
            seed,
        );
        secs(|| {
            while let Some(op) = driver.next_op() {
                driver.complete(&op, op.at, op.at + 1, OpStatus::Ok);
            }
            black_box(driver.issued());
        })
        .1
    });
    l.push("workload.driver_ns_per_op", driver_s * 1e9 / N as f64, "ns");

    let sampler = KeySampler::new(&Keyspace::Zipfian {
        keys: 1000,
        theta: 0.99,
    });
    let sampler_s = med(reps, || {
        let mut rng = StdRng::seed_from_u64(seed);
        secs(|| {
            for _ in 0..N {
                black_box(sampler.sample(&mut rng));
            }
        })
        .1
    });
    l.push("workload.sampler_ns.zipf", sampler_s * 1e9 / N as f64, "ns");

    let histogram_s = med(reps, || {
        let mut h = Histogram::new();
        secs(|| {
            for i in 0..N {
                h.record(i % 64);
            }
            black_box(h.total());
        })
        .1
    });
    l.push(
        "workload.histogram_ns_per_record",
        histogram_s * 1e9 / N as f64,
        "ns",
    );
}

// --- simnet: fabric, queue, world build --------------------------------------

/// Two nodes bouncing one message: every step is one delivery.
struct Pinger;
impl Application for Pinger {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.id() == NodeId(0) {
            ctx.send(NodeId(1), 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(from, msg + 1);
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, u64>, _: TimerId, _: u64) {}
}

/// Eight timers armed per node: every step fires one and arms one.
struct TimerStorm;
impl Application for TimerStorm {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for i in 0..8 {
            ctx.set_timer(1 + i, i);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerId, tag: u64) {
        ctx.set_timer(1 + (tag % 7), tag);
    }
}

/// Does nothing: what is left is `WorldBuilder::build` itself.
struct Idle;
impl Application for Idle {
    type Msg = ();
    fn on_start(&mut self, _: &mut Ctx<'_, ()>) {}
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
    fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerId, _: u64) {}
}

const MICRO_STEPS: u64 = 100_000;

/// Host ns per `World::step` over `MICRO_STEPS` steps, after a warm-up.
fn step_ns<A: Application>(reps: usize, mut make: impl FnMut() -> World<A>) -> f64 {
    med(reps, || {
        let mut world = make();
        for _ in 0..MICRO_STEPS / 10 {
            world.step();
        }
        secs(|| {
            for _ in 0..MICRO_STEPS {
                world.step();
            }
        })
        .1
    }) * 1e9
        / MICRO_STEPS as f64
}

/// The storm's world with `k` block and `k` degrade rules held constant.
fn world_with_rules(seed: u64, k: usize) -> World<fabric::Gossip> {
    let mut world = fabric::build_world(seed);
    let mut nemesis = Nemesis::new(seed);
    for _ in 0..k {
        nemesis.install_block(&mut world);
        nemesis.install_degrade(&mut world);
    }
    world
}

fn simnet_layers(l: &mut Ledger, t: &Tracer, seed: u64, reps: usize) {
    let mut w = FabricStorm::new(seed);
    let mut out = None;
    let mut step_segments = Vec::new();
    for _ in 0..reps {
        let (storm, [ns]) = span_row(
            t,
            || w.storm(0, Some(t)),
            |spans| [total_ns(spans, fabric::STEP_SEGMENT) as f64],
        );
        out = Some(storm);
        step_segments.push(ns);
    }
    let out = out.expect("reps > 0");
    let c = out.counters;
    l.push(
        "simnet.host_ns_per_event.fabric",
        median(step_segments) / (c.delivered + c.timers_fired) as f64,
        "ns",
    );
    for (name, v) in [
        ("simnet.sent", c.sent),
        ("simnet.delivered", c.delivered),
        ("simnet.dropped_partition", c.dropped_partition),
        ("simnet.dropped_degraded", c.dropped_degraded),
        ("simnet.duplicated", c.duplicated),
        ("simnet.timers_fired", c.timers_fired),
        ("simnet.rule_installs", out.rule_installs),
    ] {
        l.push(name, v as f64, "count");
    }
    let (_, allocs) = count_allocations(|| w.round(0));
    l.push(
        "alloc.per_kstep.fabric",
        allocs as f64 / (fabric::STEPS as f64 / 1e3),
        "count",
    );

    const BUILDS: usize = 200;
    let build_s = med(reps, || {
        secs(|| {
            for _ in 0..BUILDS {
                black_box(WorldBuilder::new(seed).build(5, |_| Idle));
            }
        })
        .1
    });
    l.push("simnet.world_build_us", build_s * 1e6 / BUILDS as f64, "us");

    let deliver = step_ns(reps, || WorldBuilder::new(seed).build(2, |_| Pinger));
    l.push("simnet.step_ns.deliver", deliver, "ns");
    l.push(
        "simnet.step_ns.timer",
        step_ns(reps, || WorldBuilder::new(seed).build(4, |_| TimerStorm)),
        "ns",
    );
    let recorded = step_ns(reps, || {
        WorldBuilder::new(seed)
            .record_trace(true)
            .build(2, |_| Pinger)
    });
    l.push("simnet.record_ratio", recorded / deliver, "ratio");
    for (name, k) in [("rules0", 0), ("rules2", 1), ("rules16", fabric::MAX_RULES)] {
        l.push(
            format!("simnet.step_ns.{name}"),
            step_ns(reps, || world_with_rules(seed, k)),
            "ns",
        );
    }

    let world = {
        let mut world = fabric::build_world(seed);
        let mut nemesis = Nemesis::new(seed);
        for _ in 0..fabric::MAX_RULES {
            nemesis.install_block(&mut world);
        }
        world
    };
    const SWEEPS: usize = 200;
    let probe_s = med(reps, || {
        secs(|| {
            for _ in 0..SWEEPS {
                for a in 0..fabric::NODES {
                    for b in 0..fabric::NODES {
                        black_box(world.net().is_blocked(NodeId(a), NodeId(b)));
                    }
                }
            }
        })
        .1
    });
    let probes = (SWEEPS * fabric::NODES * fabric::NODES) as f64;
    l.push("simnet.is_blocked_ns.rules8", probe_s * 1e9 / probes, "ns");

    const INSTALLS: usize = 1000;
    let racks: Vec<Vec<NodeId>> = (0..2)
        .map(|r| (r * 4..r * 4 + 4).map(NodeId).collect())
        .collect();
    let install_s = med(reps, || {
        let mut world = fabric::build_world(seed);
        let pair_sets = vec![bidirectional_pairs(&racks[0], &racks[1]); INSTALLS];
        secs(|| {
            for pairs in pair_sets {
                let id = world.block_pairs(pairs);
                world.unblock(id);
            }
        })
        .1
    });
    l.push(
        "simnet.install_heal_us",
        install_s * 1e6 / INSTALLS as f64,
        "us",
    );
}

// --- fleet ------------------------------------------------------------------

fn fleet_layers(l: &mut Ledger, t: &Tracer, seed: u64, reps: usize) {
    const ITEMS: usize = 100_000;
    let jobs = workloads::jobs();
    for (name, j) in [("jobs1", 1), ("jobsN", jobs)] {
        let s = med(reps, || {
            secs(|| black_box(fleet::pool::grid(j, ITEMS, || (), |(), i| i))).1
        });
        l.push(
            format!("fleet.dispatch_ns_per_item.{name}"),
            s * 1e9 / ITEMS as f64,
            "ns",
        );
    }

    let mut sweep = SweepParallel::new(seed);
    let stats = t.span(workloads::SWEEP, 0, || sweep.sweep(0, jobs)).1;
    t.take();
    l.push("fleet.grid_workers", stats.workers as f64, "count");
    l.push("fleet.grid_batches", stats.batches as f64, "count");
    l.push("fleet.grid_steals", stats.steals as f64, "count");

    // Arm runs per second through the grid, over `jobs` times the serial
    // rate on the same kind of cells.
    let mut serial = CampaignQuick::new(seed);
    let rate = |w: &mut dyn Workload| {
        let work = w.work_per_round() as f64;
        work / med(reps.min(3), || secs(|| w.round(0)).1)
    };
    let efficiency = rate(&mut sweep) / (jobs as f64 * rate(&mut serial));
    l.push("fleet.parallel_efficiency", efficiency, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_system_maps_to_a_model_crate() {
        let other = FAMILIES.len() - 1;
        for spec in campaign::registry() {
            assert_ne!(family_of(spec.system), other, "{} is unmapped", spec.system);
        }
        assert_eq!(family_of("NoSuchSystem"), other);
        assert_eq!(arm_families().len(), campaign::arm_ids().len());
    }

    #[test]
    fn family_rows_reconcile_to_the_seed_span() {
        let w = CampaignQuick::new(8);
        let t = Tracer::default();
        w.traced(0, &t);
        let spans = t.take();
        let rows = family_ns(&spans, workloads::QUICK_ARM, &arm_families());
        let seed_ns = total_ns(&spans, workloads::CAMPAIGN_SEED);
        let arm_ns = total_ns(&spans, workloads::QUICK_ARM);
        // The rows partition the arm spans exactly ...
        assert_eq!(rows.iter().sum::<u64>(), arm_ns);
        // ... and the arm spans are all but the loop overhead of a seed.
        assert!(arm_ns <= seed_ns);
        assert!(
            (seed_ns - arm_ns) as f64 <= 0.02 * seed_ns as f64,
            "arm spans {arm_ns} ns of seed spans {seed_ns} ns"
        );
        let seeds = spans.iter().filter(|s| s.name == workloads::CAMPAIGN_SEED);
        assert_eq!(seeds.count() as u64, CampaignQuick::SEEDS);
    }

    #[test]
    fn ledger_names_are_unique_and_finite() {
        let metrics = ledger(8, 1);
        let mut names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for m in &metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }
}
