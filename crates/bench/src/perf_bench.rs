//! Hot-path performance measurement behind `BENCH_perf.json`.
//!
//! Three layers, cheapest proof first:
//!
//! 1. **Simulator microbenches** — events/sec through the slab-backed
//!    event queue (ping-pong delivery and a timer storm), sampled via the
//!    vendored criterion shim and read back as [`criterion::Measurement`]s.
//! 2. **Wall-clock before/after** — the full campaign, plus the audit
//!    sweep done two ways over the *same* arms: streamed (the shipping
//!    fast path, `RunMode::Hash` twice per arm) against rendered (the
//!    pre-streaming behaviour, materializing both fingerprint strings and
//!    hashing them).
//! 3. **Deterministic counters** — numbers CI can gate exactly, unlike
//!    wall-clock: per-arm allocation deltas under
//!    [`alloc_counter::CountingAlloc`] (the streamed fingerprint must add
//!    *zero* allocations over a plain traced run) and the total events
//!    simulated across the campaign. `tests/perf_gate.rs` recomputes
//!    these and diffs them against the committed JSON. [`arm_costs`] is
//!    the same kind of number per arm (`perf --arms`), kept out of the
//!    artifact.
//!
//! Wall-clock time is banned workspace-wide by the determinism lint; like
//! [`crate::fleet_bench`], this module is an audited exception that only
//! ever measures, never steers.

use std::fmt::Write as _;

use criterion::{BenchmarkId, Criterion};
use neat_repro::campaign::{self, RunMode};
use simnet::{Application, Ctx, NodeId, TimerId, WorldBuilder};

/// Runs `f` once and returns its result plus elapsed wall-clock ns.
#[allow(clippy::disallowed_types)]
fn time_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    // lint:allow(wall-clock) -- bench measurement only; never read inside a simulation
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as u64)
}

/// Ping-pong forever between two nodes: every step is one delivery.
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

/// Keeps eight timers armed per node: every step fires one and schedules
/// one, exercising the heap's push/pop churn and the slab free list.
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

/// One simulator microbench: median time for `events` events.
#[derive(Clone, Debug)]
pub struct MicroMeasurement {
    pub label: String,
    /// Events processed per sample (each sample builds a fresh world).
    pub events: u64,
    pub median_ns: u64,
    /// `events / median`, the headline throughput number.
    pub events_per_sec: u64,
}

/// The audit sweep timed two ways over the same arms and seed.
#[derive(Clone, Debug)]
pub struct AuditMeasurement {
    pub arms: usize,
    /// Shipping fast path: stream-hash both runs, never render.
    pub streamed_wall_clock_ns: u64,
    /// Pre-streaming behaviour: render both fingerprints, hash the strings.
    pub rendered_wall_clock_ns: u64,
    /// rendered / streamed.
    pub speedup: f64,
}

/// Exactly reproducible numbers — the part `tests/perf_gate.rs` asserts.
#[derive(Clone, Debug)]
pub struct DeterministicCounts {
    /// Whether the measuring binary had [`alloc_counter::CountingAlloc`]
    /// installed; allocation counts are only meaningful when true.
    pub counting_allocator: bool,
    pub arms: usize,
    /// Σ over arms of |allocations(Hash run) − allocations(Trace run)|.
    /// The streaming fingerprint's whole point is that this is **0**.
    pub fingerprint_alloc_delta_total: u64,
    /// Allocations the *rendered* fingerprint adds over a traced run for
    /// the first arm — the cost the fast path avoids per arm, per run.
    pub render_allocs_sample: u64,
    /// Σ over arms of the traced run's `events_simulated` counter.
    pub events_simulated_total: u64,
}

/// Everything `BENCH_perf.json` records.
#[derive(Clone, Debug)]
pub struct PerfBench {
    pub seed: u64,
    pub micro: Vec<MicroMeasurement>,
    /// One full campaign (`run_all_scenarios`, checker verdicts only).
    pub campaign_wall_clock_ns: u64,
    pub audit: AuditMeasurement,
    pub deterministic: DeterministicCounts,
}

fn micro_benches(sample_size: usize) -> Vec<MicroMeasurement> {
    let mut c = Criterion::default().sample_size(sample_size);
    // (label suffix, events per sample) pairs, matched back up below.
    let mut volumes: Vec<(String, u64)> = Vec::new();
    {
        let mut g = c.benchmark_group("simnet");
        for events in [10_000u64, 100_000] {
            volumes.push((format!("simnet/ping_pong/{events}"), events));
            g.bench_with_input(BenchmarkId::new("ping_pong", events), &events, |b, &events| {
                b.iter(|| {
                    let mut w = WorldBuilder::new(1).build(2, |_| Pinger);
                    for _ in 0..events {
                        w.step();
                    }
                    w.events_scheduled()
                })
            });
        }
        let timer_events = 50_000u64;
        volumes.push((format!("simnet/timer_storm/{timer_events}"), timer_events));
        g.bench_with_input(
            BenchmarkId::new("timer_storm", timer_events),
            &timer_events,
            |b, &events| {
                b.iter(|| {
                    let mut w = WorldBuilder::new(1).build(4, |_| TimerStorm);
                    for _ in 0..events {
                        w.step();
                    }
                    w.events_scheduled()
                })
            },
        );
        g.finish();
    }
    c.measurements()
        .iter()
        .map(|m| {
            let events = volumes
                .iter()
                .find(|(label, _)| *label == m.label)
                .map_or(0, |&(_, e)| e);
            let median_ns = m.median.as_nanos() as u64;
            MicroMeasurement {
                label: m.label.clone(),
                events,
                median_ns,
                events_per_sec: if median_ns == 0 {
                    0
                } else {
                    (events as u128 * 1_000_000_000 / median_ns as u128) as u64
                },
            }
        })
        .collect()
}

fn audit_both_ways(seed: u64, repetitions: usize) -> AuditMeasurement {
    let arms = campaign::arm_ids();
    let streamed_pass = || {
        arms.iter().all(|arm| {
            neat::audit::audit_double_run(
                &arm.name,
                seed,
                |s| {
                    campaign::run_arm(arm, s, RunMode::Hash)
                        .fingerprint
                        .hash()
                        .expect("Hash mode always yields a fingerprint hash")
                },
                |s| {
                    campaign::run_arm(arm, s, RunMode::Render)
                        .fingerprint
                        .into_rendered()
                        .expect("Render mode always yields a rendered fingerprint")
                },
            )
            .is_ok()
        })
    };
    let rendered_pass = || {
        arms.iter().all(|arm| {
            let render = |s: u64| {
                campaign::run_arm(arm, s, RunMode::Render)
                    .fingerprint
                    .into_rendered()
                    .expect("Render mode always yields a rendered fingerprint")
            };
            neat::audit::trace_hash(&render(seed)) == neat::audit::trace_hash(&render(seed))
        })
    };
    // Warm-up sweep (both timed passes should see warm caches), then the
    // min over `repetitions` of each pass — single samples of a ~50ms
    // sweep are far too noisy to compare.
    assert!(rendered_pass(), "rendered audit found a divergence (warm-up)");
    let mut streamed_ns = u64::MAX;
    let mut rendered_ns = u64::MAX;
    for _ in 0..repetitions.max(1) {
        let (ok, ns) = time_ns(streamed_pass);
        assert!(ok, "streamed audit found a divergence");
        streamed_ns = streamed_ns.min(ns);
        let (ok, ns) = time_ns(rendered_pass);
        assert!(ok, "rendered audit found a divergence");
        rendered_ns = rendered_ns.min(ns);
    }
    AuditMeasurement {
        arms: arms.len(),
        streamed_wall_clock_ns: streamed_ns,
        rendered_wall_clock_ns: rendered_ns,
        speedup: rendered_ns as f64 / streamed_ns.max(1) as f64,
    }
}

/// Recomputes the deterministic counters (no timing involved), so the
/// perf gate can share the exact logic the artifact was generated with.
pub fn deterministic_counts(seed: u64) -> DeterministicCounts {
    let arms = campaign::arm_ids();
    let mut delta_total = 0u64;
    let mut events_total = 0u64;
    let mut render_allocs_sample = 0u64;
    for (i, arm) in arms.iter().enumerate() {
        let (traced, trace_allocs) =
            alloc_counter::count_allocations(|| campaign::run_arm(arm, seed, RunMode::Trace));
        let (_, hash_allocs) =
            alloc_counter::count_allocations(|| campaign::run_arm(arm, seed, RunMode::Hash));
        delta_total += hash_allocs.abs_diff(trace_allocs);
        events_total += traced.timeline.counters.events_simulated;
        if i == 0 {
            let (_, render_allocs) =
                alloc_counter::count_allocations(|| campaign::run_arm(arm, seed, RunMode::Render));
            render_allocs_sample = render_allocs.saturating_sub(trace_allocs);
        }
    }
    DeterministicCounts {
        counting_allocator: alloc_counter::is_counting(),
        arms: arms.len(),
        fingerprint_alloc_delta_total: delta_total,
        render_allocs_sample,
        events_simulated_total: events_total,
    }
}

/// What one arm costs in Quick mode at a seed, in exact counts.
#[derive(Clone, Debug)]
pub struct ArmCost {
    /// `<scenario>/<flawed|fixed>`.
    pub arm: String,
    /// Deliveries plus timer fires (`events_simulated`, always counted).
    pub events: u64,
    pub allocations: u64,
}

/// Every registry arm's cost, most allocations first (ties keep registry
/// order). Both the `perf --arms` table and the allocations-per-event gate
/// in `tests/perf_gate.rs` are this loop.
pub fn arm_costs(seed: u64) -> Vec<ArmCost> {
    let mut costs: Vec<ArmCost> = campaign::arm_ids()
        .iter()
        .map(|arm| {
            let (run, allocations) =
                alloc_counter::count_allocations(|| campaign::run_arm(arm, seed, RunMode::Quick));
            ArmCost {
                arm: arm.name.clone(),
                events: run.timeline.counters.events_simulated,
                allocations,
            }
        })
        .collect();
    costs.sort_by_key(|c| std::cmp::Reverse(c.allocations));
    costs
}

/// The `perf --arms` table: one row per arm, then the total.
pub fn render_arm_costs(costs: &[ArmCost]) -> String {
    let total = ArmCost {
        arm: format!("total ({} arms)", costs.len()),
        events: costs.iter().map(|c| c.events).sum(),
        allocations: costs.iter().map(|c| c.allocations).sum(),
    };
    let mut out = format!("{:<50} {:>7} {:>11} {:>17}\n", "arm", "events", "allocations", "allocations/event");
    for c in costs.iter().chain([&total]) {
        let per_event = c.allocations as f64 / c.events.max(1) as f64;
        let _ = writeln!(out, "{:<50} {:>7} {:>11} {:>17.2}", c.arm, c.events, c.allocations, per_event);
    }
    out
}

/// Runs every layer. `sample_size` feeds the criterion shim (the binary
/// uses 10; tests use fewer to stay quick).
pub fn measure(seed: u64, sample_size: usize) -> PerfBench {
    measure_repeat(seed, sample_size, 1)
}

/// [`measure`] with min-of-N folding over the wall-clock layers: the
/// micro benches and the campaign timing run `repeat` times and each
/// label keeps its *minimum* median (the least-interfered-with sample —
/// noise on a shared box only ever inflates a timing). The deterministic
/// counters are computed once; repetition cannot change them. This backs
/// the `--repeat N` flag of `bench --bin perf`, so golden throughput
/// numbers are less hostage to scheduler luck.
pub fn measure_repeat(seed: u64, sample_size: usize, repeat: usize) -> PerfBench {
    let repeat = repeat.max(1);
    let mut micro = micro_benches(sample_size);
    let (_, mut campaign_ns) = time_ns(|| campaign::run_all_scenarios(seed));
    for _ in 1..repeat {
        for again in micro_benches(sample_size) {
            if let Some(m) = micro.iter_mut().find(|m| m.label == again.label) {
                if again.median_ns < m.median_ns {
                    *m = again;
                }
            }
        }
        let (_, ns) = time_ns(|| campaign::run_all_scenarios(seed));
        campaign_ns = campaign_ns.min(ns);
    }
    let audit = audit_both_ways(seed, sample_size.min(5));
    let deterministic = deterministic_counts(seed);
    PerfBench {
        seed,
        micro,
        campaign_wall_clock_ns: campaign_ns,
        audit,
        deterministic,
    }
}

fn push_f64(out: &mut String, v: f64) {
    let _ = write!(out, "{v:.3}");
}

impl PerfBench {
    /// Compact JSON, field order fixed by this function.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"bench\":\"perf\"");
        let _ = write!(out, ",\"seed\":{}", self.seed);
        out.push_str(",\"micro\":[");
        for (i, m) in self.micro.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"label\":\"{}\",\"events\":{},\"median_ns\":{},\"events_per_sec\":{}}}",
                m.label, m.events, m.median_ns, m.events_per_sec
            );
        }
        let _ = write!(
            out,
            "],\"campaign_wall_clock_ns\":{}",
            self.campaign_wall_clock_ns
        );
        let _ = write!(
            out,
            ",\"audit\":{{\"arms\":{},\"streamed_wall_clock_ns\":{},\
             \"rendered_wall_clock_ns\":{},\"speedup\":",
            self.audit.arms,
            self.audit.streamed_wall_clock_ns,
            self.audit.rendered_wall_clock_ns,
        );
        push_f64(&mut out, self.audit.speedup);
        let _ = write!(
            out,
            "}},\"deterministic\":{{\"counting_allocator\":{},\"arms\":{},\
             \"fingerprint_alloc_delta_total\":{},\"render_allocs_sample\":{},\
             \"events_simulated_total\":{}}}}}",
            self.deterministic.counting_allocator,
            self.deterministic.arms,
            self.deterministic.fingerprint_alloc_delta_total,
            self.deterministic.render_allocs_sample,
            self.deterministic.events_simulated_total,
        );
        out
    }

    /// The pretty form written to `BENCH_perf.json`.
    pub fn to_pretty_json(&self) -> String {
        format!("{}\n", study::json::pretty(&self.to_json()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_the_full_schema() {
        // One sample per bench: schema and invariants, not timings.
        let b = measure(8, 1);
        assert_eq!(b.micro.len(), 3);
        assert!(b.micro.iter().all(|m| m.events > 0));
        assert_eq!(b.audit.arms, campaign::arm_ids().len());
        assert!(b.deterministic.events_simulated_total > 0);
        // Without the counting allocator installed, every count is zero —
        // and with it installed, the fast-path delta must still be zero.
        assert_eq!(b.deterministic.fingerprint_alloc_delta_total, 0);
        let json = b.to_json();
        assert!(json.contains("\"bench\":\"perf\""), "{json}");
        assert!(json.contains("\"events_per_sec\":"), "{json}");
        assert!(json.contains("\"fingerprint_alloc_delta_total\":0"), "{json}");
        let pretty = b.to_pretty_json();
        assert!(pretty.contains("\"speedup\": "), "{pretty}");
        assert!(pretty.ends_with('\n'));
    }

    #[test]
    fn deterministic_counts_are_stable_across_invocations() {
        let a = deterministic_counts(8);
        let b = deterministic_counts(8);
        assert_eq!(a.events_simulated_total, b.events_simulated_total);
        assert_eq!(
            a.fingerprint_alloc_delta_total,
            b.fingerprint_alloc_delta_total
        );
    }
}
