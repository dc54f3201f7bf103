//! The deterministic hot-path counters behind `BENCH_perf.json`.
//!
//! Numbers a test can gate exactly, because no clock is involved: per-arm
//! allocation counts under [`alloc_counter::CountingAlloc`] (the streamed
//! fingerprint must allocate *nothing*) and the total events simulated
//! across the campaign. [`machine_json`] is the `BENCH_perf.json` row of
//! [`crate::ARTIFACTS`]. [`arm_costs`] is the same kind of number per arm
//! (the `perf` binary), kept out of the artifact, and so is
//! [`explore_tails`], what the explorer's trials cost between their final
//! heal and their checkers. Wall-clock numbers live in `benchmarks/` only.

use std::fmt::Write as _;

use neat::explore::{explore_full, quiesce_stats_during, QuiesceStats, Strategy, TestTarget};
use neat_repro::campaign::{self, RunMode};

/// Exactly reproducible numbers — the part `tests/perf_gate.rs` asserts.
#[derive(Clone, Debug)]
pub struct DeterministicCounts {
    /// Whether the measuring binary had [`alloc_counter::CountingAlloc`]
    /// installed; allocation counts are only meaningful when true.
    pub counting_allocator: bool,
    pub arms: usize,
    /// Σ over arms of the allocations of `neat::audit::stream_hash` over
    /// the recorded outcome — what [`RunMode::Hash`] adds to a recorded
    /// run. The streaming fingerprint's whole point is that this is **0**.
    pub fingerprint_alloc_delta_total: u64,
    /// Allocations of rendering the first arm's fingerprint
    /// (`neat::audit::fingerprint` of its recorded outcome) — the cost the
    /// fast path avoids per arm, per run.
    pub render_allocs_sample: u64,
    /// Σ over arms of the rendered fingerprint's length in bytes: what one
    /// run of every arm gives the audit to hash.
    pub fingerprint_bytes_total: u64,
    /// Σ over arms of the recorded run's `events_simulated` counter.
    pub events_simulated_total: u64,
}

/// Counts every registry arm at `seed`. Allocation counts read zero
/// unless the calling binary installed [`alloc_counter::CountingAlloc`].
pub fn deterministic_counts(seed: u64) -> DeterministicCounts {
    let arms = campaign::arm_ids();
    let mut delta_total = 0u64;
    let mut bytes_total = 0u64;
    let mut events_total = 0u64;
    let mut render_allocs_sample = 0u64;
    for (i, arm) in arms.iter().enumerate() {
        let o = campaign::arm_outcome(arm, seed, true);
        delta_total += alloc_counter::count_allocations(|| neat::audit::stream_hash(&o)).1;
        events_total += o.timeline.counters.events_simulated;
        let (fingerprint, allocs) =
            alloc_counter::count_allocations(|| neat::audit::fingerprint(&o));
        bytes_total += fingerprint.len() as u64;
        if i == 0 {
            render_allocs_sample = allocs;
        }
    }
    DeterministicCounts {
        counting_allocator: alloc_counter::is_counting(),
        arms: arms.len(),
        fingerprint_alloc_delta_total: delta_total,
        render_allocs_sample,
        fingerprint_bytes_total: bytes_total,
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
    /// The arm's worlds' event queues, merged: `high_water` is the most
    /// events any of them ever had pending at once (`qmax`), `far` how many
    /// were scheduled beyond the queue's window.
    pub queue: simnet::QueueStats,
    /// Replies the arm's mailboxes dropped because their op had closed
    /// (`neat::cluster::late_replies_during`).
    pub late: u64,
}

/// Every registry arm's cost, most allocations first (ties keep registry
/// order). Both the `perf` table and the allocations-per-event gate
/// in `tests/perf_gate.rs` are this loop.
pub fn arm_costs(seed: u64) -> Vec<ArmCost> {
    let mut costs: Vec<ArmCost> = campaign::arm_ids()
        .iter()
        .map(|arm| {
            let (((run, allocations), late), queue) = simnet::queue_stats_during(|| {
                neat::cluster::late_replies_during(|| {
                    alloc_counter::count_allocations(|| {
                        campaign::run_arm(arm, seed, RunMode::Quick)
                    })
                })
            });
            ArmCost {
                arm: arm.name.clone(),
                events: run.timeline.counters.events_simulated,
                allocations,
                queue,
                late,
            }
        })
        .collect();
    costs.sort_by_key(|c| std::cmp::Reverse(c.allocations));
    costs
}

/// The `perf` table: one row per arm, then the total.
pub fn render_arm_costs(costs: &[ArmCost]) -> String {
    let mut total = ArmCost {
        arm: format!("total ({} arms)", costs.len()),
        events: costs.iter().map(|c| c.events).sum(),
        allocations: costs.iter().map(|c| c.allocations).sum(),
        queue: simnet::QueueStats::default(),
        late: costs.iter().map(|c| c.late).sum(),
    };
    costs.iter().for_each(|c| total.queue.merge(c.queue));
    let mut out = format!(
        "{:<50} {:>7} {:>11} {:>17} {:>5} {:>5} {:>4}\n",
        "arm", "events", "allocations", "allocations/event", "qmax", "far", "late"
    );
    for c in costs.iter().chain([&total]) {
        let per_event = c.allocations as f64 / c.events.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<50} {:>7} {:>11} {:>17.2} {:>5} {:>5} {:>4}",
            c.arm, c.events, c.allocations, per_event, c.queue.high_water, c.queue.far, c.late
        );
    }
    out
}

/// The quiesce of one explorer target's trials: heal to check.
#[derive(Clone, Debug)]
pub struct ExploreTail {
    /// The family: `repkv` (VoltDB profile), `gridstore` and `mqueue`
    /// (flawed), or `consensus` (proven Raft, three servers).
    pub target: &'static str,
    pub quiesce: QuiesceStats,
}

/// The tails of `explore_full(target, &Strategy::coverage_guided(4), 50,
/// seed)` on each of the four targets the `explore_cov` benchmark
/// workload explores, in its order.
pub fn explore_tails(seed: u64) -> Vec<ExploreTail> {
    use mqueue::explorer::MqTarget;
    let targets: [(&'static str, Box<dyn TestTarget>); 4] = [
        ("repkv", Box::new(repkv::RepkvTarget::new(repkv::Config::voltdb()))),
        ("gridstore", Box::new(gridstore::GridTarget::new(gridstore::GridFlaws::flawed()))),
        ("mqueue", Box::new(MqTarget::new(mqueue::BrokerFlaws::flawed()))),
        ("consensus", Box::new(consensus::RaftTarget::new(Default::default(), 3))),
    ];
    let strategy = Strategy::coverage_guided(4);
    targets
        .into_iter()
        .map(|(target, mut t)| ExploreTail {
            target,
            quiesce: quiesce_stats_during(|| explore_full(t.as_mut(), &strategy, 50, seed)).1,
        })
        .collect()
}

/// The `perf` tail table: one row per explorer target, then the total.
pub fn render_explore_tails(tails: &[ExploreTail]) -> String {
    let mut total = QuiesceStats::default();
    tails.iter().for_each(|c| total.merge(c.quiesce));
    let mut out = format!(
        "{:<50} {:>7} {:>11} {:>7} {:>6} {:>14}\n",
        "explorer target", "trials", "quiesced ms", "events", "capped", "events/trial"
    );
    let rows = tails.iter().map(|c| (c.target, c.quiesce));
    for (target, q) in rows.chain([("total", total)]) {
        let per_trial = q.events as f64 / q.trials.max(1) as f64;
        let _ = writeln!(
            out,
            "{:<50} {:>7} {:>11} {:>7} {:>6} {:>14.1}",
            target, q.trials, q.quiesced_ms, q.events, q.capped, per_trial
        );
    }
    out
}

/// Exact content of `BENCH_perf.json`: [`deterministic_counts`] at the
/// historical seed 8. Only a binary that installs the counting allocator
/// (`bench --bin artifacts`, `tests/golden_outputs.rs`) reproduces the
/// committed bytes.
pub fn machine_json() -> String {
    let d = deterministic_counts(8);
    let doc = study::obj! {
        "bench" => "perf",
        "seed" => 8u64,
        "deterministic" => study::obj! {
            "counting_allocator" => d.counting_allocator,
            "arms" => d.arms,
            "fingerprint_alloc_delta_total" => d.fingerprint_alloc_delta_total,
            "render_allocs_sample" => d.render_allocs_sample,
            "fingerprint_bytes_total" => d.fingerprint_bytes_total,
            "events_simulated_total" => d.events_simulated_total,
        },
    };
    format!("{}\n", doc.pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn the_cost_table_ends_with_one_total_row_over_every_arm() {
        let arm = |arm: &str, events, allocations, high_water, far, late| ArmCost {
            arm: arm.to_string(),
            events,
            allocations,
            queue: simnet::QueueStats {
                high_water,
                scheduled: events,
                far,
            },
            late,
        };
        let costs = [arm("a/flawed", 300, 900, 12, 40, 2), arm("b/fixed", 100, 50, 31, 2, 1)];
        let table = render_arm_costs(&costs);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "a header, two arms and the total:\n{table}");
        // Events and allocations summed, allocations per event over the
        // sums, the deepest queue, the far events and late replies summed.
        let total = concat!(
            "total (2 arms)                                    ",
            "     400         950              2.38    31    42    3"
        );
        assert_eq!(lines[3], total);
    }

    #[test]
    fn the_tail_table_sums_every_target() {
        let tail = |target, trials, quiesced_ms, events, capped| ExploreTail {
            target,
            quiesce: QuiesceStats { trials, quiesced_ms, events, capped },
        };
        let tails = [tail("a", 50, 40_000, 3_400, 2), tail("b", 50, 30_000, 2_200, 0)];
        let table = render_explore_tails(&tails);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "a header, two targets and the total:\n{table}");
        let total = concat!(
            "total                                              ",
            "    100       70000    5600      2           56.0"
        );
        assert_eq!(lines[3], total);
    }
}
