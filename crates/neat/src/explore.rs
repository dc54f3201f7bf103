//! Automatic workload and fault exploration (the paper's §8.1 future work).
//!
//! The paper's Chapter 5 identifies characteristics that prune the enormous
//! test space: 84% of manifestation sequences start with the partition
//! (Table 9), 83% need three or fewer events (Table 7), 88% manifest by
//! isolating a single node — most effectively the leader (Finding 9,
//! Table 10) — and events follow a natural order (lock before unlock, write
//! before read). [`Strategy::findings_guided`] encodes exactly those rules;
//! [`Strategy::naive`] is the uniform-random baseline; and
//! [`Strategy::coverage_guided`] layers AFL-style novelty feedback on top:
//! every trial is a typed [`SchedulePlan`] (composite partitions, gray
//! degradations, crash/restart, mid-schedule heal, client events in virtual
//! time), its [`obs::Timeline`] is folded into a [`Signature`], and plans
//! that reached an unseen signature become mutation seeds in a [`Corpus`].
//! Violating plans are shrunk to 1-minimal repros by [`minimize`].
//! `BENCH_explore.json` (written by `bench --bin artifacts`) and
//! `examples/exploration.rs` compare the three strategies' bug-finding
//! efficiency, reproducing the paper's testability claim (Finding 13).

#![deny(missing_docs)]

pub mod coverage;
pub mod deployment;
pub mod minimize;
pub mod schedule;

use std::collections::{BTreeMap, BTreeSet};

use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};
use simnet::{DegradeRule, NodeId, Time};

use crate::{
    checkers::{Violation, ViolationKind},
    fault::{rest_of, PartitionKind, PartitionSpec},
    gray::DegradeSpec,
};

pub use coverage::{Corpus, Signature};
pub use deployment::{plan_at_leader, quiesce_stats_during, Deployment, QuiesceStats};
pub use schedule::{run_schedule, SchedulePlan, ScheduleStep};

/// The client event palette of the paper's Table 8.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EventChoice {
    /// Write a value to a key/register.
    Write,
    /// Read a key/register back.
    Read,
    /// Delete a key.
    Delete,
    /// Acquire a lock or semaphore.
    Acquire,
    /// Release a lock or semaphore.
    Release,
    /// Enqueue a message.
    Enqueue,
    /// Dequeue a message.
    Dequeue,
}

impl EventChoice {
    /// Rank used by the *natural order* heuristic: producers before
    /// consumers (`write` before `read`, `lock` before `unlock`).
    fn natural_rank(&self) -> u8 {
        match self {
            EventChoice::Write | EventChoice::Acquire | EventChoice::Enqueue => 0,
            EventChoice::Read | EventChoice::Release | EventChoice::Dequeue => 1,
            EventChoice::Delete => 2,
        }
    }

    /// Compact label used when rendering schedules.
    pub fn label(&self) -> &'static str {
        match self {
            EventChoice::Write => "write",
            EventChoice::Read => "read",
            EventChoice::Delete => "delete",
            EventChoice::Acquire => "acquire",
            EventChoice::Release => "release",
            EventChoice::Enqueue => "enqueue",
            EventChoice::Dequeue => "dequeue",
        }
    }
}

/// A system adapter the explorer can drive.
///
/// Implementations wrap a concrete system model plus its NEAT engine: they
/// build a fresh cluster on [`TestTarget::reset`], translate
/// [`EventChoice`]s into real client calls (picking keys/values/clients with
/// the supplied RNG), and run their checkers in
/// [`TestTarget::finish_and_check`]. The crash/restart/degrade/advance
/// methods default to no-ops so toy targets stay small; real adapters
/// override them to expose the full nemesis vocabulary to the scheduler.
pub trait TestTarget {
    /// Rebuilds the system from scratch with the given seed. `record`
    /// asks for a recorded [`obs::Timeline`] — the coverage explorer needs
    /// one to extract [`Signature`]s; plain replay does not.
    fn reset(&mut self, seed: u64, record: bool);
    /// Server nodes eligible for partitioning.
    fn servers(&self) -> Vec<NodeId>;
    /// Best-effort current leader, if the system has one.
    fn leader(&mut self) -> Option<NodeId>;
    /// The subset of [`EventChoice`]s this system supports.
    fn supported_events(&self) -> Vec<EventChoice>;
    /// Injects a partition.
    fn inject(&mut self, spec: &PartitionSpec);
    /// Installs a gray degradation (default: unsupported, no-op).
    fn degrade(&mut self, _spec: &DegradeSpec) {}
    /// Crashes the given nodes (default: unsupported, no-op).
    fn crash(&mut self, _nodes: &[NodeId]) {}
    /// Restarts the given nodes (default: unsupported, no-op).
    fn restart(&mut self, _nodes: &[NodeId]) {}
    /// Advances virtual time by `ms` (default: no-op).
    fn advance(&mut self, _ms: Time) {}
    /// Heals every injected partition and degradation.
    fn heal_all(&mut self);
    /// Applies one client event.
    fn apply_event(&mut self, ev: EventChoice, rng: &mut StdRng);
    /// Heals (if not already healed), quiesces, runs checkers.
    fn finish_and_check(&mut self) -> Vec<Violation>;
    /// The observability timeline of the trial that just finished.
    /// Meaningful after [`TestTarget::finish_and_check`] on a target reset
    /// with `record: true`; the default returns an empty timeline.
    fn timeline(&mut self) -> obs::Timeline {
        obs::Timeline::default()
    }
}

/// The test-case generator: the three strategies the paper's Finding 13
/// comparison runs.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// The paper's Chapter 5 findings: the partition first (Table 9: 84%),
    /// at most three client events (Table 7: 83% need ≤ 3) in their
    /// natural order (write before read, …), the leader isolated (Finding
    /// 9 / Table 10), and a mid-trial heal in 30% of plans.
    FindingsGuided,
    /// Uniform random baseline: any victim, the fault at any position, up
    /// to `max_events` client events in drawn order, a mid-trial heal in
    /// 25% of plans.
    Naive {
        /// Most client events per plan.
        max_events: usize,
    },
    /// Coverage-guided search: naive plans with a composite nemesis
    /// fragment (degrade, crash/restart or pause) spliced into half of
    /// them, trials recorded and folded into [`Signature`]s, and plans that
    /// reached a new one kept in a [`Corpus`] and mutated.
    CoverageGuided {
        /// Most client events per fresh plan.
        max_events: usize,
    },
}

impl Strategy {
    /// The strategy encoding the paper's Chapter 5 findings.
    pub fn findings_guided() -> Self {
        Strategy::FindingsGuided
    }

    /// Uniform random baseline with up to `max_events` client events.
    pub fn naive(max_events: usize) -> Self {
        Strategy::Naive { max_events }
    }

    /// Coverage-guided search with up to `max_events` client events per
    /// fresh plan.
    pub fn coverage_guided(max_events: usize) -> Self {
        Strategy::CoverageGuided { max_events }
    }
}

/// Read-only facts of a [`Strategy`], reached through its `Deref`.
///
/// Kept for the benchmark harness (`benchmarks/`), whose frozen source
/// resets a find's target with `strategy.coverage_guided` as the `record`
/// flag.
#[derive(Debug)]
pub struct StrategyFacts {
    /// `true` for [`Strategy::CoverageGuided`]: its trials are recorded.
    pub coverage_guided: bool,
}

impl std::ops::Deref for Strategy {
    type Target = StrategyFacts;

    fn deref(&self) -> &StrategyFacts {
        match self {
            Strategy::CoverageGuided { .. } => &StrategyFacts { coverage_guided: true },
            _ => &StrategyFacts { coverage_guided: false },
        }
    }
}

/// Result of an exploration run.
#[derive(Clone, Debug, Default)]
pub struct ExplorationReport {
    /// Trials executed.
    pub trials: usize,
    /// Trials in which at least one violation was detected.
    pub trials_with_violation: usize,
    /// 1-based index of the first failing trial, if any.
    pub first_violation_trial: Option<usize>,
    /// Violations per kind, across all trials.
    pub kinds: BTreeMap<ViolationKind, usize>,
    /// Distinct coverage signatures reached across all trials.
    pub signatures: BTreeSet<Signature>,
}

impl ExplorationReport {
    /// Number of distinct [`ViolationKind`]s found — the metric the
    /// acceptance bench compares across strategies at equal budget.
    pub fn distinct_kinds(&self) -> usize {
        self.kinds.len()
    }
}

/// A violating trial: the schedule, the seed that reproduces it, and the
/// distinct verdict kinds it produced. Shrink its `plan.steps` with
/// [`minimize::ddmin`] under a predicate that resets the target at
/// `trial_seed` and replays the candidate.
#[derive(Clone, Debug)]
pub struct Find {
    /// The schedule that tripped a checker.
    pub plan: SchedulePlan,
    /// The trial seed: `reset(trial_seed, _)` + replay reproduces it.
    pub trial_seed: u64,
    /// Distinct verdict kinds, sorted.
    pub kinds: Vec<ViolationKind>,
}

/// Full result of an exploration: the tallies, the novelty corpus (for
/// sharded merge and further fuzzing), and every violating schedule with
/// its repro seed.
#[derive(Clone, Debug, Default)]
pub struct Exploration {
    /// Aggregate tallies, as [`explore`] returns.
    pub report: ExplorationReport,
    /// Schedules that reached novel signatures, in discovery order. Kept
    /// under [`Strategy::CoverageGuided`] only, the one strategy that
    /// mutates them; empty under [`Strategy::Naive`] and
    /// [`Strategy::FindingsGuided`], whose novelty is still counted in
    /// `report.signatures`.
    pub corpus: Corpus,
    /// Violating schedules with repro seeds, in trial order.
    pub finds: Vec<Find>,
}

/// Merges per-seed reports (in sweep order) into the report a single
/// serial run over the concatenated trial sequence would have produced:
/// trial counts, per-kind tallies, and signature sets sum/union, and the
/// first failing trial is offset by the trials of the reports before it.
/// Used by the fleet to reduce parallel exploration sweeps
/// deterministically.
pub fn merge_reports<'a, I>(reports: I) -> ExplorationReport
where
    I: IntoIterator<Item = &'a ExplorationReport>,
{
    let mut merged = ExplorationReport::default();
    for r in reports {
        if merged.first_violation_trial.is_none() {
            if let Some(t) = r.first_violation_trial {
                merged.first_violation_trial = Some(merged.trials + t);
            }
        }
        merged.trials += r.trials;
        merged.trials_with_violation += r.trials_with_violation;
        for (kind, count) in &r.kinds {
            *merged.kinds.entry(*kind).or_default() += count;
        }
        for sig in &r.signatures {
            merged.signatures.insert(sig.clone());
        }
    }
    merged
}

/// Draws the trial's partition: a kind from [`PartitionKind::ALL`], then
/// its victim — `victim` when given, else a random server.
fn draw_partition(victim: Option<NodeId>, servers: &[NodeId], rng: &mut StdRng) -> PartitionSpec {
    let kind = PartitionKind::ALL[rng.gen_range(0..PartitionKind::ALL.len())];
    let victim = victim.unwrap_or_else(|| servers[rng.gen_range(0..servers.len())]);
    PartitionSpec::isolating(kind, victim, servers)
}

/// The gray-rule menu the composite generator draws from.
fn random_degrade(servers: &[NodeId], victim: NodeId, rng: &mut StdRng) -> DegradeSpec {
    let others = rest_of(servers, &[victim]);
    let rule = match rng.gen_range(0..3u32) {
        0 => DegradeRule::lossy(0.5),
        1 => DegradeRule::lossy(1.0),
        _ => DegradeRule::duplicating(1.0),
    };
    if rng.gen_bool(0.25) {
        DegradeSpec::flapping(vec![victim], others, rule, 400)
    } else {
        DegradeSpec::Partial {
            a: vec![victim],
            b: others,
            rule,
        }
    }
}

/// A composite nemesis fragment: degrade, crash/sleep/restart, or a pause.
fn composite_fragment(servers: &[NodeId], rng: &mut StdRng) -> Vec<ScheduleStep> {
    let victim = servers[rng.gen_range(0..servers.len())];
    match rng.gen_range(0..4u32) {
        0 | 1 => vec![ScheduleStep::Degrade(random_degrade(servers, victim, rng))],
        2 => vec![
            ScheduleStep::Crash(vec![victim]),
            ScheduleStep::Sleep(300),
            ScheduleStep::Restart(vec![victim]),
        ],
        _ => vec![ScheduleStep::Sleep(rng.gen_range(200..=800))],
    }
}

/// One random step of any kind — the mutation operator's raw material.
fn random_step(servers: &[NodeId], palette: &[EventChoice], rng: &mut StdRng) -> ScheduleStep {
    match rng.gen_range(0..6u32) {
        0 => ScheduleStep::Partition(draw_partition(None, servers, rng)),
        1 => {
            let victim = servers[rng.gen_range(0..servers.len())];
            ScheduleStep::Degrade(random_degrade(servers, victim, rng))
        }
        2 => ScheduleStep::Heal,
        3 => ScheduleStep::Sleep(rng.gen_range(100..=800)),
        4 if !palette.is_empty() => {
            ScheduleStep::Client(palette[rng.gen_range(0..palette.len())], rng.next_u64())
        }
        _ => {
            let victim = vec![servers[rng.gen_range(0..servers.len())]];
            match rng.gen_range(0..2usize) {
                0 => ScheduleStep::Crash(victim),
                _ => ScheduleStep::Restart(victim),
            }
        }
    }
}

/// Generates a fresh [`SchedulePlan`] under `strategy`: a partition, up
/// to the strategy's bound of client events, sometimes a mid-trial heal
/// after the partition (Table 9 sequences heal before the triggering op)
/// and, under coverage-guided search, sometimes a composite fragment.
fn generate_plan(
    strategy: &Strategy,
    servers: &[NodeId],
    leader: Option<NodeId>,
    palette: &[EventChoice],
    rng: &mut StdRng,
) -> SchedulePlan {
    let (guided, max_events) = match *strategy {
        Strategy::FindingsGuided => (true, 3),
        Strategy::Naive { max_events } | Strategy::CoverageGuided { max_events } => {
            (false, max_events)
        }
    };
    let spec = draw_partition(leader.filter(|_| guided), servers, rng);

    let n_events = if palette.is_empty() {
        0
    } else {
        rng.gen_range(0..=max_events)
    };
    let mut events: Vec<(EventChoice, u64)> = (0..n_events)
        .map(|_| (palette[rng.gen_range(0..palette.len())], rng.next_u64()))
        .collect();
    if guided {
        // Stable sort: equal-rank events keep their drawn order and seeds.
        events.sort_by_key(|(ev, _)| ev.natural_rank());
    }

    let inject_at = if guided {
        0
    } else {
        rng.gen_range(0..=events.len())
    };
    let mut steps: Vec<ScheduleStep> = Vec::with_capacity(events.len() + 3);
    steps.extend(events.iter().map(|&(ev, op_seed)| ScheduleStep::Client(ev, op_seed)));
    steps.insert(inject_at, ScheduleStep::Partition(spec));

    let heal_percent = if guided { 30 } else { 25 };
    if rng.gen_range(0..100u32) < heal_percent {
        let at = rng.gen_range(inject_at + 1..=steps.len());
        steps.insert(at, ScheduleStep::Heal);
    }

    if matches!(strategy, Strategy::CoverageGuided { .. }) && rng.gen_range(0..100u32) < 50 {
        let fragment = composite_fragment(servers, rng);
        let at = rng.gen_range(0..=steps.len());
        steps.splice(at..at, fragment);
    }

    SchedulePlan { steps }
}

/// Mutates a corpus schedule: 1–2 edits from {insert random step, remove a
/// step, swap two steps, replace a step, re-seed a client event}.
fn mutate_plan(
    plan: &SchedulePlan,
    servers: &[NodeId],
    palette: &[EventChoice],
    rng: &mut StdRng,
) -> SchedulePlan {
    let mut steps = plan.steps.clone();
    let edits = rng.gen_range(1..=2u32);
    for _ in 0..edits {
        match rng.gen_range(0..5u32) {
            0 => {
                let step = random_step(servers, palette, rng);
                let at = rng.gen_range(0..=steps.len());
                steps.insert(at, step);
            }
            1 if !steps.is_empty() => {
                steps.remove(rng.gen_range(0..steps.len()));
            }
            2 if steps.len() >= 2 => {
                let a = rng.gen_range(0..steps.len());
                let b = rng.gen_range(0..steps.len());
                steps.swap(a, b);
            }
            3 if !steps.is_empty() => {
                let at = rng.gen_range(0..steps.len());
                steps[at] = random_step(servers, palette, rng);
            }
            4 => {
                let clients: Vec<usize> = steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| matches!(s, ScheduleStep::Client(..)))
                    .map(|(i, _)| i)
                    .collect();
                if let Some(&at) = clients.get(rng.gen_range(0..clients.len().max(1))) {
                    if let ScheduleStep::Client(ev, _) = steps[at] {
                        steps[at] = ScheduleStep::Client(ev, rng.next_u64());
                    }
                }
            }
            _ => {}
        }
    }
    SchedulePlan { steps }
}

/// Runs `trials` generated test cases against `target`, tallying
/// violations, collecting the novelty corpus (coverage-guided search
/// only), and recording every violating schedule with its repro seed.
///
/// Trial seeds derive from `(seed, trial index)` alone, so a run is a
/// pure function of `(target construction, strategy, trials, seed)` —
/// the property sharded sweeps and the minimizer both lean on.
pub fn explore_full(
    target: &mut dyn TestTarget,
    strategy: &Strategy,
    trials: usize,
    seed: u64,
) -> Exploration {
    let coverage = matches!(strategy, Strategy::CoverageGuided { .. });
    let mut out = Exploration {
        report: ExplorationReport {
            trials,
            ..Default::default()
        },
        ..Default::default()
    };
    for trial in 0..trials {
        let trial_seed = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(trial as u64);
        let mut rng = StdRng::seed_from_u64(trial_seed);
        // Recording is only needed when signatures feed the corpus.
        target.reset(trial_seed, coverage);

        let servers = target.servers();
        if servers.is_empty() {
            continue;
        }
        let leader = target.leader();
        let palette = target.supported_events();

        let base = if coverage && !out.corpus.is_empty() && rng.gen_range(0..100u32) < 60 {
            out.corpus.pick(&mut rng)
        } else {
            None
        };
        let plan = match base {
            Some(base) => mutate_plan(base, &servers, &palette, &mut rng),
            None => generate_plan(strategy, &servers, leader, &palette, &mut rng),
        };

        let violations = run_schedule(target, &plan);
        let timeline = target.timeline();
        let sig = Signature::of(&timeline, &violations);
        if !out.report.signatures.contains(&sig) {
            out.report.signatures.insert(sig.clone());
            if coverage {
                out.corpus.keep(plan.clone(), sig);
            }
        }

        if !violations.is_empty() {
            out.report.trials_with_violation += 1;
            out.report.first_violation_trial.get_or_insert(trial + 1);
            let mut kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
            for v in &violations {
                *out.report.kinds.entry(v.kind).or_default() += 1;
            }
            kinds.sort();
            kinds.dedup();
            out.finds.push(Find {
                plan,
                trial_seed,
                kinds,
            });
        }
    }
    out
}

/// Runs `trials` generated test cases against `target` and tallies the
/// violations found. Thin wrapper over [`explore_full`] for callers that
/// only need the report.
pub fn explore(
    target: &mut dyn TestTarget,
    strategy: &Strategy,
    trials: usize,
    seed: u64,
) -> ExplorationReport {
    explore_full(target, strategy, trials, seed).report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Violation;

    /// A toy target that fails only under the paper's canonical sequence:
    /// partition injected first, then a write, then a read, with the leader
    /// (node 0) isolated.
    #[derive(Default)]
    struct ToyTarget {
        injected_first: bool,
        leader_isolated: bool,
        wrote: bool,
        read_after_write: bool,
        events_seen: usize,
    }

    impl TestTarget for ToyTarget {
        fn reset(&mut self, _seed: u64, _record: bool) {
            *self = ToyTarget::default();
        }
        fn servers(&self) -> Vec<NodeId> {
            vec![NodeId(0), NodeId(1), NodeId(2)]
        }
        fn leader(&mut self) -> Option<NodeId> {
            Some(NodeId(0))
        }
        fn supported_events(&self) -> Vec<EventChoice> {
            vec![EventChoice::Write, EventChoice::Read, EventChoice::Delete]
        }
        fn inject(&mut self, spec: &PartitionSpec) {
            if self.events_seen == 0 {
                self.injected_first = true;
            }
            let isolated = match spec {
                PartitionSpec::Complete { a, .. } | PartitionSpec::Partial { a, .. } => a.clone(),
                PartitionSpec::Simplex { dst, .. } => dst.clone(),
            };
            self.leader_isolated = isolated == vec![NodeId(0)];
        }
        fn heal_all(&mut self) {}
        fn apply_event(&mut self, ev: EventChoice, _rng: &mut StdRng) {
            self.events_seen += 1;
            match ev {
                EventChoice::Write => self.wrote = true,
                EventChoice::Read if self.wrote => self.read_after_write = true,
                _ => {}
            }
        }
        fn finish_and_check(&mut self) -> Vec<Violation> {
            if self.injected_first && self.leader_isolated && self.read_after_write {
                vec![Violation::new(ViolationKind::StaleRead, "toy")]
            } else {
                Vec::new()
            }
        }
    }

    /// A bug that manifests only when the heal itself happens
    /// mid-schedule — partition, heal, then a write *after*
    /// the heal (Table 9's heal-before-triggering-op shape).
    #[derive(Default)]
    struct HealBugTarget {
        injected: bool,
        healed_after_inject: bool,
        wrote_after_heal: bool,
    }

    impl TestTarget for HealBugTarget {
        fn reset(&mut self, _seed: u64, _record: bool) {
            *self = HealBugTarget::default();
        }
        fn servers(&self) -> Vec<NodeId> {
            vec![NodeId(0), NodeId(1), NodeId(2)]
        }
        fn leader(&mut self) -> Option<NodeId> {
            Some(NodeId(0))
        }
        fn supported_events(&self) -> Vec<EventChoice> {
            vec![EventChoice::Write, EventChoice::Read]
        }
        fn inject(&mut self, _spec: &PartitionSpec) {
            self.injected = true;
        }
        fn heal_all(&mut self) {
            if self.injected {
                self.healed_after_inject = true;
            }
        }
        fn apply_event(&mut self, ev: EventChoice, _rng: &mut StdRng) {
            if ev == EventChoice::Write && self.healed_after_inject {
                self.wrote_after_heal = true;
            }
        }
        fn finish_and_check(&mut self) -> Vec<Violation> {
            // finish_and_check's own heal would be too late: the write
            // must land after the heal for the bug to fire.
            if self.wrote_after_heal {
                vec![Violation::new(ViolationKind::DataLoss, "post-heal write lost")]
            } else {
                Vec::new()
            }
        }
    }

    /// Counts events per trial to expose the n_events cap. `max_seen`
    /// survives reset on purpose.
    struct CountingTarget {
        events_this_trial: usize,
        max_seen: usize,
    }

    impl TestTarget for CountingTarget {
        fn reset(&mut self, _seed: u64, _record: bool) {
            self.events_this_trial = 0;
        }
        fn servers(&self) -> Vec<NodeId> {
            vec![NodeId(0), NodeId(1)]
        }
        fn leader(&mut self) -> Option<NodeId> {
            None
        }
        fn supported_events(&self) -> Vec<EventChoice> {
            vec![EventChoice::Write]
        }
        fn inject(&mut self, _spec: &PartitionSpec) {}
        fn heal_all(&mut self) {}
        fn apply_event(&mut self, _ev: EventChoice, _rng: &mut StdRng) {
            self.events_this_trial += 1;
        }
        fn finish_and_check(&mut self) -> Vec<Violation> {
            self.max_seen = self.max_seen.max(self.events_this_trial);
            Vec::new()
        }
    }

    #[test]
    fn findings_guided_beats_naive_on_the_toy_bug() {
        let mut target = ToyTarget::default();
        let guided = explore(&mut target, &Strategy::findings_guided(), 200, 11);
        let naive = explore(&mut target, &Strategy::naive(3), 200, 11);
        assert!(
            guided.trials_with_violation > naive.trials_with_violation,
            "guided {} vs naive {}",
            guided.trials_with_violation,
            naive.trials_with_violation
        );
        assert!(
            guided.trials_with_violation * 10 > guided.trials,
            "guided hit {} of {} trials",
            guided.trials_with_violation,
            guided.trials
        );
    }

    #[test]
    fn heal_is_schedulable_mid_trial() {
        let mut target = HealBugTarget::default();
        let hits = explore(&mut target, &Strategy::findings_guided(), 80, 5);
        assert!(
            hits.trials_with_violation > 0,
            "heal-then-op bug never found with heal scheduling on"
        );
        assert!(hits.kinds.contains_key(&ViolationKind::DataLoss));
    }

    #[test]
    fn n_events_draws_from_the_configured_bound() {
        // Palette of 1: the old cap `max_events.min(palette.len() * 2)`
        // silently clamped to 2. The fix draws from the configured bound.
        let mut target = CountingTarget {
            events_this_trial: 0,
            max_seen: 0,
        };
        explore(&mut target, &Strategy::naive(6), 120, 7);
        assert_eq!(
            target.max_seen, 6,
            "max_events=6 with a 1-event palette must still reach 6 events"
        );
    }

    #[test]
    fn coverage_guided_builds_a_corpus_and_tracks_signatures() {
        let mut target = ToyTarget::default();
        let exploration = explore_full(&mut target, &Strategy::coverage_guided(3), 60, 17);
        assert!(!exploration.corpus.is_empty());
        assert!(!exploration.report.signatures.is_empty());
        assert!(
            exploration.corpus.len() <= exploration.report.trials,
            "corpus holds at most one entry per trial"
        );
        // One novelty set: one corpus entry per distinct signature.
        let kept: BTreeSet<&Signature> =
            exploration.corpus.entries().iter().map(|(_, sig)| sig).collect();
        assert_eq!(kept.len(), exploration.corpus.len());
        assert!(kept.into_iter().eq(exploration.report.signatures.iter()));
        // Every find must carry its repro seed and at least one kind.
        for find in &exploration.finds {
            assert!(!find.kinds.is_empty());
            assert!(!find.plan.steps.is_empty());
        }
        assert_eq!(
            exploration.finds.len(),
            exploration.report.trials_with_violation
        );
    }

    #[test]
    fn only_coverage_guided_search_keeps_a_corpus() {
        for strategy in [Strategy::naive(3), Strategy::findings_guided()] {
            let mut target = ToyTarget::default();
            let exploration = explore_full(&mut target, &strategy, 60, 17);
            assert!(exploration.corpus.is_empty(), "{strategy:?} kept a corpus");
            // Novelty is still counted: the report's signature set.
            assert!(!exploration.report.signatures.is_empty(), "{strategy:?}");
        }
    }

    #[test]
    fn report_tracks_first_trial_and_kinds() {
        let mut target = ToyTarget::default();
        let guided = explore(&mut target, &Strategy::findings_guided(), 50, 3);
        assert!(guided.first_violation_trial.is_some());
        assert!(guided.kinds.contains_key(&ViolationKind::StaleRead));
    }

    #[test]
    fn merge_reports_sums_and_offsets_first_violation() {
        let mut a = ExplorationReport {
            trials: 10,
            ..Default::default()
        };
        a.kinds.insert(ViolationKind::StaleRead, 2);
        let b = ExplorationReport {
            trials: 10,
            trials_with_violation: 3,
            first_violation_trial: Some(4),
            kinds: [(ViolationKind::StaleRead, 1), (ViolationKind::DataLoss, 2)]
                .into_iter()
                .collect(),
            ..Default::default()
        };
        let merged = merge_reports([&a, &b]);
        assert_eq!(merged.trials, 20);
        assert_eq!(merged.trials_with_violation, 3);
        // First failing trial sits in the second batch: offset by batch 1.
        assert_eq!(merged.first_violation_trial, Some(14));
        assert_eq!(merged.kinds[&ViolationKind::StaleRead], 3);
        assert_eq!(merged.kinds[&ViolationKind::DataLoss], 2);
        assert_eq!(merge_reports([]).trials, 0);
    }

    #[test]
    fn merge_unions_signatures() {
        let mut target = ToyTarget::default();
        let a = explore(&mut target, &Strategy::coverage_guided(3), 20, 1);
        let b = explore(&mut target, &Strategy::coverage_guided(3), 20, 2);
        let merged = merge_reports([&a, &b]);
        assert!(merged.signatures.len() >= a.signatures.len().max(b.signatures.len()));
        assert!(merged.signatures.len() <= a.signatures.len() + b.signatures.len());
    }

    #[test]
    fn merge_matches_one_serial_run_over_the_same_trials() {
        let mut target = ToyTarget::default();
        let strategy = Strategy::findings_guided();
        // explore() derives each trial's seed from (seed, trial index), so
        // two half-size batches at the same seed are NOT the same trials
        // as one big batch — merge is only asserted on the invariants
        // that hold regardless: totals and monotone first-violation.
        let first = explore(&mut target, &strategy, 25, 11);
        let second = explore(&mut target, &strategy, 25, 12);
        let merged = merge_reports([&first, &second]);
        assert_eq!(merged.trials, 50);
        assert_eq!(
            merged.trials_with_violation,
            first.trials_with_violation + second.trials_with_violation
        );
        match first.first_violation_trial {
            Some(t) => assert_eq!(merged.first_violation_trial, Some(t)),
            None => assert_eq!(
                merged.first_violation_trial,
                second.first_violation_trial.map(|t| t + 25)
            ),
        }
    }

    #[test]
    fn zero_trials_is_empty_report() {
        let mut target = ToyTarget::default();
        let r = explore(&mut target, &Strategy::naive(3), 0, 3);
        assert_eq!(r.trials_with_violation, 0);
    }

    #[test]
    fn generate_plan_respects_partition_first_and_natural_order() {
        let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let palette = [EventChoice::Read, EventChoice::Write, EventChoice::Delete];
        let strategy = Strategy::findings_guided();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..40 {
            let plan = generate_plan(&strategy, &servers, Some(NodeId(0)), &palette, &mut rng);
            assert!(
                matches!(plan.steps[0], ScheduleStep::Partition(_)),
                "findings-guided plans put the fault at step 0: {}",
                plan.render()
            );
            let ranks: Vec<u8> = plan
                .steps
                .iter()
                .filter_map(|s| match s {
                    ScheduleStep::Client(ev, _) => Some(ev.natural_rank()),
                    _ => None,
                })
                .collect();
            assert!(
                ranks.windows(2).all(|w| w[0] <= w[1]),
                "natural order violated: {}",
                plan.render()
            );
        }
    }

    #[test]
    fn mutate_plan_changes_something_eventually() {
        let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let palette = [EventChoice::Read, EventChoice::Write];
        let mut rng = StdRng::seed_from_u64(5);
        let base = generate_plan(&Strategy::coverage_guided(3), &servers, None, &palette, &mut rng);
        let mut changed = false;
        for _ in 0..20 {
            let mutated = mutate_plan(&base, &servers, &palette, &mut rng);
            if format!("{:?}", mutated.steps) != format!("{:?}", base.steps) {
                changed = true;
                break;
            }
        }
        assert!(changed, "20 mutations never changed the plan");
    }
}
