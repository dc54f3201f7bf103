//! Typed composite fault schedules: the unit the explorer generates,
//! mutates, replays, and delta-minimizes.
//!
//! A [`SchedulePlan`] is a straight-line program over the nemesis and
//! client vocabulary of the paper's Tables 8–9: install a partition,
//! degrade links (gray failure), crash/restart nodes, heal, let virtual
//! time pass, issue a client event. Every random choice a client event
//! makes (key, value, which client) is fixed by a seed *embedded in the
//! step itself*, so replaying any sub-sequence of a plan replays each
//! surviving step byte-for-byte — the property that makes ddmin
//! minimization sound on top of the deterministic simulator.

#![deny(missing_docs)]

use rand::{rngs::StdRng, SeedableRng};
use simnet::{NodeId, Time};

use crate::{
    checkers::Violation,
    fault::PartitionSpec,
    gray::DegradeSpec,
};

use super::{EventChoice, TestTarget};

/// One step of a composite fault schedule.
#[derive(Clone, Debug)]
pub enum ScheduleStep {
    /// Install a partition (complete, partial, or simplex).
    Partition(PartitionSpec),
    /// Install a gray failure: degraded — not severed — links.
    Degrade(DegradeSpec),
    /// Crash these nodes.
    Crash(Vec<NodeId>),
    /// Restart these nodes (no-op for nodes already up).
    Restart(Vec<NodeId>),
    /// Heal every partition and degradation currently installed.
    Heal,
    /// Advance virtual time by this many milliseconds.
    Sleep(Time),
    /// Issue one client event. The embedded seed fixes the
    /// adapter's random choices for this step alone.
    Client(EventChoice, u64),
}

impl ScheduleStep {
    /// A compact human-readable label, used by [`SchedulePlan::render`].
    pub fn label(&self) -> String {
        fn ids(group: &[NodeId]) -> String {
            let mut out = String::new();
            for (i, n) in group.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&n.0.to_string());
            }
            out
        }
        let fault = |name: &str, kind: &dyn std::fmt::Display, (a, b): (&[NodeId], &[NodeId])| {
            format!("{name}({kind} {{{}}}|{{{}}})", ids(a), ids(b))
        };
        match self {
            ScheduleStep::Partition(spec) => fault("partition", &spec.kind(), spec.groups()),
            ScheduleStep::Degrade(spec) => fault("degrade", &spec.kind(), spec.groups()),
            ScheduleStep::Crash(nodes) => format!("crash({{{}}})", ids(nodes)),
            ScheduleStep::Restart(nodes) => format!("restart({{{}}})", ids(nodes)),
            ScheduleStep::Heal => "heal".to_string(),
            ScheduleStep::Sleep(ms) => format!("sleep({ms})"),
            ScheduleStep::Client(ev, _) => ev.label().to_string(),
        }
    }
}

/// A composite fault schedule: the typed test case the explorer searches
/// over, in execution order.
#[derive(Clone, Debug, Default)]
pub struct SchedulePlan {
    /// The steps, executed front to back by [`run_schedule`].
    pub steps: Vec<ScheduleStep>,
}

impl SchedulePlan {
    /// `true` when the plan heals mid-schedule (before its last step).
    pub fn heals_mid_schedule(&self) -> bool {
        self.steps
            .iter()
            .position(|s| matches!(s, ScheduleStep::Heal))
            .is_some_and(|i| i + 1 < self.steps.len())
    }

    /// One-line rendering: step labels joined by arrows.
    pub fn render(&self) -> String {
        if self.steps.is_empty() {
            return "(empty)".to_string();
        }
        let labels: Vec<String> = self.steps.iter().map(ScheduleStep::label).collect();
        labels.join(" -> ")
    }
}

/// Replays `plan` against a target that has already been
/// [`TestTarget::reset`], then runs the target's checkers.
///
/// Client steps draw their randomness from the seed embedded in the step,
/// never from shared state, so dropping steps (as the minimizer does)
/// cannot shift the choices of the steps that remain.
pub fn run_schedule(target: &mut dyn TestTarget, plan: &SchedulePlan) -> Vec<Violation> {
    for step in &plan.steps {
        match step {
            ScheduleStep::Partition(spec) => target.inject(spec),
            ScheduleStep::Degrade(spec) => target.degrade(spec),
            ScheduleStep::Crash(nodes) => target.crash(nodes),
            ScheduleStep::Restart(nodes) => target.restart(nodes),
            ScheduleStep::Heal => target.heal_all(),
            ScheduleStep::Sleep(ms) => target.advance(*ms),
            ScheduleStep::Client(ev, op_seed) => {
                let mut rng = StdRng::seed_from_u64(*op_seed);
                target.apply_event(*ev, &mut rng);
            }
        }
    }
    target.finish_and_check()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_render_are_compact() {
        let plan = SchedulePlan {
            steps: vec![
                ScheduleStep::Partition(PartitionSpec::Complete {
                    a: vec![NodeId(0)],
                    b: vec![NodeId(1), NodeId(2)],
                }),
                ScheduleStep::Client(EventChoice::Write, 7),
                ScheduleStep::Heal,
                ScheduleStep::Sleep(250),
                ScheduleStep::Client(EventChoice::Read, 8),
                ScheduleStep::Degrade(DegradeSpec::Simplex {
                    src: vec![NodeId(2)],
                    dst: vec![NodeId(0), NodeId(1)],
                    rule: simnet::DegradeRule::lossy(0.5),
                }),
            ],
        };
        assert_eq!(
            plan.render(),
            "partition(complete {0}|{1,2}) -> write -> heal -> sleep(250) -> read \
             -> degrade(gray-simplex {2}|{0,1})"
        );
        assert!(plan.heals_mid_schedule());
        assert_eq!(SchedulePlan::default().render(), "(empty)");
    }

    #[test]
    fn heal_at_the_end_is_not_mid_schedule() {
        let plan = SchedulePlan {
            steps: vec![ScheduleStep::Client(EventChoice::Write, 1), ScheduleStep::Heal],
        };
        assert!(!plan.heals_mid_schedule());
    }
}
