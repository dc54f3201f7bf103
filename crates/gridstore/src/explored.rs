//! Delta-minimized regression schedules for the data grid.
//!
//! Mined by the coverage-guided explorer against the flawed membership
//! layer and shrunk to a 1-minimal nemesis sequence with
//! `neat::explore::minimize::ddmin`. Notably the surviving schedule
//! *requires* the mid-trial heal (satellite: heal as a schedulable
//! event): the write only lands on stale state because the silenced
//! primary rejoins before the client issues it.

use neat::{
    explore::{replay_at_leader, EventChoice, SchedulePlan, ScheduleStep},
    fault::{rest_of, PartitionSpec},
    RunOutcome,
};
use simnet::NodeId;

use crate::{explorer::GridTarget, node::GridFlaws};

/// Op seed of the single surviving write, verbatim from the mined trial.
pub const WRITE_SEED: u64 = 18_007_421_219_739_211_395;

/// The 1-minimal schedule: simplex-silence the structure primary (the
/// rest of the grid cannot reach it), heal, then issue one counter
/// increment. The primary missed the membership churn, so the increment
/// applies to a replica set that diverged while it was deaf — surfacing
/// as [`DataLoss`] when the checker consolidates histories.
///
/// [`DataLoss`]: neat::ViolationKind::DataLoss
pub fn simplex_heal_write_plan(servers: &[NodeId], primary: NodeId) -> SchedulePlan {
    SchedulePlan {
        steps: vec![
            ScheduleStep::Partition(PartitionSpec::Simplex {
                src: rest_of(servers, &[primary]),
                dst: vec![primary],
            }),
            ScheduleStep::Heal,
            ScheduleStep::Client(EventChoice::Write, WRITE_SEED),
        ],
    }
}

/// Replays the minimized schedule against a grid running `flaws` at
/// `seed`, returning its verdicts and timeline.
pub fn explored_simplex_heal_write(
    flaws: GridFlaws,
    seed: u64,
    record: bool,
) -> RunOutcome {
    replay_at_leader(&mut GridTarget::new(flaws), seed, record, 0, simplex_heal_write_plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{minimize::is_one_minimal, plan_at_leader, run_schedule, TestTarget};
    use neat::ViolationKind;

    #[test]
    fn replay_reproduces_data_loss_on_the_flawed_arm() {
        for seed in [8u64, 42] {
            let out = explored_simplex_heal_write(GridFlaws::flawed(), seed, false);
            assert!(out.has(ViolationKind::DataLoss), "seed {seed}: {:?}", out.violations);
        }
    }

    #[test]
    fn replay_is_clean_on_the_protected_grid() {
        for seed in [8u64, 42] {
            let out = explored_simplex_heal_write(GridFlaws::fixed(), seed, false);
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
        }
    }

    #[test]
    fn the_baked_schedule_is_one_minimal_and_needs_the_heal() {
        let mut probe = GridTarget::new(GridFlaws::flawed());
        probe.reset(8, false);
        let plan = plan_at_leader(&mut probe, 0, simplex_heal_write_plan);
        assert!(plan.heals_mid_schedule(), "the heal is part of the repro");
        let mut target = GridTarget::new(GridFlaws::flawed());
        assert!(is_one_minimal(&plan.steps, |steps| {
            target.reset(8, false);
            run_schedule(&mut target, &SchedulePlan {
                steps: steps.to_vec()
            })
            .iter()
            .any(|v| v.kind == ViolationKind::DataLoss)
        }));
    }
}
