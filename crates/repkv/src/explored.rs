//! Delta-minimized regression schedules for the primary-backup KV family.
//!
//! These plans were mined by the coverage-guided explorer
//! (`neat::explore::explore_full`) against the VoltDB-style flawed
//! configuration and shrunk to 1-minimal nemesis sequences with
//! `neat::explore::minimize::ddmin`. Each survives as a permanent
//! campaign scenario: the schedule is baked (victim generalized to the
//! elected leader at the replay seed, client op seeds kept verbatim), so
//! replay reproduces the original violation on the flawed arm and passes
//! clean on the repaired baseline.

use neat::{
    explore::{plan_at_leader, replay_at_leader, EventChoice, SchedulePlan, ScheduleStep},
    fault::{rest_of, PartitionSpec},
    RunOutcome,
};
use simnet::NodeId;

use crate::{explorer::RepkvTarget, Config};

/// Op seed of the single surviving write, kept verbatim from the mined
/// trial so the replayed client draws the same key and client index.
pub const WRITE_SEED: u64 = 10_492_150_018_496_043_109;

/// The 1-minimal schedule aimed at the leader of a just-reset `target`
/// (server 0 when none is visible): simplex-silence the leader (followers
/// cannot reach it, it still reaches them), then issue one write. The
/// leader keeps accepting the write while the deposed majority elects a
/// rival — the divergent histories consolidate into [`DataCorruption`] at
/// heal.
///
/// [`DataCorruption`]: neat::ViolationKind::DataCorruption
pub fn simplex_leader_write_plan(target: &mut RepkvTarget) -> SchedulePlan {
    plan_at_leader(target, 0, |servers: &[NodeId], leader| SchedulePlan {
        steps: vec![
            ScheduleStep::Partition(PartitionSpec::Simplex {
                src: rest_of(servers, &[leader]),
                dst: vec![leader],
            }),
            ScheduleStep::Client(EventChoice::Write, WRITE_SEED),
        ],
    })
}

/// Replays the minimized schedule against `config` at `seed`, returning
/// its verdicts and timeline.
pub fn explored_simplex_leader_write(
    config: Config,
    seed: u64,
    record: bool,
) -> RunOutcome {
    replay_at_leader(&mut RepkvTarget::new(config), seed, record, simplex_leader_write_plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{minimize::is_one_minimal, run_schedule, TestTarget};
    use neat::ViolationKind;

    #[test]
    fn replay_reproduces_data_corruption_on_the_flawed_arm() {
        for seed in [8u64, 42] {
            let out = explored_simplex_leader_write(Config::voltdb(), seed, false);
            assert!(out.has(ViolationKind::DataCorruption), "seed {seed}: {:?}", out.violations);
        }
    }

    #[test]
    fn replay_is_clean_on_the_repaired_baseline() {
        for seed in [8u64, 42] {
            let out = explored_simplex_leader_write(Config::fixed(), seed, false);
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
        }
    }

    #[test]
    fn the_baked_schedule_is_one_minimal() {
        let mut probe = RepkvTarget::new(Config::voltdb());
        probe.reset(8, false);
        let plan = simplex_leader_write_plan(&mut probe);
        let mut target = RepkvTarget::new(Config::voltdb());
        assert!(is_one_minimal(&plan.steps, |steps| {
            target.reset(8, false);
            run_schedule(&mut target, &SchedulePlan {
                steps: steps.to_vec()
            })
            .iter()
            .any(|v| v.kind == ViolationKind::DataCorruption)
        }));
    }
}
