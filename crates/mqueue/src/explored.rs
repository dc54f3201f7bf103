//! Delta-minimized regression schedules for the coordinator-mode queue.
//!
//! Mined by the coverage-guided explorer against the flawed brokers and
//! shrunk with `neat::explore::minimize::ddmin`. The surviving sequence
//! is the paper's Listing 2 double dequeue rediscovered from scratch:
//! enqueue, split the master from the coordination ensemble, dequeue at
//! the deposed master (acked locally, never replicated), then one more
//! enqueue so the drain exposes the duplicate delivery.

use neat::{
    explore::{replay_at_leader, EventChoice, SchedulePlan, ScheduleStep},
    fault::{rest_of, PartitionSpec},
    RunOutcome,
};
use simnet::NodeId;

use crate::{broker::BrokerFlaws, explorer::MqTarget};

/// Op seed of the pre-partition enqueue, verbatim from the mined trial.
pub const ENQUEUE_SEED: u64 = 15_489_676_053_933_019_214;
/// Op seed of the dequeue that the deposed master acks locally.
pub const DEQUEUE_SEED: u64 = 15_581_098_189_771_731_905;
/// Op seed of the post-partition enqueue that keeps the drain honest.
pub const ENQUEUE_AGAIN_SEED: u64 = 15_259_824_729_178_401_601;

/// The 1-minimal schedule: enqueue, complete-partition the master away
/// from the coordinator and its peers, dequeue (the deposed master acks
/// the consumer locally without replicating), enqueue once more. After
/// heal the drained queue redelivers the first element —
/// [`DoubleDequeue`].
///
/// [`DoubleDequeue`]: neat::ViolationKind::DoubleDequeue
pub fn partition_double_dequeue_plan(servers: &[NodeId], master: NodeId) -> SchedulePlan {
    SchedulePlan {
        steps: vec![
            ScheduleStep::Client(EventChoice::Enqueue, ENQUEUE_SEED),
            ScheduleStep::Partition(PartitionSpec::Complete {
                a: vec![master],
                b: rest_of(servers, &[master]),
            }),
            ScheduleStep::Client(EventChoice::Dequeue, DEQUEUE_SEED),
            ScheduleStep::Client(EventChoice::Enqueue, ENQUEUE_AGAIN_SEED),
        ],
    }
}

/// Replays the minimized schedule against brokers running `flaws` at
/// `seed`, returning its verdicts and timeline.
pub fn explored_partition_double_dequeue(
    flaws: BrokerFlaws,
    seed: u64,
    record: bool,
) -> RunOutcome {
    // Fallback 1: `servers` leads with the coordinator; brokers follow.
    replay_at_leader(&mut MqTarget::new(flaws), seed, record, 1, partition_double_dequeue_plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{minimize::is_one_minimal, plan_at_leader, run_schedule, TestTarget};
    use neat::ViolationKind;

    #[test]
    fn replay_reproduces_double_dequeue_on_the_flawed_brokers() {
        for seed in [8u64, 42] {
            let out = explored_partition_double_dequeue(BrokerFlaws::flawed(), seed, false);
            assert!(out.has(ViolationKind::DoubleDequeue), "seed {seed}: {:?}", out.violations);
        }
    }

    #[test]
    fn replay_is_clean_on_the_fixed_brokers() {
        for seed in [8u64, 42] {
            let out = explored_partition_double_dequeue(BrokerFlaws::fixed(), seed, false);
            assert!(out.violations.is_empty(), "seed {seed}: {:?}", out.violations);
        }
    }

    #[test]
    fn the_baked_schedule_is_one_minimal() {
        let mut probe = MqTarget::new(BrokerFlaws::flawed());
        probe.reset(8, false);
        let plan = plan_at_leader(&mut probe, 1, partition_double_dequeue_plan);
        let mut target = MqTarget::new(BrokerFlaws::flawed());
        assert!(is_one_minimal(&plan.steps, |steps| {
            target.reset(8, false);
            run_schedule(&mut target, &SchedulePlan {
                steps: steps.to_vec()
            })
            .iter()
            .any(|v| v.kind == ViolationKind::DoubleDequeue)
        }));
    }
}
