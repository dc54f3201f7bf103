//! The fault-plan generator of the randomized property tests. Plans are
//! drawn in the explorer's own [`ScheduleStep`] vocabulary and run by
//! `neat::explore::run_schedule`, so a failing case renders as a plan
//! that `minimize::ddmin` can shrink.

use std::ops::Range;

use neat_repro::neat::{
    explore::{SchedulePlan, ScheduleStep, TestTarget},
    PartitionKind, PartitionSpec,
};
use neat_repro::simnet::Time;
use proptest::{prelude::*, strategy::Union};

const KINDS: [PartitionKind; 3] = [
    PartitionKind::Complete,
    PartitionKind::Partial,
    PartitionKind::Simplex,
];

/// Plans of fewer than `max_steps` steps over `target`'s servers and
/// client events: one server isolated by a partition of any kind, heals,
/// sleeps of `sleep` ms and client events; with `crashes`, also one
/// server crashed and every server restarted.
pub fn plans(
    target: &mut dyn TestTarget,
    crashes: bool,
    sleep: Range<Time>,
    max_steps: usize,
) -> impl Strategy<Value = SchedulePlan> {
    target.reset(0, false);
    let servers = target.servers();
    let events = target.supported_events();
    let victim = 0..servers.len();
    let all = servers.clone();
    let mut arms = vec![
        (
            2,
            (0..KINDS.len(), victim.clone())
                .prop_map(move |(k, v)| {
                    ScheduleStep::Partition(PartitionSpec::isolating(KINDS[k], all[v], &all))
                })
                .boxed(),
        ),
        (2, Just(ScheduleStep::Heal).boxed()),
        (2, sleep.prop_map(ScheduleStep::Sleep).boxed()),
        (
            6,
            (0..events.len(), 0..u64::MAX)
                .prop_map(move |(e, op_seed)| ScheduleStep::Client(events[e], op_seed))
                .boxed(),
        ),
    ];
    if crashes {
        let one = servers.clone();
        arms.push((
            1,
            victim
                .prop_map(move |v| ScheduleStep::Crash(vec![one[v]]))
                .boxed(),
        ));
        arms.push((1, Just(ScheduleStep::Restart(servers)).boxed()));
    }
    proptest::collection::vec(Union::new(arms), 0..max_steps)
        .prop_map(|steps| SchedulePlan { steps })
}
