//! Endurance tests: dozens of partition/heal cycles (the production
//! pattern the paper cites — partitions recur weekly and last for long
//! stretches) against the fixed baselines, with client traffic while each
//! fault lasts and after each repair. Nothing may break, ever.
//!
//! Each storm is an ordinary [`SchedulePlan`] run by [`run_schedule`], the
//! explorer's own interpreter, so a storm that breaks a system can be
//! rendered and shrunk to a 1-minimal repro like any explored schedule.

use neat_repro::consensus::{RaftTarget, RaftTweaks};
use neat_repro::neat::explore::{
    minimize::{ddmin, is_one_minimal},
    run_schedule, Deployment, EventChoice, SchedulePlan, ScheduleStep, TestTarget,
};
use neat_repro::neat::{PartitionKind, PartitionSpec};
use neat_repro::repkv::{Config, RepkvTarget};
use neat_repro::simnet::NodeId;
use rand::{rngs::StdRng, Rng, RngCore, SeedableRng};

/// A storm's fault palette: `Some(kind)` isolates the victim with that
/// kind of partition, `None` crashes it.
type Palette = [Option<PartitionKind>];

/// Complete and partial partitions, alternating with heals.
const FLICKER: &Palette = &[Some(PartitionKind::Complete), Some(PartitionKind::Partial)];

/// All three partition kinds, and a crash in one cycle of four.
const FLICKER_AND_CRASH: &Palette = &[
    Some(PartitionKind::Complete),
    Some(PartitionKind::Partial),
    Some(PartitionKind::Simplex),
    None,
];

/// A seeded flicker storm over `servers`: after a 1200 ms quiet start,
/// `cycles` rounds of a fault drawn from `palette` against a random
/// victim, a write and a read while it lasts 800 ms, a heal and a restart
/// of every server, another write and read, and a 1200 ms quiet gap.
fn storm(servers: &[NodeId], palette: &Palette, cycles: usize, seed: u64) -> SchedulePlan {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = vec![ScheduleStep::Sleep(1200)];
    for _ in 0..cycles {
        let fault = palette[rng.gen_range(0..palette.len())];
        let victim = servers[rng.gen_range(0..servers.len())];
        steps.push(match fault {
            Some(kind) => ScheduleStep::Partition(PartitionSpec::isolating(kind, victim, servers)),
            None => ScheduleStep::Crash(vec![victim]),
        });
        let mut traffic = |steps: &mut Vec<ScheduleStep>| {
            steps.push(ScheduleStep::Client(EventChoice::Write, rng.next_u64()));
            steps.push(ScheduleStep::Client(EventChoice::Read, rng.next_u64()));
        };
        traffic(&mut steps);
        steps.extend([
            ScheduleStep::Sleep(800),
            ScheduleStep::Heal,
            ScheduleStep::Restart(servers.to_vec()),
        ]);
        traffic(&mut steps);
        steps.push(ScheduleStep::Sleep(1200));
    }
    SchedulePlan { steps }
}

#[test]
fn raft_survives_twenty_flicker_cycles() {
    let mut target = RaftTarget::new(RaftTweaks::default(), 3);
    target.reset(77, false);
    assert!(target.leader().is_some(), "initial leader");
    let plan = storm(&target.servers(), FLICKER_AND_CRASH, 20, 7);
    let violations = run_schedule(&mut target, &plan);
    let history = target.neat().history().render();
    assert!(violations.is_empty(), "{violations:?}\n{history}");

    let counters = target.neat().world.trace().counters;
    assert!(counters.crashes > 0, "the storm must crash a server: {}", plan.render());
    assert_eq!(counters.crashes, counters.restarts, "every crashed server came back");
    assert!(
        target.primary().is_some(),
        "a leader must re-emerge after the flicker storm"
    );
    let ok = target.neat().history().records().iter().filter(|r| r.outcome.is_ok()).count();
    assert!(ok > 5, "the cluster must have made progress between faults:\n{history}");
}

#[test]
fn fixed_repkv_survives_fifteen_flicker_cycles() {
    let mut target = RepkvTarget::new(Config::fixed());
    target.reset(88, false);
    assert!(target.leader().is_some(), "initial leader");
    let plan = storm(&target.servers(), FLICKER, 15, 9);
    let violations = run_schedule(&mut target, &plan);
    assert!(
        violations.is_empty(),
        "{violations:?}\n{}",
        target.neat().history().render()
    );
}

#[test]
fn flawed_profile_breaks_under_the_same_storm() {
    // The control experiment: the identical storm against the flawed
    // VoltDB-like profile does produce violations, and shrinks to a
    // 1-minimal schedule that still does.
    let mut target = RepkvTarget::new(Config::voltdb());
    for seed in [86, 99, 101] {
        target.reset(seed, false);
        let plan = storm(&target.servers(), FLICKER, 15, 9);
        let mut breaks = |steps: &[ScheduleStep]| {
            target.reset(seed, false);
            let plan = SchedulePlan { steps: steps.to_vec() };
            !run_schedule(&mut target, &plan).is_empty()
        };
        if !breaks(&plan.steps) {
            continue;
        }
        let minimal = SchedulePlan { steps: ddmin(&plan.steps, &mut breaks) };
        assert!(
            is_one_minimal(&minimal.steps, &mut breaks),
            "seed {seed}: not 1-minimal: {}",
            minimal.render()
        );
        return;
    }
    panic!("the flawed profile should break somewhere in a 15-cycle storm");
}
