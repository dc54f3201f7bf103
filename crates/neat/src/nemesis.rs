//! Recurring fault schedules ("nemeses"): partition/heal cycles applied
//! over a long virtual-time horizon.
//!
//! The paper observes that production partitions recur "as frequently as
//! once a week" and last "tens of minutes to hours" (§1); a system must
//! survive not one fault but an endless alternation of fault and repair.
//! A [`Nemesis`] compiles a schedule of timed fault actions that a harness
//! replays against the engine, so endurance tests can subject a system to
//! dozens of partition/heal cycles deterministically.

use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};
use simnet::{Application, NodeId, Time};

use crate::{
    engine::Neat,
    fault::{PartitionKind, PartitionSpec},
};

/// One timed fault action.
#[derive(Clone, Debug)]
pub enum NemesisAction {
    /// Install this partition.
    Partition(PartitionSpec),
    /// Heal every partition currently installed.
    HealAll,
    /// Crash these nodes.
    Crash(Vec<NodeId>),
    /// Restart every crashed node.
    RestartAll,
}

/// A compiled schedule: `(at, action)` pairs in nondecreasing time order.
#[derive(Clone, Debug, Default)]
pub struct Schedule {
    pub steps: Vec<(Time, NemesisAction)>,
}

impl Schedule {
    /// Number of fault injections (not counting heals/restarts).
    pub fn fault_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|(_, a)| matches!(a, NemesisAction::Partition(_) | NemesisAction::Crash(_)))
            .count()
    }
}

/// Schedule generator.
#[derive(Clone, Debug)]
pub struct Nemesis {
    /// Server nodes eligible for faults.
    pub servers: Vec<NodeId>,
    /// How long each fault lasts before healing, ms.
    pub fault_duration: Time,
    /// Quiet gap between heal and the next fault, ms.
    pub gap: Time,
    /// Partition kinds to draw from (empty = complete partitions only,
    /// with no RNG draw for the kind).
    pub kinds: Vec<PartitionKind>,
    /// Probability that a cycle crashes a node instead of partitioning.
    // lint:allow(float-nondet) -- probability knob compared against a single RNG draw, never accumulated
    pub crash_probability: f64,
}

impl Nemesis {
    /// A partition-flicker nemesis over `servers`: complete and partial
    /// partitions alternating with heals.
    pub fn flicker(servers: Vec<NodeId>) -> Self {
        Self {
            servers,
            fault_duration: 800,
            gap: 1200,
            kinds: vec![PartitionKind::Complete, PartitionKind::Partial],
            crash_probability: 0.0,
        }
    }

    /// Builds a deterministic schedule of `cycles` fault/heal rounds.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than two servers.
    pub fn schedule(&self, cycles: usize, seed: u64) -> Schedule {
        assert!(self.servers.len() >= 2, "need at least two servers");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut steps = Vec::new();
        let mut t: Time = self.gap;
        for _ in 0..cycles {
            let action = if self.crash_probability > 0.0 && rng.gen_bool(self.crash_probability) {
                let victim = *self.servers.choose(&mut rng).expect("non-empty"); // lint:allow(unwrap-expect)
                NemesisAction::Crash(vec![victim])
            } else {
                let kind = if self.kinds.is_empty() {
                    PartitionKind::Complete
                } else {
                    self.kinds[rng.gen_range(0..self.kinds.len())]
                };
                let victim = *self.servers.choose(&mut rng).expect("non-empty"); // lint:allow(unwrap-expect)
                NemesisAction::Partition(PartitionSpec::isolating(kind, victim, &self.servers))
            };
            steps.push((t, action));
            t += self.fault_duration;
            steps.push((t, NemesisAction::HealAll));
            steps.push((t, NemesisAction::RestartAll));
            t += self.gap;
        }
        Schedule { steps }
    }
}

/// Replays a schedule against an engine, interleaving `between(engine)`
/// between consecutive steps (e.g., to issue client operations while the
/// fault is active).
pub fn replay<A: Application>(
    neat: &mut Neat<A>,
    schedule: &Schedule,
    mut between: impl FnMut(&mut Neat<A>),
) {
    for (at, action) in &schedule.steps {
        let now = neat.now();
        if *at > now {
            neat.sleep(*at - now);
        }
        match action {
            NemesisAction::Partition(spec) => {
                neat.partition(spec.clone());
            }
            NemesisAction::HealAll => neat.heal_all(),
            NemesisAction::Crash(nodes) => neat.crash(nodes),
            NemesisAction::RestartAll => {
                let all = neat.world.node_ids();
                let down: Vec<NodeId> = all
                    .into_iter()
                    .filter(|&n| !neat.world.is_alive(n))
                    .collect();
                neat.restart(&down);
            }
        }
        between(neat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Ctx, TimerId, WorldBuilder};

    struct Idle;
    impl Application for Idle {
        type Msg = ();
        fn on_start(&mut self, _: &mut Ctx<'_, ()>) {}
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerId, _: u64) {}
    }

    fn servers(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn schedule_has_expected_shape() {
        let n = Nemesis::flicker(servers(3));
        let s = n.schedule(10, 1);
        assert_eq!(s.fault_count(), 10);
        assert_eq!(s.steps.len(), 30, "fault + heal + restart per cycle");
        // Times are nondecreasing.
        for w in s.steps.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // First fault at `gap`; each cycle adds `fault_duration + gap`;
        // the last heal lands exactly at cycles * (fault_duration + gap).
        assert_eq!(s.steps.last().map(|(t, _)| *t), Some(10 * (800 + 1200)));
    }

    #[test]
    fn schedule_is_deterministic() {
        let n = Nemesis::flicker(servers(3));
        let a = format!("{:?}", n.schedule(5, 9));
        let b = format!("{:?}", n.schedule(5, 9));
        assert_eq!(a, b);
    }

    #[test]
    fn replay_installs_and_heals() {
        let n = Nemesis::flicker(servers(3));
        let s = n.schedule(3, 2);
        let mut engine = Neat::new(WorldBuilder::new(1).build(3, |_| Idle));
        let mut seen_active = 0;
        replay(&mut engine, &s, |e| {
            if !e.active_partitions().is_empty() {
                seen_active += 1;
            }
        });
        assert!(seen_active >= 3, "partitions were active between steps");
        assert!(engine.active_partitions().is_empty(), "all healed at the end");
        assert_eq!(Some(engine.now()), s.steps.last().map(|(t, _)| *t));
    }

    #[test]
    fn no_kinds_means_complete_partitions() {
        let mut n = Nemesis::flicker(servers(3));
        n.kinds.clear();
        let kinds: Vec<PartitionKind> = n
            .schedule(12, 5)
            .steps
            .iter()
            .filter_map(|(_, action)| match action {
                NemesisAction::Partition(spec) => Some(spec.kind()),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, [PartitionKind::Complete; 12], "a partition every cycle, not a crash");
    }

    #[test]
    fn crash_nemesis_crashes_and_restarts() {
        let mut n = Nemesis::flicker(servers(3));
        n.crash_probability = 1.0;
        let s = n.schedule(4, 3);
        let mut engine = Neat::new(WorldBuilder::new(1).build(3, |_| Idle));
        replay(&mut engine, &s, |_| {});
        // Everyone is back up at the end.
        for node in engine.world.node_ids() {
            assert!(engine.world.is_alive(node));
        }
        assert!(engine.world.trace().counters.crashes >= 4);
        assert_eq!(
            engine.world.trace().counters.crashes,
            engine.world.trace().counters.restarts
        );
    }
}
