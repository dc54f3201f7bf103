//! The one [`TestTarget`] adapter: a system family describes its
//! [`Deployment`] and the explorer's whole nemesis vocabulary comes for
//! free, forwarded to the deployment's [`Neat`] engine in one place.

use rand::rngs::StdRng;
use simnet::{Application, NodeId, Time};

use super::{run_schedule, EventChoice, SchedulePlan, TestTarget};
use crate::{checkers::Violation, fault::PartitionSpec, gray::DegradeSpec, Neat, RunOutcome};

/// What a system family tells the explorer about itself. Every
/// `Deployment` is a [`TestTarget`].
///
/// The method names differ from [`TestTarget`]'s on purpose, so a type
/// with both traits in scope never has an ambiguous call.
pub trait Deployment {
    /// The family's process type (see [`roles!`](crate::roles)).
    type Proc: Application;
    /// Virtual ms the system gets to react after a partition or
    /// degradation is installed, before the schedule's next step — the
    /// paper's tests sleep past the failure-detection period. Zero for
    /// families whose schedules probe the fault's first instant.
    const FAULT_SETTLE_MS: Time;
    /// Virtual ms of quiescence between the final heal + restart and the
    /// checkers.
    const QUIESCE_MS: Time;

    /// Replaces the running deployment, if any, with a fresh one at
    /// `seed`, ready for its first event (leader elected, fixtures
    /// created). Called before anything else below.
    fn build(&mut self, seed: u64, record: bool);
    /// The engine around the running deployment.
    fn neat(&mut self) -> &mut Neat<Self::Proc>;
    /// Nodes eligible for partitioning, crashing and restarting.
    fn nodes(&self) -> Vec<NodeId>;
    /// Best-effort current leader / master / primary.
    fn primary(&mut self) -> Option<NodeId>;
    /// The client events this family supports.
    fn events(&self) -> Vec<EventChoice>;
    /// Applies one client event, drawing keys and clients from `rng`.
    fn apply(&mut self, ev: EventChoice, rng: &mut StdRng);
    /// Runs the family's checkers over the healed, quiesced deployment.
    fn check(&mut self) -> Vec<Violation>;
}

impl<D: Deployment> TestTarget for D {
    fn reset(&mut self, seed: u64, record: bool) {
        self.build(seed, record);
    }

    fn servers(&self) -> Vec<NodeId> {
        self.nodes()
    }

    fn leader(&mut self) -> Option<NodeId> {
        self.primary()
    }

    fn supported_events(&self) -> Vec<EventChoice> {
        self.events()
    }

    fn inject(&mut self, spec: &PartitionSpec) {
        self.neat().partition(spec.clone());
        settle::<D>(self);
    }

    fn degrade(&mut self, spec: &DegradeSpec) {
        self.neat().degrade(spec.clone());
        settle::<D>(self);
    }

    fn crash(&mut self, nodes: &[NodeId]) {
        self.neat().crash(nodes);
    }

    fn restart(&mut self, nodes: &[NodeId]) {
        self.neat().restart(nodes);
    }

    fn advance(&mut self, ms: Time) {
        self.neat().sleep(ms);
    }

    fn heal_all(&mut self) {
        self.neat().heal_all();
    }

    fn apply_event(&mut self, ev: EventChoice, rng: &mut StdRng) {
        self.apply(ev, rng);
    }

    fn finish_and_check(&mut self) -> Vec<Violation> {
        TestTarget::heal_all(self);
        // Schedules may crash without restarting; bring every node back so
        // the checkers judge the healed cluster, not a half-dead one.
        let nodes = self.nodes();
        let neat = self.neat();
        neat.restart(&nodes);
        neat.sleep(D::QUIESCE_MS);
        self.check()
    }

    fn timeline(&mut self) -> obs::Timeline {
        self.neat().timeline()
    }
}

/// A zero settle must not call `sleep(0)`: that would deliver events due
/// at the current instant before a following crash step could drop them.
fn settle<D: Deployment>(d: &mut D) {
    if D::FAULT_SETTLE_MS > 0 {
        d.neat().sleep(D::FAULT_SETTLE_MS);
    }
}

/// The plan `build_plan(servers, leader)` for a target that was just
/// reset, with `servers[fallback]` standing in when no leader is visible.
pub fn plan_at_leader(
    target: &mut dyn TestTarget,
    fallback: usize,
    build_plan: fn(&[NodeId], NodeId) -> SchedulePlan,
) -> SchedulePlan {
    let servers = target.servers();
    let leader = target.leader().unwrap_or(servers[fallback]);
    build_plan(&servers, leader)
}

/// Replays a mined schedule whose victim is the leader elected at `seed`:
/// resets `target`, aims [`plan_at_leader`] at it, runs the plan, and
/// returns its verdicts with the trial's timeline — which, like every
/// explorer trial's, records no verdict events.
pub fn replay_at_leader(
    target: &mut dyn TestTarget,
    seed: u64,
    record: bool,
    fallback: usize,
    build_plan: fn(&[NodeId], NodeId) -> SchedulePlan,
) -> RunOutcome {
    target.reset(seed, record);
    let plan = plan_at_leader(target, fallback, build_plan);
    RunOutcome {
        violations: run_schedule(target, &plan),
        timeline: target.timeline(),
        detail: (),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{boot, Node};
    use crate::explore::ScheduleStep;
    use simnet::Ctx;

    /// A node that counts deliveries.
    #[derive(Default)]
    struct Tally(u64);

    impl Node<u64> for Tally {
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
            self.0 += msg;
        }
    }

    crate::roles! {
        enum Proc: u64 {
            Server(Tally) => server / server_mut,
        }
    }

    /// A deployment that logs the virtual time of every hook, generic over
    /// its two delays so both of the workspace's settings are exercised.
    struct Probe<const SETTLE: Time, const QUIESCE: Time> {
        neat: Neat<Proc>,
        checked_at: Option<Time>,
    }

    impl<const SETTLE: Time, const QUIESCE: Time> Probe<SETTLE, QUIESCE> {
        fn new() -> Self {
            Self {
                neat: boot(0, false, 3, |_| Proc::Server(Tally::default())),
                checked_at: None,
            }
        }
    }

    impl<const SETTLE: Time, const QUIESCE: Time> Deployment for Probe<SETTLE, QUIESCE> {
        type Proc = Proc;
        const FAULT_SETTLE_MS: Time = SETTLE;
        const QUIESCE_MS: Time = QUIESCE;

        fn build(&mut self, seed: u64, record: bool) {
            self.neat = boot(seed, record, 3, |_| Proc::Server(Tally::default()));
            self.checked_at = None;
        }
        fn neat(&mut self) -> &mut Neat<Proc> {
            &mut self.neat
        }
        fn nodes(&self) -> Vec<NodeId> {
            self.neat.world.node_ids()
        }
        fn primary(&mut self) -> Option<NodeId> {
            None
        }
        fn events(&self) -> Vec<EventChoice> {
            vec![EventChoice::Write]
        }
        fn apply(&mut self, _: EventChoice, _: &mut StdRng) {
            // A timer due at the current instant: `sleep(0)` would fire it.
            self.neat
                .world
                .call(NodeId(0), |_, ctx| ctx.set_timer(0, 1))
                .expect("node 0 is up");
        }
        fn check(&mut self) -> Vec<Violation> {
            self.checked_at = Some(self.neat.now());
            Vec::new()
        }
    }

    fn isolate_0() -> PartitionSpec {
        PartitionSpec::isolate(NodeId(0), vec![NodeId(1), NodeId(2)])
    }

    fn lossy() -> DegradeSpec {
        DegradeSpec::Partial {
            a: vec![NodeId(0)],
            b: vec![NodeId(1)],
            rule: simnet::DegradeRule::lossy(0.5),
        }
    }

    /// repkv and consensus: faults take effect at once, checkers run
    /// 2500 / 3000 ms after the final heal.
    #[test]
    fn a_zero_settle_leaves_the_clock_and_pending_events_alone() {
        let mut t = Probe::<0, 3000>::new();
        t.reset(1, false);
        // An event due right now; a zero settle must not deliver it.
        t.apply_event(EventChoice::Write, &mut rand::SeedableRng::seed_from_u64(0));
        let pending = t.neat.world.pending_events();
        assert!(pending > 0);
        t.inject(&isolate_0());
        t.degrade(&lossy());
        assert_eq!(t.neat.now(), 0);
        assert_eq!(t.neat.world.pending_events(), pending);
        t.finish_and_check();
        assert_eq!(t.checked_at, Some(3000));
    }

    /// gridstore and mqueue: 600 ms for the membership layer to notice each
    /// fault, checkers 2500 ms after the final heal.
    #[test]
    fn a_family_settle_follows_every_fault_and_quiesce_precedes_the_check() {
        let mut t = Probe::<600, 2500>::new();
        t.reset(1, false);
        t.inject(&isolate_0());
        assert_eq!(t.neat.now(), 600);
        t.degrade(&lossy());
        assert_eq!(t.neat.now(), 1200);
        t.crash(&[NodeId(2)]);
        t.advance(50);
        assert_eq!(t.neat.now(), 1250, "only faults settle");
        assert!(t.finish_and_check().is_empty());
        assert_eq!(t.checked_at, Some(1250 + 2500));
        // The check saw a healed, fully restarted cluster.
        assert!(t.neat.active_partitions().is_empty() && t.neat.active_degrades().is_empty());
        assert!(t.neat.world.is_alive(NodeId(2)));
    }

    #[test]
    fn replay_at_leader_falls_back_when_no_leader_is_visible() {
        fn plan(servers: &[NodeId], leader: NodeId) -> SchedulePlan {
            SchedulePlan {
                steps: vec![ScheduleStep::Crash(vec![leader, servers[0]])],
            }
        }
        let mut t = Probe::<0, 10>::new();
        let out = replay_at_leader(&mut t, 4, true, 2, plan);
        assert!(out.violations.is_empty());
        let crashed: Vec<NodeId> = out
            .timeline
            .events
            .iter()
            .filter_map(|e| match e {
                obs::Event::Crashed { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(crashed, [NodeId(2), NodeId(0)], "servers[2] stands in for the leader");
        assert_eq!(t.checked_at, Some(10));
    }
}
