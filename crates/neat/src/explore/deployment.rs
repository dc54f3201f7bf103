//! The one [`TestTarget`] adapter: a system family describes its
//! [`Deployment`] and the explorer's whole nemesis vocabulary comes for
//! free, forwarded to the deployment's [`Neat`] engine in one place.

use std::cell::Cell;

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
    /// What [`Deployment::check`] reads, projected: see
    /// [`Deployment::settled_view`].
    type View: PartialEq;
    /// Virtual ms the system gets to react after a partition or
    /// degradation is installed, before the schedule's next step — the
    /// paper's tests sleep past the failure-detection period. Zero for
    /// families whose schedules probe the fault's first instant.
    const FAULT_SETTLE_MS: Time;
    /// The most virtual ms between the final heal + restart and the
    /// checkers. A trial ends earlier once its cluster has settled: when
    /// [`Deployment::settled_view`] is `Some` and has not changed for two
    /// [`Deployment::detection_period`]s, probed every 50 virtual ms. A
    /// view that never settles quiesces exactly this long.
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
    /// The family's failure-detection period in virtual ms, read from its
    /// own timeout config: a settled view must hold for two of them.
    fn detection_period(&mut self) -> Time;
    /// The part of the running deployment [`Deployment::check`] judges —
    /// the leader or master and the values it serves — read without
    /// sending a message or allocating. `None` while there is no leader
    /// or master, so a leaderless cluster never counts as settled.
    fn settled_view(&mut self) -> Option<Self::View>;
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
        self.neat().restart(&nodes);
        quiesce(self);
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

/// Virtual ms between two probes of the settled view.
const SLICE_MS: Time = 50;

/// Sleeps in [`SLICE_MS`] slices until `d`'s settled view is `Some` and
/// has held for two detection periods, or for [`Deployment::QUIESCE_MS`]
/// in all. Sleeping `a` then `b` processes exactly the events of sleeping
/// `a + b`, so a trial that never settles runs as it did under one fixed
/// sleep of the cap.
fn quiesce<D: Deployment>(d: &mut D) {
    let window = 2 * d.detection_period();
    let before = events_simulated(d.neat());
    let mut view = d.settled_view();
    let (mut slept, mut held_since) = (0, 0);
    let settled = loop {
        if slept >= D::QUIESCE_MS {
            break false;
        }
        let slice = SLICE_MS.min(D::QUIESCE_MS - slept);
        d.neat().sleep(slice);
        slept += slice;
        let now = d.settled_view();
        if now.is_none() || now != view {
            view = now;
            held_since = slept;
        } else if slept - held_since >= window {
            break true;
        }
    };
    let mut all = QUIESCED.get();
    all.merge(QuiesceStats {
        trials: 1,
        quiesced_ms: slept,
        events: events_simulated(d.neat()) - before,
        capped: u64::from(!settled),
    });
    QUIESCED.set(all);
}

/// Deliveries plus timer fires so far: obs's `events_simulated`.
fn events_simulated<A: Application>(neat: &Neat<A>) -> u64 {
    let c = neat.world.trace().counters;
    c.delivered + c.timers_fired
}

/// What the explorer's quiesces cost, summed over trials; see
/// [`quiesce_stats_during`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QuiesceStats {
    /// Trials that quiesced.
    pub trials: u64,
    /// Virtual ms slept between the final heal + restart and the checkers.
    pub quiesced_ms: u64,
    /// Events (deliveries plus timer fires) simulated in those ms.
    pub events: u64,
    /// Trials whose view never settled, so they slept the full
    /// [`Deployment::QUIESCE_MS`].
    pub capped: u64,
}

impl QuiesceStats {
    /// Adds `other` in, field by field.
    pub fn merge(&mut self, other: QuiesceStats) {
        self.trials += other.trials;
        self.quiesced_ms += other.quiesced_ms;
        self.events += other.events;
        self.capped += other.capped;
    }
}

thread_local! {
    /// Every quiesce on this thread, summed; see [`quiesce_stats_during`].
    static QUIESCED: Cell<QuiesceStats> = const {
        Cell::new(QuiesceStats { trials: 0, quiesced_ms: 0, events: 0, capped: 0 })
    };
}

/// Runs `f` and returns, beside its result, the [`QuiesceStats`] of the
/// trials finished on this thread meanwhile. Trials end behind
/// [`TestTarget::finish_and_check`], which returns only verdicts; this is
/// how a tool reads what their tails cost without the counters entering
/// any outcome (and so any fingerprint), the way
/// [`simnet::queue_stats_during`] reads the event queues.
pub fn quiesce_stats_during<R>(f: impl FnOnce() -> R) -> (R, QuiesceStats) {
    let mut outer = QUIESCED.take();
    let r = f();
    let inner = QUIESCED.get();
    outer.merge(inner);
    QUIESCED.set(outer);
    (r, inner)
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
/// resets `target`, aims `plan` at it (a [`plan_at_leader`] wrapper that
/// carries the plan's builder and fallback), runs the plan, and returns
/// its verdicts with the trial's timeline — which, like every explorer
/// trial's, records no verdict events.
pub fn replay_at_leader<T: TestTarget>(
    target: &mut T,
    seed: u64,
    record: bool,
    plan: fn(&mut T) -> SchedulePlan,
) -> RunOutcome {
    target.reset(seed, record);
    let plan = plan(target);
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
    /// Its settled view is a function of the virtual time, and its
    /// detection period is 100 ms, so a view must hold for 200 ms.
    struct Probe<const SETTLE: Time, const QUIESCE: Time> {
        neat: Neat<Proc>,
        view: fn(Time) -> Option<Time>,
        checked_at: Option<Time>,
    }

    /// A view that never settles: there is never a leader.
    fn leaderless(_: Time) -> Option<Time> {
        None
    }

    impl<const SETTLE: Time, const QUIESCE: Time> Probe<SETTLE, QUIESCE> {
        fn new(view: fn(Time) -> Option<Time>) -> Self {
            Self {
                neat: boot(0, false, 3, |_| Proc::Server(Tally::default())),
                view,
                checked_at: None,
            }
        }
    }

    impl<const SETTLE: Time, const QUIESCE: Time> Deployment for Probe<SETTLE, QUIESCE> {
        type Proc = Proc;
        type View = Time;
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
        fn detection_period(&mut self) -> Time {
            100
        }
        fn settled_view(&mut self) -> Option<Time> {
            (self.view)(self.neat.now())
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

    /// repkv and consensus: faults take effect at once, checkers run at
    /// most 2500 / 3000 ms after the final heal.
    #[test]
    fn a_zero_settle_leaves_the_clock_and_pending_events_alone() {
        let mut t = Probe::<0, 3000>::new(leaderless);
        t.reset(1, false);
        // An event due right now; a zero settle must not deliver it.
        t.apply_event(EventChoice::Write, &mut rand::SeedableRng::seed_from_u64(0));
        let pending = t.neat.world.pending_events();
        assert!(pending > 0);
        t.inject(&isolate_0());
        t.degrade(&lossy());
        assert_eq!(t.neat.now(), 0);
        assert_eq!(t.neat.world.pending_events(), pending);
        let ((), stats) = quiesce_stats_during(|| {
            t.finish_and_check();
        });
        assert_eq!(t.checked_at, Some(3000), "a view that never settles quiesces the cap");
        assert_eq!((stats.trials, stats.quiesced_ms, stats.capped), (1, 3000, 1));
    }

    /// gridstore and mqueue: 600 ms for the membership layer to notice each
    /// fault, checkers at most 2500 ms after the final heal.
    #[test]
    fn a_family_settle_follows_every_fault_and_quiesce_precedes_the_check() {
        let mut t = Probe::<600, 2500>::new(leaderless);
        t.reset(1, false);
        t.inject(&isolate_0());
        assert_eq!(t.neat.now(), 600);
        t.degrade(&lossy());
        assert_eq!(t.neat.now(), 1200);
        t.crash(&[NodeId(2)]);
        t.advance(50);
        assert_eq!(t.neat.now(), 1250, "only faults settle");
        assert!(t.finish_and_check().is_empty());
        assert_eq!(t.checked_at, Some(1250 + 2500), "a leaderless view never settles");
        // The check saw a healed, fully restarted cluster.
        assert!(t.neat.active_partitions().is_empty() && t.neat.active_degrades().is_empty());
        assert!(t.neat.world.is_alive(NodeId(2)));
    }

    #[test]
    fn replay_at_leader_falls_back_when_no_leader_is_visible() {
        fn plan(t: &mut Probe<0, 10>) -> SchedulePlan {
            plan_at_leader(t, 2, |servers: &[NodeId], leader| SchedulePlan {
                steps: vec![ScheduleStep::Crash(vec![leader, servers[0]])],
            })
        }
        let mut t = Probe::<0, 10>::new(leaderless);
        let out = replay_at_leader(&mut t, 4, true, plan);
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

    /// Changes at 120 ms, then holds.
    fn settles_after_120(now: Time) -> Option<Time> {
        Some(now.min(120))
    }

    #[test]
    fn the_check_runs_at_the_first_slice_where_the_view_held_for_two_periods() {
        let mut t = Probe::<0, 3000>::new(settles_after_120);
        t.reset(1, false);
        let ((), stats) = quiesce_stats_during(|| {
            t.finish_and_check();
        });
        // Probed at 0, 50, 100, 150: the view last changed at 150 (it read
        // 100 at 100), held at 200, 250, 300 and 350, which is 200 ms.
        assert_eq!(t.checked_at, Some(350));
        assert_eq!((stats.trials, stats.quiesced_ms, stats.capped), (1, 350, 0));
    }

    #[test]
    fn a_view_that_changes_every_slice_runs_to_the_cap() {
        let mut t = Probe::<0, 2480>::new(Some);
        t.reset(1, false);
        t.advance(30);
        let ((), stats) = quiesce_stats_during(|| {
            t.finish_and_check();
        });
        // 49 slices of 50 and one of 30: exactly the cap, not a slice over.
        assert_eq!(t.checked_at, Some(30 + 2480));
        assert_eq!((stats.quiesced_ms, stats.capped), (2480, 1));
    }

    #[test]
    fn quiesce_stats_nest_and_sum() {
        let mut t = Probe::<0, 400>::new(settles_after_120);
        let ((inner, outer_only), outer) = quiesce_stats_during(|| {
            t.reset(1, false);
            t.finish_and_check();
            let ((), inner) = quiesce_stats_during(|| {
                t.reset(2, false);
                t.finish_and_check();
            });
            (inner, t.checked_at)
        });
        assert_eq!(outer_only, Some(350));
        assert_eq!((inner.trials, inner.quiesced_ms), (1, 350));
        assert_eq!((outer.trials, outer.quiesced_ms), (2, 700), "the outer run sees both");
    }
}
