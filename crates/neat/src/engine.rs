//! The NEAT test engine: globally ordered client operations, fault
//! injection, node crashes, and virtual-time sleeps.

use std::sync::Arc;

use simnet::{Application, Ctx, NodeId, Time, World};

use crate::{
    checkers::{Violation, ViolationKind},
    cluster::Mailbox,
    fault::{Partition, PartitionSpec},
    gray::{Degrade, DegradeSpec},
    history::{History, Op, OpRecord, Outcome},
};

/// What one scenario run produced: the checker verdicts, the run's
/// [`obs::Timeline`] (events only when the world records them, counters
/// always), and `detail`, whatever else the family observed — `()` for
/// most. [`Neat::outcome`] builds it at the end of a run.
///
/// Every scenario of every family returns one, and the campaign
/// fingerprints it whole through `Debug`, so each field is part of the
/// audit hashes.
#[derive(Debug)]
pub struct RunOutcome<D = ()> {
    /// Violations the checkers detected, in detection order.
    pub violations: Vec<Violation>,
    /// Faults, operations, notes and verdicts in virtual-time order.
    pub timeline: obs::Timeline,
    /// Family-specific observables beyond the verdicts.
    pub detail: D,
}

impl<D> RunOutcome<D> {
    /// `true` when a violation of `kind` was detected.
    pub fn has(&self, kind: ViolationKind) -> bool {
        self.violations.iter().any(|v| v.kind == kind)
    }
}

/// The test engine (the central node of the paper's Figure 4).
///
/// `Neat` wraps a [`simnet::World`] and provides the paper's testing API:
///
/// - `partition_*` / [`Neat::heal`] — install and remove the three fault
///   types of Figure 1;
/// - [`Neat::crash`] / [`Neat::restart`] — kill and revive node groups;
/// - [`Neat::sleep`] — advance virtual time (e.g., past a leader-election
///   timeout, like `sleep(SLEEP_LEADER_ELECTION_PERIOD)` in Listing 1);
/// - [`Neat::request`] / [`Neat::recorded`] — run one client round trip
///   under a virtual-time timeout and log it: the *global order of client
///   operations* that the paper's RMI-based engine provides;
/// - [`Neat::history`] — the recorded operation log fed to the checkers.
pub struct Neat<A: Application> {
    /// The simulated cluster. Public so harnesses can inspect node state.
    pub world: World<A>,
    history: History,
    active: Vec<Partition>,
    degraded: Vec<Degrade>,
    obs: obs::Recorder,
    /// The `timeout` family clients hand [`Neat::request`], virtual ms.
    pub op_timeout: Time,
}

impl<A: Application> Neat<A> {
    /// Wraps a world with the default 1000 ms operation timeout.
    ///
    /// The observability recorder inherits the world's `record_trace`
    /// flag, so one switch governs both the simnet event log and the
    /// typed `obs` timeline.
    pub fn new(world: World<A>) -> Self {
        let obs = obs::Recorder::new(world.trace().recording());
        Self {
            world,
            history: History::new(),
            active: Vec::new(),
            degraded: Vec::new(),
            obs,
            op_timeout: 1000,
        }
    }

    /// The recorded operation history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// This run's one shared allocation of `key`, interned in the history:
    /// a client that puts it in its [`Op`] and in its request allocates a
    /// key once per run, not twice per operation.
    pub fn key(&mut self, key: &str) -> Arc<str> {
        self.history.intern(key)
    }

    /// The observability recorder (counters and typed events so far).
    pub fn obs(&self) -> &obs::Recorder {
        &self.obs
    }

    /// Runs one *logical* client operation — a single [`Neat::request`] or
    /// a whole retry loop — and logs it as one [`OpRecord`] spanning the
    /// closure: appended to the history and mirrored into the
    /// observability stream. A probe that must stay out of the history
    /// calls [`Neat::request`] bare.
    pub fn recorded(
        &mut self,
        client: NodeId,
        op: Op,
        run: impl FnOnce(&mut Self) -> Outcome,
    ) -> Outcome {
        let start = self.now();
        let outcome = run(self);
        let end = self.now();
        // Deferred details: when per-event recording is off (the campaign's
        // verdict-only sweeps) the closure never runs, so no key/desc/outcome
        // strings are formatted on the hot path.
        self.obs.op_with(start, end, client, || {
            (op.key().to_string(), format!("{op:?}"), format!("{outcome:?}"))
        });
        self.history.push(OpRecord {
            client,
            op,
            outcome: outcome.clone(),
            start,
            end,
        });
        outcome
    }

    /// Installs a partition described by `spec` and returns a handle for
    /// healing it.
    pub fn partition(&mut self, spec: PartitionSpec) -> Partition {
        // Borrow the groups; the recorder clones them only when recording.
        let (a, b) = spec.groups();
        let set = spec.pairs();
        let pairs = set.len();
        let rule = self.world.block_pairs(set);
        self.obs
            .partition_installed(self.world.now(), rule.0, spec.kind(), a, b, pairs);
        let p = Partition { rule, spec };
        self.active.push(p.clone());
        p
    }

    /// `Partitioner.complete(groupA, groupB)` of the paper.
    pub fn partition_complete(&mut self, a: &[NodeId], b: &[NodeId]) -> Partition {
        self.partition(PartitionSpec::Complete {
            a: a.to_vec(),
            b: b.to_vec(),
        })
    }

    /// `Partitioner.partial(groupA, groupB)` of the paper.
    pub fn partition_partial(&mut self, a: &[NodeId], b: &[NodeId]) -> Partition {
        self.partition(PartitionSpec::Partial {
            a: a.to_vec(),
            b: b.to_vec(),
        })
    }

    /// `Partitioner.simplex(groupSrc, groupDst)` of the paper.
    pub fn partition_simplex(&mut self, src: &[NodeId], dst: &[NodeId]) -> Partition {
        self.partition(PartitionSpec::Simplex {
            src: src.to_vec(),
            dst: dst.to_vec(),
        })
    }

    /// Heals one partition. Healing twice is a no-op.
    pub fn heal(&mut self, p: &Partition) {
        if self.active.iter().any(|q| q.rule == p.rule) {
            self.obs.partition_healed(self.world.now(), p.rule.0);
        }
        self.world.unblock(p.rule);
        self.active.retain(|q| q.rule != p.rule);
    }

    /// Heals every partition, then every gray failure, installed through
    /// this engine.
    pub fn heal_all(&mut self) {
        for p in std::mem::take(&mut self.active) {
            self.obs.partition_healed(self.world.now(), p.rule.0);
            self.world.unblock(p.rule);
        }
        for d in std::mem::take(&mut self.degraded) {
            self.obs.degrade_healed(self.world.now(), d.rule.0);
            self.world.undegrade(d.rule);
        }
    }

    /// Partitions currently installed.
    pub fn active_partitions(&self) -> &[Partition] {
        &self.active
    }

    /// Installs a gray failure described by `spec` and returns a handle
    /// for healing it. The sibling of [`Neat::partition`] for degraded —
    /// rather than severed — links.
    pub fn degrade(&mut self, spec: DegradeSpec) -> Degrade {
        // Borrow the groups; the recorder clones them only when recording.
        let (a, b) = spec.groups();
        let set = spec.pairs();
        let pairs = set.len();
        let rule = self.world.degrade_pairs(set, spec.rule());
        self.obs
            .degrade_installed(self.world.now(), rule.0, spec.kind(), a, b, pairs);
        let d = Degrade { rule, spec };
        self.degraded.push(d.clone());
        d
    }

    /// Heals one gray failure. Healing twice is a no-op.
    pub fn heal_degrade(&mut self, d: &Degrade) {
        if self.degraded.iter().any(|q| q.rule == d.rule) {
            self.obs.degrade_healed(self.world.now(), d.rule.0);
        }
        self.world.undegrade(d.rule);
        self.degraded.retain(|q| q.rule != d.rule);
    }

    /// Gray failures currently installed.
    pub fn active_degrades(&self) -> &[Degrade] {
        &self.degraded
    }

    /// Crashes every node in `nodes`. Nodes already down are skipped.
    pub fn crash(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            if self.world.crash(n).is_ok() {
                self.obs.crashed(self.world.now(), n);
            }
        }
    }

    /// Restarts every node in `nodes`. Nodes already up are skipped.
    pub fn restart(&mut self, nodes: &[NodeId]) {
        for &n in nodes {
            // `World::restart` is Ok for already-live nodes; only genuine
            // transitions become observability events.
            if !self.world.is_alive(n) && self.world.restart(n).is_ok() {
                self.obs.restarted(self.world.now(), n);
            }
        }
    }

    /// Advances virtual time by `ms`, processing everything scheduled in
    /// between — the paper's `sleep(...)` between test steps.
    pub fn sleep(&mut self, ms: Time) {
        self.world.run_for(ms);
    }

    /// Advances virtual time in 10 ms steps until `probe` answers or
    /// `max_ms` have passed, probing before every step — so the answer
    /// comes at the first step boundary where it holds, and `None` only
    /// once `now ≥ start + max_ms`. The "wait for a leader" of every test.
    pub fn wait_until<T>(
        &mut self,
        max_ms: Time,
        mut probe: impl FnMut(&Self) -> Option<T>,
    ) -> Option<T> {
        let deadline = self.now() + max_ms;
        loop {
            if let Some(found) = probe(self) {
                return Some(found);
            }
            if self.now() >= deadline {
                return None;
            }
            self.sleep(10);
        }
    }

    /// Records a workload-driver progress sample at the current virtual
    /// time (see [`obs::Recorder::load_sample`]).
    pub fn load_sample(&mut self, issued: u64, completed: u64, in_flight: u64, backlog: u64) {
        let now = self.world.now();
        self.obs.load_sample(now, issued, completed, in_flight, backlog);
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.world.now()
    }

    /// Ends a run: records `violations` as verdict events at the current
    /// virtual time and packages them with the run's [`obs::Timeline`] —
    /// every fault, operation and verdict in virtual-time order,
    /// application notes merged in from the world, and the fabric counters
    /// folded into [`obs::Counters`] — and the family's `detail`.
    ///
    /// Call once per run, after every checker.
    pub fn outcome<D>(&mut self, violations: Vec<Violation>, detail: D) -> RunOutcome<D> {
        let now = self.world.now();
        for v in &violations {
            // Deferred: kind/details strings only materialize when recording.
            self.obs.verdict_with(now, || (v.kind.to_string(), v.details.clone()));
        }
        RunOutcome {
            violations,
            timeline: self.timeline(),
            detail,
        }
    }

    /// Snapshot of the observability timeline without recording verdicts.
    pub fn timeline(&self) -> obs::Timeline {
        self.obs.timeline(self.world.trace())
    }

    /// One client round trip. The engine opens the next op id of the
    /// `client` node's [`Mailbox`] (reached through `mailbox`, usually the
    /// family's generated `client_mut` accessor), `send` puts the request
    /// for that id on the wire, and the simulation advances until the
    /// reply is in the mailbox or the deadline, `timeout` virtual
    /// milliseconds on, is reached. Either way the op is then closed, so a
    /// reply that arrives after a timeout is dropped rather than kept for
    /// the rest of the run. `None` is the *Timeout* outcome of the paper's
    /// histories — at once, with the clock unmoved, when the client node
    /// is down.
    ///
    /// A timeout does not always end at the deadline: when the next
    /// pending event lies past it, that event is processed and the op ends
    /// there, at the event's time (see `run_op`). When nothing is pending,
    /// the clock stops at the deadline.
    ///
    /// ```
    /// use neat::cluster::{Mailbox, Node};
    /// use simnet::{Ctx, NodeId};
    ///
    /// /// An op id on the wire.
    /// #[derive(Clone, Debug)]
    /// pub struct Ping(u64);
    ///
    /// /// Node 1 echoes every ping.
    /// pub struct Echo;
    /// impl Node<Ping> for Echo {
    ///     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping>, from: NodeId, ping: Ping) {
    ///         ctx.send(from, ping);
    ///     }
    /// }
    /// /// Node 0's mailbox keeps each echo as the reply to its op.
    /// impl Node<Ping> for Mailbox<u64> {
    ///     fn on_message(&mut self, _: &mut Ctx<'_, Ping>, _: NodeId, Ping(op_id): Ping) {
    ///         self.put(op_id, op_id);
    ///     }
    /// }
    /// neat::roles! {
    ///     pub enum EchoProc: Ping {
    ///         Client(Mailbox<u64>) => client / client_mut,
    ///         Server(Echo) => server / server_mut,
    ///     }
    /// }
    ///
    /// let mut neat = neat::cluster::boot(1, false, 2, |id| match id.0 {
    ///     0 => EchoProc::Client(Mailbox::default()),
    ///     _ => EchoProc::Server(Echo),
    /// });
    /// let reply = neat.request(NodeId(0), 100, EchoProc::client_mut, |_, ctx, op_id| {
    ///     ctx.send(NodeId(1), Ping(op_id))
    /// });
    /// assert_eq!(reply, Some(0), "node 0's first op id");
    /// ```
    pub fn request<R>(
        &mut self,
        client: NodeId,
        timeout: Time,
        mailbox: impl Fn(&mut A) -> &mut Mailbox<R>,
        send: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>, u64),
    ) -> Option<R> {
        let op_id = self
            .world
            .call(client, |app, ctx| {
                let op_id = mailbox(app).open(ctx.id());
                send(app, ctx, op_id);
                op_id
            })
            .ok()?;
        let reply = self.run_op(timeout, |w| mailbox(w.app_mut(client)).take(op_id));
        mailbox(self.world.app_mut(client)).close(op_id);
        reply
    }

    /// Steps the world until `poll` answers or `timeout` virtual
    /// milliseconds pass, polling after every step.
    ///
    /// The loop steps whenever the clock is short of the deadline, and a
    /// step runs the next event wherever it lies: when that event is past
    /// the deadline, it is processed and polled once more, and the op ends
    /// there, with the clock at that event rather than at the deadline.
    /// (Stopping at the deadline instead would move the clock, and so the
    /// audit hash, of every arm where this happens.) With no event
    /// pending, the clock jumps to the deadline.
    fn run_op<R>(
        &mut self,
        timeout: Time,
        mut poll: impl FnMut(&mut World<A>) -> Option<R>,
    ) -> Option<R> {
        let deadline = self.world.now() + timeout;
        loop {
            if let Some(r) = poll(&mut self.world) {
                return Some(r);
            }
            match self.world.pending_events() {
                0 => {
                    // Nothing left to simulate; the op can only time out.
                    self.world.run_until(deadline);
                    return poll(&mut self.world);
                }
                _ => {
                    if self.world.now() >= deadline {
                        return None;
                    }
                    self.world.step();
                    if self.world.now() > deadline {
                        // The step jumped past the deadline (e.g., a distant
                        // timer); the op had its chance.
                        return poll(&mut self.world);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Ctx, TimerId, WorldBuilder};

    /// A node that acks every request after one hop: op `n` goes out as
    /// `2n`, its ack comes back as `2n + 1`.
    #[derive(Default)]
    struct AckServer {
        mailbox: Mailbox<()>,
    }

    impl Application for AckServer {
        type Msg = u64;
        fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {}
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            if msg.is_multiple_of(2) {
                ctx.send(from, msg + 1);
            } else {
                self.mailbox.put(msg / 2, ());
            }
        }
        fn on_timer(&mut self, _: &mut Ctx<'_, u64>, _: TimerId, _: u64) {}
    }

    fn engine(n: usize) -> Neat<AckServer> {
        Neat::new(WorldBuilder::new(5).build(n, |_| AckServer::default()))
    }

    /// Node 0 sends its next op to node 1 and waits for the ack.
    fn ping(neat: &mut Neat<AckServer>) -> Option<()> {
        neat.request(
            NodeId(0),
            neat.op_timeout,
            |app| &mut app.mailbox,
            |_, ctx, op_id| ctx.send(NodeId(1), 2 * op_id),
        )
    }

    #[test]
    fn run_op_completes_round_trip() {
        let mut neat = engine(2);
        let got = ping(&mut neat);
        assert_eq!(got, Some(()));
    }

    #[test]
    fn run_op_times_out_under_partition() {
        let mut neat = engine(2);
        neat.op_timeout = 50;
        neat.partition_complete(&[NodeId(0)], &[NodeId(1)]);
        let t0 = neat.now();
        let got = ping(&mut neat);
        assert_eq!(got, None);
        assert_eq!(neat.now(), t0 + 50, "a timeout costs exactly the timeout");
    }

    #[test]
    fn a_timeout_ends_at_the_first_event_past_its_deadline() {
        let mut neat = engine(2);
        neat.op_timeout = 50;
        neat.partition_complete(&[NodeId(0)], &[NodeId(1)]);
        let t0 = neat.now();
        // The only pending event is a timer 80 ms on, past the deadline.
        neat.world
            .call(NodeId(1), |_, ctx| ctx.set_timer(80, 0))
            .unwrap();
        assert_eq!(ping(&mut neat), None);
        assert_eq!(neat.now(), t0 + 80, "the op ran the timer, then gave up");
        // An event before the deadline leaves the deadline in charge.
        neat.world
            .call(NodeId(1), |_, ctx| ctx.set_timer(20, 0))
            .unwrap();
        let t1 = neat.now();
        assert_eq!(ping(&mut neat), None);
        assert_eq!(neat.now(), t1 + 50);
    }

    #[test]
    fn heal_restores_connectivity() {
        let mut neat = engine(2);
        let p = neat.partition_complete(&[NodeId(0)], &[NodeId(1)]);
        assert_eq!(neat.active_partitions().len(), 1);
        neat.heal(&p);
        assert!(neat.active_partitions().is_empty());
        let got = ping(&mut neat);
        assert_eq!(got, Some(()));
    }

    #[test]
    fn heal_all_clears_every_partition() {
        let mut neat = engine(3);
        neat.partition_complete(&[NodeId(0)], &[NodeId(1)]);
        neat.partition_simplex(&[NodeId(1)], &[NodeId(2)]);
        neat.heal_all();
        assert!(neat.active_partitions().is_empty());
        assert_eq!(neat.world.net().rule_count(), 0);
    }

    #[test]
    fn degrade_install_and_heal_roundtrip() {
        use crate::gray::DegradeSpec;
        use simnet::DegradeRule;
        let mut neat = engine(2);
        let d = neat.degrade(DegradeSpec::Partial {
            a: vec![NodeId(0)],
            b: vec![NodeId(1)],
            rule: DegradeRule::lossy(1.0),
        });
        assert_eq!(neat.active_degrades().len(), 1);
        assert!(neat.world.net().is_degraded(NodeId(0), NodeId(1)));
        // Total loss behaves like a partition for this round trip.
        neat.op_timeout = 50;
        let got = ping(&mut neat);
        assert_eq!(got, None);
        neat.heal_degrade(&d);
        neat.heal_degrade(&d); // second heal: no extra event
        assert!(neat.active_degrades().is_empty());
        let got = ping(&mut neat);
        assert_eq!(got, Some(()));
        let t = neat.timeline();
        assert_eq!(t.counters.degrades_installed, 1);
        assert_eq!(t.counters.degrade_heals, 1);
    }

    #[test]
    fn heal_all_heals_partitions_then_degrades() {
        use crate::gray::DegradeSpec;
        use simnet::DegradeRule;
        let world = WorldBuilder::new(5).record_trace(true).build(3, |_| AckServer::default());
        let mut neat = Neat::new(world);
        neat.degrade(DegradeSpec::Partial {
            a: vec![NodeId(0)],
            b: vec![NodeId(1)],
            rule: DegradeRule::lossy(0.5),
        });
        neat.partition_complete(&[NodeId(0)], &[NodeId(2)]);
        neat.degrade(DegradeSpec::Simplex {
            src: vec![NodeId(1)],
            dst: vec![NodeId(2)],
            rule: DegradeRule::duplicating(1.0),
        });
        assert_eq!(neat.world.net().degrade_count(), 2);
        neat.heal_all();
        assert!(neat.active_partitions().is_empty() && neat.active_degrades().is_empty());
        assert_eq!(neat.world.net().rule_count(), 0);
        assert_eq!(neat.world.net().degrade_count(), 0);
        let t = neat.timeline();
        let labels: Vec<&str> = t.events.iter().map(|e| e.label()).collect();
        assert_eq!(
            labels,
            ["degrade", "partition", "degrade", "heal", "degrade-heal", "degrade-heal"]
        );
    }

    #[test]
    fn crash_and_restart_groups() {
        let mut neat = engine(3);
        neat.crash(&[NodeId(1), NodeId(2)]);
        assert!(!neat.world.is_alive(NodeId(1)));
        assert!(!neat.world.is_alive(NodeId(2)));
        neat.crash(&[NodeId(1)]); // already down: skipped, no panic
        neat.restart(&[NodeId(1)]);
        assert!(neat.world.is_alive(NodeId(1)));
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let mut neat = engine(1);
        neat.sleep(123);
        assert_eq!(neat.now(), 123);
    }

    #[test]
    fn wait_until_returns_at_the_first_satisfied_probe() {
        let mut neat = engine(1);
        neat.sleep(3);
        let mut probed_at = Vec::new();
        let got = neat.wait_until(1000, |n| {
            probed_at.push(n.now());
            (n.now() >= 25).then(|| n.now())
        });
        // Probed before every 10 ms step; stops the moment it holds.
        assert_eq!(probed_at, vec![3, 13, 23, 33]);
        assert_eq!(got, Some(33));
        assert_eq!(neat.now(), 33);
        // Already satisfied: no time passes at all.
        assert_eq!(neat.wait_until(1000, |n| Some(n.now())), Some(33));
        assert_eq!(neat.now(), 33);
    }

    #[test]
    fn wait_until_gives_up_only_at_the_deadline() {
        let mut neat = engine(1);
        neat.sleep(3);
        let mut probes = 0;
        let got: Option<()> = neat.wait_until(45, |_| {
            probes += 1;
            None
        });
        assert_eq!(got, None);
        // 3, 13, 23, 33, 43 are before the deadline (48); 53 is the first
        // step boundary at or past it, and it is still probed.
        assert_eq!(neat.now(), 53);
        assert_eq!(probes, 6);
        // A probe that first holds at that last boundary still wins.
        let mut neat = engine(1);
        assert_eq!(neat.wait_until(20, |n| (n.now() == 20).then_some(())), Some(()));
    }

    #[test]
    fn observability_counters_mirror_engine_actions() {
        let mut neat = engine(3);
        let p = neat.partition_complete(&[NodeId(0)], &[NodeId(1)]);
        neat.heal(&p);
        neat.heal(&p); // second heal: no extra event
        neat.crash(&[NodeId(1)]);
        neat.crash(&[NodeId(1)]); // already down: skipped
        neat.restart(&[NodeId(1)]);
        neat.restart(&[NodeId(1)]); // already up: skipped
        let t = neat.outcome(Vec::new(), ()).timeline;
        assert_eq!(t.counters.partitions_installed, 1);
        assert_eq!(t.counters.heals, 1);
        assert_eq!(t.counters.crashes, 1);
        assert_eq!(t.counters.restarts, 1);
        assert!(t.is_empty(), "recording off ⇒ counters only, no events");
    }

    #[test]
    fn healing_twice_logs_one_heal() {
        use crate::gray::DegradeSpec;
        use simnet::DegradeRule;
        let world = WorldBuilder::new(5).record_trace(true).build(2, |_| AckServer::default());
        let mut neat = Neat::new(world);
        let p = neat.partition_complete(&[NodeId(0)], &[NodeId(1)]);
        neat.heal(&p);
        neat.heal(&p);
        let d = neat.degrade(DegradeSpec::Partial {
            a: vec![NodeId(0)],
            b: vec![NodeId(1)],
            rule: DegradeRule::lossy(0.5),
        });
        neat.heal_degrade(&d);
        neat.heal_degrade(&d);
        let t = neat.timeline();
        let labels: Vec<&str> = t.events.iter().map(|e| e.label()).collect();
        assert_eq!(labels, ["partition", "heal", "degrade", "degrade-heal"], "{}", t.render());
    }

    #[test]
    fn recorded_runs_produce_ordered_timelines() {
        let world = WorldBuilder::new(5).record_trace(true).build(2, |_| AckServer::default());
        let mut neat = Neat::new(world);
        assert!(neat.obs().enabled());
        neat.sleep(10);
        let p = neat.partition_complete(&[NodeId(0)], &[NodeId(1)]);
        neat.sleep(2);
        neat.recorded(NodeId(0), Op::Read { key: "k".into() }, |neat| {
            neat.sleep(8);
            Outcome::Timeout
        });
        neat.heal(&p);
        let out = neat.outcome(
            vec![Violation::new(ViolationKind::DataUnavailability, "k never answered")],
            (),
        );
        assert!(out.has(ViolationKind::DataUnavailability));
        let t = out.timeline;
        let labels: Vec<&str> = t.events.iter().map(|e| e.label()).collect();
        assert_eq!(labels, vec!["partition", "op", "heal", "verdict"]);
        assert_eq!(t.counters.verdicts, 1);
        assert_eq!(t.counters.ops_ordered, 1);
    }

    #[test]
    fn run_op_on_crashed_client_is_none() {
        let mut neat = engine(2);
        neat.sleep(7);
        neat.crash(&[NodeId(0)]);
        let got = ping(&mut neat);
        assert_eq!(got, None);
        assert_eq!(neat.now(), 7, "a down client answers at once");
    }

    #[test]
    fn recorded_logs_one_op_spanning_its_closure() {
        for recording in [false, true] {
            let world = WorldBuilder::new(5)
                .record_trace(recording)
                .build(2, |_| AckServer::default());
            let mut neat = Neat::new(world);
            neat.sleep(3);
            let op = Op::Read { key: "k".into() };
            let outcome = neat.recorded(NodeId(0), op.clone(), |neat| {
                neat.sleep(40);
                Outcome::Fail
            });
            assert_eq!(outcome, Outcome::Fail);
            let [rec] = neat.history().records() else {
                panic!("one closure, one record: {:?}", neat.history());
            };
            assert_eq!((rec.client, &rec.op, &rec.outcome), (NodeId(0), &op, &outcome));
            assert_eq!((rec.start, rec.end), (3, 43));
            let t = neat.timeline();
            assert_eq!(t.counters.ops_ordered, 1);
            assert_eq!(t.len(), usize::from(recording), "mirrored only when recording");
        }
    }
}
