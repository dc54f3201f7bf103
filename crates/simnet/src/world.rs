//! The simulation world: nodes, the event loop, and the external control API.

use std::cell::Cell;
use std::collections::BTreeSet;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{
    event::{EventKind, EventQueue, Handle, QueueStats, Time, TimerId},
    net::{BlockRuleId, DegradeRule, DegradeRuleId, LinkConfig, Loss, Net},
    trace::{Note, Trace},
    NodeId,
};

/// Errors returned by the external control API.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimError {
    /// The referenced node id does not exist in this world.
    NoSuchNode(NodeId),
    /// The operation requires a live node but the node is crashed.
    NodeDown(NodeId),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            SimError::NodeDown(n) => write!(f, "node is down: {n}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The behaviour of a simulated node.
///
/// A world hosts many nodes of one `Application` type; heterogeneous systems
/// (servers, clients, auxiliary services) wrap their roles in one enum or
/// struct. Handlers interact with the world exclusively through [`Ctx`]:
/// sends and timers are buffered and applied when the handler returns, so
/// handlers never observe partially applied effects.
pub trait Application: 'static {
    /// The message type exchanged between nodes of this application.
    type Msg: Clone + std::fmt::Debug + 'static;

    /// Called once when the node boots (and again after a restart, unless
    /// [`Application::on_restart`] is overridden).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, timer: TimerId, tag: u64);

    /// Called when the node crashes. Implementations clear *volatile* state
    /// here; anything kept is, by definition, the node's stable storage.
    fn on_crash(&mut self) {}

    /// Called when the node restarts after a crash. Defaults to
    /// [`Application::on_start`] (recover from stable storage).
    fn on_restart(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        self.on_start(ctx);
    }
}

/// Buffered effect produced by a handler. A send's message is already in
/// the queue's slab; only its handle waits here for a delivery time.
enum Action {
    Send { to: NodeId, handle: Handle },
    SetTimer { id: TimerId, at: Time, tag: u64 },
    Note(String),
}

/// Handler-side view of the world.
///
/// All effects are buffered and applied after the handler returns.
pub struct Ctx<'a, M> {
    id: NodeId,
    now: Time,
    /// The node's crash epoch, stamped on everything it sends.
    epoch: u64,
    /// Whether the world keeps its note log; see [`Ctx::note`].
    recording: bool,
    rng: &'a mut StdRng,
    next_timer: &'a mut u64,
    /// Sent messages are written straight into the queue's slab.
    queue: &'a mut EventQueue<M>,
    /// Borrowed from the world's reusable buffer: handler effects append
    /// here and are drained by `apply_actions`, so the steady-state
    /// delivery path allocates no fresh `Vec` per handler call.
    actions: &'a mut Vec<Action>,
}

impl<'a, M> Ctx<'a, M> {
    /// The id of the node this handler runs on.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Sends `msg` to `to`. Delivery is subject to the latency model, block
    /// rules, and the destination being alive at delivery time. Sending to
    /// self is allowed and goes through the queue like any other message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let handle = self.queue.stash(EventKind::Deliver {
            from: self.id,
            to,
            msg,
            src_epoch: self.epoch,
        });
        self.actions.push(Action::Send { to, handle });
    }

    /// Sends `msg` to every node in `peers` except self, in list order. The
    /// last send takes `msg` itself, so k recipients cost k - 1 clones.
    pub fn broadcast(&mut self, peers: &[NodeId], msg: M)
    where
        M: Clone,
    {
        let me = self.id;
        let mut others = peers.iter().copied().filter(|&p| p != me);
        let Some(mut to) = others.next() else { return };
        for next in others {
            self.send(to, msg.clone());
            to = next;
        }
        self.send(to, msg);
    }

    /// Schedules a timer to fire after `delay` milliseconds with `tag`.
    ///
    /// The timer is implicitly cancelled if the node crashes before it fires.
    pub fn set_timer(&mut self, delay: Time, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.actions.push(Action::SetTimer {
            id,
            at: self.now + delay,
            tag,
        });
        id
    }

    /// Emits a free-form annotation into the note log ([`Trace::notes`]),
    /// which `obs` folds into the run's timeline. `text` runs only in a
    /// world that records its trace, so a quiet run never formats a note
    /// nobody reads.
    pub fn note(&mut self, text: impl FnOnce() -> String) {
        if self.recording {
            self.actions.push(Action::Note(text()));
        }
    }

    /// Deterministic per-world random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Draws a uniform value in `[0, n)`; convenience over [`Ctx::rng`].
    #[inline]
    pub fn rand_below(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }
}

struct Slot<A> {
    app: A,
    alive: bool,
    /// Bumped on every crash; stale timers and (optionally) in-flight
    /// messages carry the epoch at which they were created.
    epoch: u64,
}

/// Builder for a [`World`].
#[derive(Clone, Copy, Debug)]
pub struct WorldBuilder {
    seed: u64,
    link: LinkConfig,
    record_trace: bool,
    purge_in_flight_on_crash: bool,
    event_capacity: usize,
}

impl WorldBuilder {
    /// Creates a builder with the given RNG seed and default link model
    /// (1 ms base latency, 1 ms jitter, FIFO links).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            link: LinkConfig::default(),
            record_trace: false,
            purge_in_flight_on_crash: false,
            event_capacity: 0,
        }
    }

    /// Pre-sizes the event queue — its payload slab and its far heap — for
    /// `cap` concurrently pending events. The ring of buckets in front of
    /// the heap is part of the queue itself and needs no sizing.
    ///
    /// Scenario families pass their historical high-water mark (measured
    /// via [`World::queue_stats`]) so repeated arms of a campaign
    /// skip the queue's warm-up reallocations. A hint that is too small
    /// is only a missed optimisation, never a behaviour change — the
    /// capacity is an explicit constant rather than a learned cache so
    /// back-to-back runs of the same arm stay allocation-identical.
    pub fn event_capacity(mut self, cap: usize) -> Self {
        self.event_capacity = cap;
        self
    }

    /// Overrides the link latency model.
    pub fn link(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Enables the note log ([`Trace::notes`]). Counters are always on.
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// When enabled, messages still in flight from a node are dropped if the
    /// node crashes before they are delivered. The default (`false`) models
    /// a process crash: packets already on the wire still arrive.
    pub fn purge_in_flight_on_crash(mut self, on: bool) -> Self {
        self.purge_in_flight_on_crash = on;
        self
    }

    /// Builds a world of `n` nodes created by `factory` and runs each node's
    /// `on_start` handler (in node-id order, at time 0).
    pub fn build<A: Application>(self, n: usize, mut factory: impl FnMut(NodeId) -> A) -> World<A> {
        let mut world = World {
            slots: (0..n)
                .map(|i| Slot {
                    app: factory(NodeId(i)),
                    alive: true,
                    epoch: 0,
                })
                .collect(),
            queue: EventQueue::with_capacity(self.event_capacity),
            next_timer: 0,
            now: 0,
            rng: StdRng::seed_from_u64(self.seed),
            net: Net::new(self.link, n),
            trace: Trace::new(self.record_trace),
            purge_in_flight_on_crash: self.purge_in_flight_on_crash,
            action_buf: Vec::new(),
        };
        for i in 0..n {
            world.with_handler(NodeId(i), |app, ctx| app.on_start(ctx));
        }
        world
    }
}

/// A running simulation: the event loop plus the external control API used
/// by test harnesses (the role the NEAT *test engine* plays in the paper).
pub struct World<A: Application> {
    slots: Vec<Slot<A>>,
    queue: EventQueue<A::Msg>,
    next_timer: u64,
    now: Time,
    rng: StdRng,
    net: Net,
    trace: Trace,
    purge_in_flight_on_crash: bool,
    /// Reusable handler-effect buffer; see `with_handler`.
    action_buf: Vec<Action>,
}

impl<A: Application> World<A> {
    /// Number of nodes in the world.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the world has no nodes.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All node ids, in order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.slots.len()).map(NodeId).collect()
    }

    /// Current virtual time in milliseconds.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Immutable access to a node's application state, for assertions.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist.
    pub fn app(&self, id: NodeId) -> &A {
        &self.slots[id.0].app
    }

    /// Mutable access to a node's application state. Prefer [`World::call`]
    /// when the mutation needs to send messages or set timers.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist.
    pub fn app_mut(&mut self, id: NodeId) -> &mut A {
        &mut self.slots[id.0].app
    }

    /// Whether the node is currently alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slots.get(id.0).map(|s| s.alive).unwrap_or(false)
    }

    /// The network fabric (rule inspection, connectivity matrix).
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Execution trace and counters.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Installs a block rule over explicit directed pairs. Most callers use
    /// the partition helpers in the `neat` crate instead.
    pub fn block_pairs(&mut self, pairs: BTreeSet<(NodeId, NodeId)>) -> BlockRuleId {
        self.net.block_pairs(pairs)
    }

    /// Removes a block rule (heals that partition). Healing a rule that is
    /// not installed is a no-op.
    pub fn unblock(&mut self, id: BlockRuleId) {
        self.net.unblock(id);
    }

    /// Installs a degrade rule (gray failure) over explicit directed pairs.
    /// Most callers use the `DegradeSpec` helpers in the `neat` crate.
    pub fn degrade_pairs(
        &mut self,
        pairs: BTreeSet<(NodeId, NodeId)>,
        rule: DegradeRule,
    ) -> DegradeRuleId {
        self.net.degrade_pairs(pairs, rule)
    }

    /// Removes a degrade rule (restores those links). Restoring a rule that
    /// is not installed is a no-op.
    pub fn undegrade(&mut self, id: DegradeRuleId) {
        self.net.undegrade(id);
    }

    /// Crashes a node: volatile state is cleared via
    /// [`Application::on_crash`], pending timers die, and messages addressed
    /// to it are dropped until it restarts.
    pub fn crash(&mut self, id: NodeId) -> Result<(), SimError> {
        let slot = self.slots.get_mut(id.0).ok_or(SimError::NoSuchNode(id))?;
        if !slot.alive {
            return Err(SimError::NodeDown(id));
        }
        slot.alive = false;
        slot.epoch += 1;
        slot.app.on_crash();
        self.trace.counters.crashes += 1;
        Ok(())
    }

    /// Restarts a crashed node, running [`Application::on_restart`].
    pub fn restart(&mut self, id: NodeId) -> Result<(), SimError> {
        let slot = self.slots.get_mut(id.0).ok_or(SimError::NoSuchNode(id))?;
        if slot.alive {
            return Ok(());
        }
        slot.alive = true;
        self.trace.counters.restarts += 1;
        self.with_handler(id, |app, ctx| app.on_restart(ctx));
        Ok(())
    }

    /// Invokes `f` on a live node's application with a full [`Ctx`], applying
    /// any buffered effects afterwards. This is how external harnesses inject
    /// client operations.
    pub fn call<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) -> R,
    ) -> Result<R, SimError> {
        let slot = self.slots.get(id.0).ok_or(SimError::NoSuchNode(id))?;
        if !slot.alive {
            return Err(SimError::NodeDown(id));
        }
        Ok(self.with_handler(id, f))
    }

    /// Runs `f` with a ctx for node `id` and applies resulting actions.
    fn with_handler<R>(&mut self, id: NodeId, f: impl FnOnce(&mut A, &mut Ctx<'_, A::Msg>) -> R) -> R {
        // Reuse the world's action buffer across handler calls: `take`
        // leaves an empty Vec behind (no allocation), the buffer is
        // drained by `apply_actions`, and its capacity survives for the
        // next call.
        let mut actions = std::mem::take(&mut self.action_buf);
        let slot = &mut self.slots[id.0];
        let mut ctx = Ctx {
            id,
            now: self.now,
            epoch: slot.epoch,
            recording: self.trace.recording(),
            rng: &mut self.rng,
            next_timer: &mut self.next_timer,
            queue: &mut self.queue,
            actions: &mut actions,
        };
        let r = f(&mut slot.app, &mut ctx);
        self.apply_actions(id, &mut actions);
        self.action_buf = actions;
        r
    }

    /// Applies a handler's effects in the order it produced them. Sends
    /// get their delivery times here, after the handler returned, so the
    /// fabric's RNG draws never interleave with the handler's own.
    fn apply_actions(&mut self, from: NodeId, actions: &mut Vec<Action>) {
        let epoch = self.slots[from.0].epoch;
        for a in actions.drain(..) {
            match a {
                Action::Send { to, handle } => {
                    self.trace.counters.sent += 1;
                    let (at, copy_at) = self.net.route(self.now, from, to, &mut self.rng);
                    // A drawn duplicate has its own latency, so it can arrive
                    // before or after the original. It is scheduled first:
                    // at equal times the copy fires before the original.
                    if let Some(copy_at) = copy_at {
                        self.trace.counters.duplicated += 1;
                        let copy = self.queue.stash_copy(handle);
                        self.queue.schedule(copy_at, copy);
                    }
                    self.queue.schedule(at, handle);
                }
                Action::SetTimer { id, at, tag } => {
                    self.queue.push(at, EventKind::Timer { node: from, id, tag, epoch });
                }
                Action::Note(text) => {
                    self.trace.push(Note {
                        at: self.now,
                        node: from,
                        text,
                    });
                }
            }
        }
    }

    /// Processes the next pending event, if any. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event queue went backwards");
        debug_assert!(
            ev.seq < self.queue.stats().scheduled,
            "popped a sequence number that was never issued"
        );
        self.now = ev.time;
        match ev.kind {
            EventKind::Deliver { from, to, msg, src_epoch } => {
                self.deliver(from, to, msg, src_epoch);
            }
            EventKind::Timer { node, id, tag, epoch } => {
                let slot = &self.slots[node.0];
                if !slot.alive || slot.epoch != epoch {
                    return true;
                }
                self.trace.counters.timers_fired += 1;
                self.with_handler(node, |app, ctx| app.on_timer(ctx, id, tag));
            }
        }
        true
    }

    /// Delivers or drops one message; either way only a counter records it.
    fn deliver(&mut self, from: NodeId, to: NodeId, msg: A::Msg, src_epoch: u64) {
        let lost = self.net.admit(self.now, from, to, &mut self.rng);
        // Destination down or not in this world, or the source crashed
        // between send and delivery.
        let dead = !self.is_alive(to)
            || (self.purge_in_flight_on_crash && self.slots[from.0].epoch != src_epoch);
        let c = &mut self.trace.counters;
        let dropped = match lost {
            Some(Loss::Partition) => &mut c.dropped_partition,
            Some(Loss::Flaky) => &mut c.dropped_flaky,
            Some(Loss::Degraded) => &mut c.dropped_degraded,
            None if dead => &mut c.dropped_dead,
            None => {
                c.delivered += 1;
                self.with_handler(to, |app, ctx| app.on_message(ctx, from, msg));
                return;
            }
        };
        *dropped += 1;
    }

    /// Processes every event scheduled up to and including virtual time `t`,
    /// then advances the clock to `t`.
    pub fn run_until(&mut self, t: Time) {
        while let Some(next) = self.queue.peek_time() {
            if next > t {
                break;
            }
            self.step();
        }
        if t > self.now {
            self.now = t;
        }
    }

    /// Advances the simulation by `d` milliseconds of virtual time.
    pub fn run_for(&mut self, d: Time) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// Processes events until the queue drains, up to a safety cap of one
    /// million events (systems with periodic timers never drain; use
    /// [`World::run_for`] for those). Returns the number of events processed.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut n = 0;
        while n < 1_000_000 && !self.queue.is_empty() {
            self.step();
            n += 1;
        }
        n
    }

    /// Number of pending events, for tests and benches.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The traffic the queue's design is fitted to: the most events ever
    /// pending at once (a few dozen at most on every registry arm), the
    /// events ever scheduled (deliveries including later drops and
    /// duplicates, plus timers — a deterministic volume proxy) and how many
    /// of those were due beyond its window (`tests/perf_gate.rs` holds the
    /// depth and the window share).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }
}

thread_local! {
    /// The queue stats of every world dropped on this thread, merged; see
    /// [`queue_stats_during`].
    static DROPPED_QUEUES: Cell<QueueStats> = const {
        Cell::new(QueueStats { high_water: 0, scheduled: 0, far: 0 })
    };
}

impl<A: Application> Drop for World<A> {
    fn drop(&mut self) {
        let mut all = DROPPED_QUEUES.get();
        all.merge(self.queue.stats());
        DROPPED_QUEUES.set(all);
    }
}

/// Runs `f` and returns, beside its result, the [`World::queue_stats`] of
/// the worlds dropped on this thread meanwhile, merged: the deepest queue
/// and the summed counts. A scenario builds and drops its world behind a
/// function that returns only an outcome; this is how a tool reads the
/// counters anyway, without them entering any outcome (and so any
/// fingerprint).
pub fn queue_stats_during<R>(f: impl FnOnce() -> R) -> (R, QueueStats) {
    let mut outer = DROPPED_QUEUES.take();
    let r = f();
    let inner = DROPPED_QUEUES.get();
    outer.merge(inner);
    DROPPED_QUEUES.set(outer);
    (r, inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::bidirectional_pairs;
    use crate::net::LinkConfig;

    /// Echo: replies `x + 1` to every message; counts received values.
    struct Echo {
        seen: Vec<u64>,
        heartbeats: u64,
        heartbeat_timer: bool,
    }

    impl Echo {
        fn new() -> Self {
            Self {
                seen: Vec::new(),
                heartbeats: 0,
                heartbeat_timer: false,
            }
        }
    }

    impl Application for Echo {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if self.heartbeat_timer {
                ctx.set_timer(10, 1);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
            self.seen.push(msg);
            if msg.is_multiple_of(2) {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _timer: TimerId, tag: u64) {
            self.heartbeats += 1;
            if tag == 1 && self.heartbeats < 5 {
                ctx.set_timer(10, 1);
            }
        }
    }

    fn two_nodes() -> World<Echo> {
        WorldBuilder::new(1).build(2, |_| Echo::new())
    }

    /// A message that counts how often it was cloned.
    #[derive(Debug)]
    struct Counted(std::rc::Rc<std::cell::Cell<usize>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(self.0.clone())
        }
    }

    /// Broadcasts one `Counted` from node 1 to `peers`: (recipients, clones).
    fn broadcast_from_node_1(peers: &[usize]) -> (Vec<usize>, usize) {
        let peers: Vec<NodeId> = peers.iter().copied().map(NodeId).collect();
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let (mut rng, mut next_timer, mut actions) = (StdRng::seed_from_u64(1), 0, Vec::new());
        let mut queue = EventQueue::new();
        let mut ctx = Ctx {
            id: NodeId(1),
            now: 0,
            epoch: 0,
            recording: false,
            rng: &mut rng,
            next_timer: &mut next_timer,
            queue: &mut queue,
            actions: &mut actions,
        };
        ctx.broadcast(&peers, Counted(clones.clone()));
        let sent = actions
            .iter()
            .map(|a| match a {
                Action::Send { to, .. } => to.0,
                _ => panic!("broadcast buffered something other than a send"),
            })
            .collect();
        (sent, clones.get())
    }

    #[test]
    fn broadcast_clones_for_all_but_the_last_recipient() {
        assert_eq!(broadcast_from_node_1(&[0, 1, 2, 3]), (vec![0, 2, 3], 2));
        assert_eq!(broadcast_from_node_1(&[3, 0, 1]), (vec![3, 0], 1), "list order, self last");
        assert_eq!(broadcast_from_node_1(&[1, 2]), (vec![2], 0), "one recipient takes the original");
        assert_eq!(broadcast_from_node_1(&[1]), (vec![], 0), "self only");
        assert_eq!(broadcast_from_node_1(&[]), (vec![], 0), "no peers");
    }

    #[test]
    fn request_reply_round_trip() {
        let mut w = two_nodes();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 2)).unwrap();
        w.run_until_idle();
        assert_eq!(w.app(NodeId(1)).seen, vec![2]);
        assert_eq!(w.app(NodeId(0)).seen, vec![3]);
    }

    #[test]
    fn partition_drops_messages_and_heal_restores() {
        let mut w = two_nodes();
        let rule = w.block_pairs(bidirectional_pairs(&[NodeId(0)], &[NodeId(1)]));
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 2)).unwrap();
        w.run_until_idle();
        assert!(w.app(NodeId(1)).seen.is_empty());
        assert_eq!(w.trace().counters.dropped_partition, 1);

        w.unblock(rule);
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 4)).unwrap();
        w.run_until_idle();
        assert_eq!(w.app(NodeId(1)).seen, vec![4]);
    }

    #[test]
    fn a_message_to_a_node_the_world_lacks_is_dropped_dead() {
        let mut w = two_nodes();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(7), 2)).unwrap();
        w.run_until_idle();
        let c = w.trace().counters;
        assert_eq!((c.sent, c.delivered, c.dropped_dead), (1, 0, 1), "{c:?}");
    }

    #[test]
    fn partition_installed_after_send_still_drops_in_flight() {
        // The message is in flight when the rule is installed; delivery-time
        // checking drops it, like a switch rule would.
        let mut w = two_nodes();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 2)).unwrap();
        w.block_pairs(bidirectional_pairs(&[NodeId(0)], &[NodeId(1)]));
        w.run_until_idle();
        assert!(w.app(NodeId(1)).seen.is_empty());
    }

    #[test]
    fn crash_drops_deliveries_and_timers() {
        let mut w = WorldBuilder::new(1).build(2, |id| Echo {
            heartbeat_timer: id.0 == 1,
            ..Echo::new()
        });
        w.crash(NodeId(1)).unwrap();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 2)).unwrap();
        w.run_for(100);
        assert!(w.app(NodeId(1)).seen.is_empty());
        assert_eq!(w.app(NodeId(1)).heartbeats, 0, "timers must die with the node");
        assert_eq!(w.trace().counters.dropped_dead, 1);
    }

    #[test]
    fn restart_runs_on_restart_and_revives_delivery() {
        let mut w = two_nodes();
        w.crash(NodeId(1)).unwrap();
        w.run_for(5);
        w.restart(NodeId(1)).unwrap();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 2)).unwrap();
        w.run_until_idle();
        assert_eq!(w.app(NodeId(1)).seen, vec![2]);
    }

    #[test]
    fn crash_twice_is_error() {
        let mut w = two_nodes();
        w.crash(NodeId(1)).unwrap();
        assert_eq!(w.crash(NodeId(1)), Err(SimError::NodeDown(NodeId(1))));
    }

    #[test]
    fn call_on_dead_node_is_error() {
        let mut w = two_nodes();
        w.crash(NodeId(0)).unwrap();
        assert!(matches!(
            w.call(NodeId(0), |_, _| ()),
            Err(SimError::NodeDown(_))
        ));
    }

    #[test]
    fn timers_fire_with_recurrence() {
        let mut w = WorldBuilder::new(1).build(1, |_| Echo {
            heartbeat_timer: true,
            ..Echo::new()
        });
        w.run_for(100);
        assert_eq!(w.app(NodeId(0)).heartbeats, 5);
    }

    #[test]
    fn run_until_advances_clock_past_last_event() {
        let mut w = two_nodes();
        w.run_until(500);
        assert_eq!(w.now(), 500);
    }

    #[test]
    fn deterministic_same_seed_same_counters() {
        let run = |seed| {
            let mut w = WorldBuilder::new(seed).build(3, |_| Echo {
                heartbeat_timer: true,
                ..Echo::new()
            });
            for i in 0..10u64 {
                let from = NodeId((i % 3) as usize);
                let to = NodeId(((i + 1) % 3) as usize);
                w.call(from, |_, ctx| ctx.send(to, i * 2)).unwrap();
                w.run_for(3);
            }
            w.run_for(200);
            w.trace().counters
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn flaky_links_drop_a_fraction_of_messages() {
        let mut w = WorldBuilder::new(5)
            .link(LinkConfig {
                drop_probability: 0.3,
                ..LinkConfig::default()
            })
            .build(2, |_| Echo::new());
        for i in 0..200u64 {
            w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), i * 2 + 1)).unwrap();
        }
        w.run_for(1000);
        let c = w.trace().counters;
        assert_eq!(c.sent, 200);
        assert!(c.dropped_flaky > 20, "{c:?}");
        assert!(c.delivered > 100, "{c:?}");
        assert_eq!(c.delivered + c.dropped_flaky, 200, "{c:?}");
    }

    #[test]
    fn zero_drop_probability_loses_nothing() {
        let mut w = WorldBuilder::new(5).build(2, |_| Echo::new());
        for i in 0..50u64 {
            w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), i * 2 + 1)).unwrap();
        }
        w.run_for(1000);
        assert_eq!(w.trace().counters.dropped_flaky, 0);
        assert_eq!(w.trace().counters.delivered, 50);
    }

    #[test]
    fn degraded_link_loses_messages_until_restored() {
        let mut w = two_nodes();
        let d = w.degrade_pairs(
            crate::net::simplex_pairs(&[NodeId(0)], &[NodeId(1)]),
            DegradeRule::lossy(1.0),
        );
        for i in 0..5u64 {
            w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), i * 2 + 1)).unwrap();
        }
        w.run_until_idle();
        assert!(w.app(NodeId(1)).seen.is_empty());
        assert_eq!(w.trace().counters.dropped_degraded, 5);

        w.undegrade(d);
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 4)).unwrap();
        w.run_until_idle();
        assert_eq!(w.app(NodeId(1)).seen, vec![4]);
    }

    #[test]
    fn duplicating_link_delivers_twice() {
        let mut w = two_nodes();
        w.degrade_pairs(
            crate::net::simplex_pairs(&[NodeId(0)], &[NodeId(1)]),
            DegradeRule::duplicating(1.0),
        );
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 7)).unwrap();
        w.run_until_idle();
        assert_eq!(w.app(NodeId(1)).seen, vec![7, 7]);
        let c = w.trace().counters;
        assert_eq!(c.sent, 1, "a duplicate is a fabric artifact, not a send");
        assert_eq!(c.duplicated, 1);
        assert_eq!(c.delivered, 2);
        // The reply direction is untouched: replies (odd values get none
        // here) would flow once.
    }

    #[test]
    fn a_drawn_duplicate_is_scheduled_before_its_original() {
        /// A message that knows whether it is a clone.
        #[derive(Debug)]
        struct Marked {
            copy: bool,
        }
        impl Clone for Marked {
            fn clone(&self) -> Self {
                Marked { copy: true }
            }
        }
        #[derive(Default)]
        struct Sink(Vec<bool>);
        impl Application for Sink {
            type Msg = Marked;
            fn on_start(&mut self, _: &mut Ctx<'_, Marked>) {}
            fn on_message(&mut self, _: &mut Ctx<'_, Marked>, _: NodeId, msg: Marked) {
                self.0.push(msg.copy);
            }
            fn on_timer(&mut self, _: &mut Ctx<'_, Marked>, _: TimerId, _: u64) {}
        }
        // No jitter: copy and original are due at the same instant, so the
        // sequence number alone orders them.
        let mut w = WorldBuilder::new(1)
            .link(LinkConfig {
                jitter: 0,
                ..LinkConfig::default()
            })
            .build(2, |_| Sink::default());
        w.degrade_pairs(
            crate::net::simplex_pairs(&[NodeId(0)], &[NodeId(1)]),
            DegradeRule::duplicating(1.0),
        );
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), Marked { copy: false })).unwrap();
        assert_eq!(w.pending_events(), 2);
        assert_eq!(w.queue_stats().scheduled, 2);
        w.run_until_idle();
        assert_eq!(w.app(NodeId(1)).0, vec![true, false], "the copy takes the lower seq");
        let c = w.trace().counters;
        assert_eq!((c.sent, c.duplicated, c.delivered), (1, 1, 2));
    }

    #[test]
    fn flapping_rule_only_degrades_in_active_windows() {
        let mut w = two_nodes();
        w.degrade_pairs(
            crate::net::simplex_pairs(&[NodeId(0)], &[NodeId(1)]),
            DegradeRule::lossy(1.0).flapping(100),
        );
        // Delivered at ~t=101..150: the healthy window.
        w.run_until(100);
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 2)).unwrap();
        w.run_until(199);
        assert_eq!(w.app(NodeId(1)).seen, vec![2]);
        // Delivered at ~t=201: back in the degraded window.
        w.run_until(200);
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), 4)).unwrap();
        w.run_until_idle();
        assert_eq!(w.app(NodeId(1)).seen, vec![2]);
        assert_eq!(w.trace().counters.dropped_degraded, 1);
    }

    #[test]
    fn degrade_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut w = WorldBuilder::new(seed).build(2, |_| Echo::new());
            w.degrade_pairs(
                crate::net::bidirectional_pairs(&[NodeId(0)], &[NodeId(1)]),
                DegradeRule {
                    loss: 0.3,
                    extra_latency: 5,
                    jitter: 7,
                    dup_probability: 0.2,
                    flap_period: 40,
                },
            );
            for i in 0..50u64 {
                w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), i * 2)).unwrap();
                w.run_for(3);
            }
            w.run_for(500);
            w.trace().counters
        };
        assert_eq!(run(11), run(11));
        let c = run(11);
        assert!(c.dropped_degraded > 0, "{c:?}");
        assert!(c.duplicated > 0, "{c:?}");
    }

    #[test]
    fn epoch_isolation_timer_set_before_crash_never_fires_after_restart() {
        let mut w = WorldBuilder::new(1).build(1, |_| Echo {
            heartbeat_timer: true,
            ..Echo::new()
        });
        w.run_for(5); // timer pending at t=10
        w.crash(NodeId(0)).unwrap();
        w.restart(NodeId(0)).unwrap(); // sets a fresh timer
        w.run_for(200);
        // Only the post-restart chain fires (5 beats), not the stale timer.
        assert_eq!(w.app(NodeId(0)).heartbeats, 5);
    }
}
