//! The cluster harness: the one node contract every system family plugs
//! into, and the one place a deployment is assembled.
//!
//! The paper's NEAT (§6, Listings 1–2) owns deployment, clients, the
//! partitioner and the crash API; a system under test supplies only what
//! its nodes do. Here that split is:
//!
//! - [`Node`] — what one role (a server, a client, a master, a broker…)
//!   does on boot, on a message, on a timer and on a crash. Model crates
//!   implement it per role and contain nothing else about hosting.
//! - [`roles!`](crate::roles) — from one list of `Variant(RoleType)`
//!   pairs, the family's process enum, its [`simnet::Application`]
//!   forwarding, and its panicking role accessors.
//! - [`Mailbox`] — every family's client role: the one op-id layout and
//!   the inbox holding replies until [`Neat::request`] takes them.
//! - [`boot`] — the one construction site: seed and recording flag in, a
//!   started world wrapped in the [`Neat`] engine out.

use std::collections::BTreeMap;

use simnet::{Application, Ctx, NodeId, TimerId, WorldBuilder};

use crate::Neat;

/// One role of a deployment speaking wire type `M`.
///
/// The trait is generic over the wire (rather than carrying it as an
/// associated type) because a role can serve more than one deployment: the
/// coordination server runs both standalone and embedded in the message
/// queue's wire, and the queue's client process serves both broker modes.
pub trait Node<M> {
    /// Called when the node boots, and again after a restart.
    fn start(&mut self, _ctx: &mut Ctx<'_, M>) {}
    /// Called for every delivered message.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);
    /// Called when a timer set by this node fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, M>, _timer: TimerId, _tag: u64) {}
    /// Called when the node crashes; clears volatile state.
    fn on_crash(&mut self) {}
}

/// A client's op ids and the replies to them, held until taken.
///
/// Each family's client role is a `Mailbox<Reply>` with a one-arm
/// [`Node`] impl that [`put`](Mailbox::put)s every reply by its op id;
/// [`Neat::request`] opens the id, polls [`take`](Mailbox::take) and
/// closes the op, answered or timed out.
pub struct Mailbox<R> {
    next: u64,
    /// The lowest op id a reply is still kept for.
    floor: u64,
    inbox: BTreeMap<u64, R>,
}

impl<R> Default for Mailbox<R> {
    fn default() -> Self {
        Self {
            next: 0,
            floor: 0,
            inbox: BTreeMap::new(),
        }
    }
}

impl<R> Mailbox<R> {
    /// Allocates the next op id of client `me`: the node in the high 32
    /// bits, a per-client count in the low, so ids are unique across the
    /// deployment (repkv's coordinators key timers by them).
    pub fn open(&mut self, me: NodeId) -> u64 {
        let id = (me.0 as u64) << 32 | self.next;
        self.next += 1;
        id
    }

    /// Keeps `reply` for `op_id` unless a reply is already waiting (the
    /// first answer wins) or the op is closed (a late reply is dropped).
    pub fn put(&mut self, op_id: u64, reply: R) {
        if op_id >= self.floor {
            self.inbox.entry(op_id).or_insert(reply);
        }
    }

    /// Removes and returns the reply to `op_id`, if one arrived.
    pub fn take(&mut self, op_id: u64) -> Option<R> {
        self.inbox.remove(&op_id)
    }

    /// Closes `op_id` and every id opened before it: replies to them are
    /// dropped from now on.
    pub(crate) fn close(&mut self, op_id: u64) {
        self.floor = self.floor.max(op_id + 1);
    }
}

/// The panic behind every generated role accessor.
#[track_caller]
pub fn wrong_role(role: &str) -> ! {
    panic!("not a {role} node")
}

/// Pending events (deliveries and timers) a world is pre-sized for, per
/// node, so the event queue's payload slab and far heap do not regrow
/// mid-run. The deepest campaign arms (two repkv `load_*` arms) hold 31 at
/// once (`bench --bin perf`, seed 8); a hint that is too small costs a
/// reallocation, never a behaviour change.
const EVENTS_PER_NODE: usize = 8;

/// Builds and starts a world of `nodes` processes made by `make`, under the
/// test engine. `record` switches on both the simnet trace and the typed
/// `obs` timeline.
pub fn boot<A: Application>(
    seed: u64,
    record: bool,
    nodes: usize,
    make: impl FnMut(NodeId) -> A,
) -> Neat<A> {
    Neat::new(
        WorldBuilder::new(seed)
            .record_trace(record)
            .event_capacity(nodes * EVENTS_PER_NODE)
            .build(nodes, make),
    )
}

/// Declares a family's process type from its roles.
///
/// ```
/// use neat::cluster::Node;
/// use simnet::{Ctx, NodeId};
///
/// pub struct Echo;
/// impl Node<u64> for Echo {
///     fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
///         ctx.send(from, msg);
///     }
/// }
/// #[derive(Default)]
/// pub struct Sink(pub Vec<u64>);
/// impl Node<u64> for Sink {
///     fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
///         self.0.push(msg);
///     }
/// }
///
/// neat::roles! {
///     /// A node of the echo deployment.
///     pub enum EchoProc: u64 {
///         Server(Echo) => server / server_mut,
///         Client(Sink) => client / client_mut,
///     }
/// }
///
/// let mut neat = neat::cluster::boot(1, false, 2, |id| match id.0 {
///     0 => EchoProc::Server(Echo),
///     _ => EchoProc::Client(Sink::default()),
/// });
/// neat.world.call(NodeId(1), |_, ctx| ctx.send(NodeId(0), 7)).unwrap();
/// neat.sleep(10);
/// assert_eq!(neat.world.app(NodeId(1)).client().0, [7]);
/// ```
///
/// Each `Variant(Role) => get / get_mut` line yields the variant and two
/// accessors that return the role's state and panic, naming the role, on
/// any other variant. The enum implements [`simnet::Application`] by
/// handing every callback to the variant's [`Node`] implementation.
#[macro_export]
macro_rules! roles {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $msg:ty {
            $( $(#[$vmeta:meta])* $variant:ident($role:ty) => $get:ident / $get_mut:ident ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        // Processes live in the world's node table for a whole run, one per
        // node; boxing the large roles would only add an allocation each.
        #[allow(clippy::large_enum_variant)]
        $vis enum $name {
            $( $(#[$vmeta])* $variant($role), )+
        }

        #[allow(unreachable_patterns, dead_code)]
        impl $name {
            $(
                #[doc = concat!("The `", stringify!($get), "` role's state; panics on any other role.")]
                $vis fn $get(&self) -> &$role {
                    match self {
                        $name::$variant(role) => role,
                        _ => $crate::cluster::wrong_role(stringify!($get)),
                    }
                }

                #[doc = concat!("Mutable `", stringify!($get), "` state; panics on any other role.")]
                $vis fn $get_mut(&mut self) -> &mut $role {
                    match self {
                        $name::$variant(role) => role,
                        _ => $crate::cluster::wrong_role(stringify!($get)),
                    }
                }
            )+
        }

        impl $crate::simnet::Application for $name {
            type Msg = $msg;

            fn on_start(&mut self, ctx: &mut $crate::simnet::Ctx<'_, $msg>) {
                match self {
                    $( $name::$variant(role) => $crate::cluster::Node::start(role, ctx), )+
                }
            }

            fn on_message(
                &mut self,
                ctx: &mut $crate::simnet::Ctx<'_, $msg>,
                from: $crate::simnet::NodeId,
                msg: $msg,
            ) {
                match self {
                    $( $name::$variant(role) => $crate::cluster::Node::on_message(role, ctx, from, msg), )+
                }
            }

            fn on_timer(
                &mut self,
                ctx: &mut $crate::simnet::Ctx<'_, $msg>,
                timer: $crate::simnet::TimerId,
                tag: u64,
            ) {
                match self {
                    $( $name::$variant(role) => $crate::cluster::Node::on_timer(role, ctx, timer, tag), )+
                }
            }

            fn on_crash(&mut self) {
                match self {
                    $( $name::$variant(role) => $crate::cluster::Node::<$msg>::on_crash(role), )+
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A server that counts what it hears.
    #[derive(Default)]
    struct Counter {
        heard: u64,
    }

    impl Node<u64> for Counter {
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, msg: u64) {
            self.heard += msg;
        }
    }

    /// A client with a life of its own, like coord's heartbeating session:
    /// it pings the server on boot and again on every timer.
    #[derive(Default)]
    struct Heart {
        beats: u64,
        crashed: bool,
    }

    impl Node<u64> for Heart {
        fn start(&mut self, ctx: &mut Ctx<'_, u64>) {
            ctx.send(NodeId(0), 1);
            ctx.set_timer(100, 7);
        }
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, _: u64) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _: TimerId, tag: u64) {
            assert_eq!(tag, 7);
            self.beats += 1;
            ctx.send(NodeId(0), 1);
            ctx.set_timer(100, 7);
        }
        fn on_crash(&mut self) {
            self.crashed = true;
        }
    }

    roles! {
        enum Proc: u64 {
            Server(Counter) => server / server_mut,
            Client(Heart) => client / client_mut,
        }
    }

    fn deployment() -> Neat<Proc> {
        boot(3, false, 2, |id| match id.0 {
            0 => Proc::Server(Counter::default()),
            _ => Proc::Client(Heart::default()),
        })
    }

    #[test]
    fn accessors_return_the_role_state() {
        let mut neat = deployment();
        neat.world.app_mut(NodeId(0)).server_mut().heard = 5;
        assert_eq!(neat.world.app(NodeId(0)).server().heard, 5);
        assert_eq!(neat.world.app(NodeId(1)).client().beats, 0);
    }

    #[test]
    #[should_panic(expected = "not a server node")]
    fn accessor_on_the_wrong_role_panics_naming_the_role() {
        deployment().world.app(NodeId(1)).server();
    }

    #[test]
    #[should_panic(expected = "not a client node")]
    fn mutable_accessor_on_the_wrong_role_panics_naming_the_role() {
        deployment().world.app_mut(NodeId(0)).client_mut();
    }

    #[test]
    fn a_client_role_with_its_own_start_and_timer_is_dispatched() {
        let mut neat = deployment();
        neat.sleep(350);
        // Boot ping + three timer pings reached the server…
        assert_eq!(neat.world.app(NodeId(1)).client().beats, 3);
        assert_eq!(neat.world.app(NodeId(0)).server().heard, 4);
        // …and crash and restart reach the client role too.
        neat.crash(&[NodeId(1)]);
        assert!(neat.world.app(NodeId(1)).client().crashed);
        neat.restart(&[NodeId(1)]);
        neat.sleep(50);
        assert_eq!(neat.world.app(NodeId(0)).server().heard, 5);
    }

    #[test]
    fn mailbox_ids_never_collide_and_increase_per_client() {
        let (mut a, mut b) = (Mailbox::<()>::default(), Mailbox::<()>::default());
        let ids_a: Vec<u64> = (0..3).map(|_| a.open(NodeId(1))).collect();
        let ids_b: Vec<u64> = (0..3).map(|_| b.open(NodeId(2))).collect();
        assert!(ids_a.windows(2).all(|w| w[0] < w[1]), "{ids_a:?}");
        assert!(ids_b.windows(2).all(|w| w[0] < w[1]), "{ids_b:?}");
        assert!(
            ids_a.iter().all(|id| !ids_b.contains(id)),
            "{ids_a:?} vs {ids_b:?}"
        );
    }

    #[test]
    fn mailbox_keeps_the_first_reply() {
        let mut m = Mailbox::default();
        let op = m.open(NodeId(0));
        m.put(op, "first");
        m.put(op, "second");
        assert_eq!(m.take(op), Some("first"));
        assert_eq!(m.take(op), None, "taken once");
    }

    /// A server that echoes each op id 100 virtual ms after it arrives.
    #[derive(Default)]
    struct Slow {
        queued: std::collections::VecDeque<(NodeId, u64)>,
    }

    impl Node<u64> for Slow {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, op_id: u64) {
            self.queued.push_back((from, op_id));
            ctx.set_timer(100, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _: TimerId, _: u64) {
            if let Some((to, op_id)) = self.queued.pop_front() {
                ctx.send(to, op_id);
            }
        }
    }

    impl Node<u64> for Mailbox<u64> {
        fn on_message(&mut self, _: &mut Ctx<'_, u64>, _: NodeId, op_id: u64) {
            self.put(op_id, op_id);
        }
    }

    roles! {
        enum SlowProc: u64 {
            Server(Slow) => server / server_mut,
            Client(Mailbox<u64>) => client / client_mut,
        }
    }

    fn ask_slow(neat: &mut Neat<SlowProc>, timeout: u64) -> Option<u64> {
        neat.request(NodeId(1), timeout, SlowProc::client_mut, |_, ctx, op_id| {
            ctx.send(NodeId(0), op_id)
        })
    }

    #[test]
    fn a_reply_to_a_timed_out_op_never_answers_a_later_op() {
        let mut neat = boot(4, false, 2, |id| match id.0 {
            0 => SlowProc::Server(Slow::default()),
            _ => SlowProc::Client(Mailbox::default()),
        });
        let (first, second) = (1 << 32, 1 << 32 | 1);
        assert_eq!(
            ask_slow(&mut neat, 50),
            None,
            "the server answers after 100 ms"
        );
        // The first op's late reply lands while the second op waits…
        assert_eq!(ask_slow(&mut neat, 300), Some(second));
        // …and was dropped on arrival: its op was closed when it timed out.
        let inbox = &neat.world.app(NodeId(1)).client().inbox;
        assert!(!inbox.contains_key(&first), "late reply kept: {:?}", inbox.keys());
    }

    #[test]
    fn boot_wires_the_recording_flag_to_trace_and_timeline() {
        let quiet = boot(1, false, 1, |_| Proc::Server(Counter::default()));
        assert!(!quiet.world.trace().recording() && !quiet.obs().enabled());
        let loud = boot(1, true, 1, |_| Proc::Server(Counter::default()));
        assert!(loud.world.trace().recording() && loud.obs().enabled());
    }
}
