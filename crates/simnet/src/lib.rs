//! A deterministic discrete-event simulator for distributed systems.
//!
//! `simnet` is the substrate on which the NEAT reproduction runs every
//! distributed protocol. It provides:
//!
//! - a virtual clock and a totally ordered event queue (same seed, same
//!   program ⇒ identical execution, byte for byte),
//! - nodes implementing the [`Application`] trait (message and timer
//!   handlers, crash/restart lifecycle),
//! - a network fabric with one fixed latency model (1 ms plus a 0–1 ms
//!   jitter draw, FIFO per directed link) and stacked *directional block
//!   rules*, the primitive from which complete, partial, and simplex
//!   network partitions (Figure 1 of the paper) are built,
//! - per-link [`net::DegradeRule`]s for *gray failures* — targeted loss,
//!   extra latency, jitter, and duplication, optionally flapping — the
//!   flaky-link causes the paper traces partial partitions to (§2.1),
//! - a [`trace::Trace`]: always-on per-message counters plus an opt-in log
//!   of application notes, which `obs` folds into a run's timeline.
//!
//! # Examples
//!
//! ```
//! use simnet::{Application, Ctx, NodeId, TimerId, WorldBuilder};
//!
//! /// Every node pings its successor once at startup.
//! struct Ping {
//!     got: Option<NodeId>,
//! }
//!
//! impl Application for Ping {
//!     type Msg = &'static str;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
//!         let next = NodeId((ctx.id().0 + 1) % 3);
//!         ctx.send(next, "ping");
//!     }
//!     fn on_message(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, _msg: Self::Msg) {
//!         self.got = Some(from);
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _timer: TimerId, _tag: u64) {}
//! }
//!
//! let mut world = WorldBuilder::new(7).build(3, |_| Ping { got: None });
//! world.run_until_idle();
//! assert_eq!(world.app(NodeId(1)).got, Some(NodeId(0)));
//! ```

pub mod event;
pub mod net;
pub mod trace;
pub mod world;

pub use event::{QueueStats, Time, TimerId};
pub use net::{BlockRuleId, DegradeRule, DegradeRuleId};
pub use trace::{Note, Trace};
pub use world::{queue_stats_during, Application, Ctx, SimError, World, WorldBuilder};

/// Identifier of a simulated node (server, client, or auxiliary service).
///
/// Node ids are dense indices assigned by the [`WorldBuilder`] in creation
/// order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}
