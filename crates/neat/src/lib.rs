//! NEAT: a network-partitioning testing framework, reimplemented in Rust.
//!
//! This crate is the Rust counterpart of the paper's NEAT framework
//! (Chapter 6): it simplifies the coordination of multiple clients and can
//! inject all three types of network-partitioning faults. Where the original
//! manipulated OpenFlow switch rules or `iptables` firewalls on a physical
//! testbed, this version installs *block rules* in a [`simnet`] simulated
//! fabric — the same reachability semantics, with deterministic virtual time.
//!
//! The pieces, mapped to the paper's Figure 4 architecture:
//!
//! - [`engine::Neat`] — the *test engine*: globally orders client operations,
//!   crashes and restarts nodes, and advances virtual time (`sleep`); every
//!   scenario ends in one [`RunOutcome`].
//! - [`cluster`] — the *deployment*: the [`cluster::Node`] contract each
//!   role of a system implements, the [`roles!`] macro that turns a list of
//!   roles into a hosted process type, and [`cluster::boot`].
//! - [`fault`] — the *network partitioner*: [`fault::PartitionSpec`] expresses
//!   complete, partial, and simplex partitions; the engine installs and heals
//!   them.
//! - [`gray`] — the *gray-failure injector*: [`gray::DegradeSpec`] expresses
//!   degraded (lossy, slow, duplicating, flapping) links — the §2.1 flaky-link
//!   causes behind most partial partitions — installed and healed through the
//!   same engine.
//! - [`retry`] — [`retry::RetryPolicy`], bounded exponential backoff in
//!   virtual time, so scenarios can contrast no-retry against
//!   retry-with-backoff clients (client-side handling decides impact).
//! - [`history`] — records every client operation (invocation, completion,
//!   outcome) exactly as the paper's verification steps observe them.
//! - [`checkers`] — the *verification code*: turns a history plus the final
//!   system state into typed [`checkers::Violation`]s whose kinds match the
//!   paper's failure-impact taxonomy (Table 2).
//! - [`explore`] — the paper's §8.1 future work: automatic workload and fault
//!   generation, with a *findings-guided* strategy implementing the pruning
//!   characteristics of Chapter 5 (partition first, ≤ 3 events, isolate the
//!   leader, natural order).
//!
//! # Examples
//!
//! Injecting and healing the three fault types of the paper's Figure 1:
//!
//! ```
//! use neat::{Neat, PartitionKind};
//! use simnet::{Application, Ctx, NodeId, TimerId, WorldBuilder};
//!
//! struct Idle;
//! impl Application for Idle {
//!     type Msg = ();
//!     fn on_start(&mut self, _: &mut Ctx<'_, ()>) {}
//!     fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
//!     fn on_timer(&mut self, _: &mut Ctx<'_, ()>, _: TimerId, _: u64) {}
//! }
//!
//! let mut engine = Neat::new(WorldBuilder::new(1).build(3, |_| Idle));
//! let a = [NodeId(0)];
//! let b = [NodeId(1), NodeId(2)];
//!
//! let complete = engine.partition_complete(&a, &b);
//! assert_eq!(complete.kind(), PartitionKind::Complete);
//! engine.sleep(100); // virtual time passes while the fault is active
//! engine.heal(&complete);
//!
//! let simplex = engine.partition_simplex(&a, &b);
//! assert_eq!(simplex.kind(), PartitionKind::Simplex);
//! engine.heal_all();
//! assert!(engine.active_partitions().is_empty());
//! ```

pub use obs;
pub use simnet;

pub mod audit;
pub mod checkers;
pub mod cluster;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod gray;
pub mod history;
pub mod retry;

pub use checkers::{Violation, ViolationKind};
pub use engine::{Neat, RunOutcome};
pub use fault::{rest_of, Partition, PartitionKind, PartitionSpec};
pub use gray::{Degrade, DegradeKind, DegradeSpec};
pub use history::{History, Op, OpRecord, Outcome};
pub use retry::RetryPolicy;
