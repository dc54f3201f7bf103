//! An in-memory data grid (Ignite/Hazelcast/Terracotta-like) with the
//! membership flaw behind the paper's largest NEAT failure family.
//!
//! Every structure — cache, atomics, semaphores, queues, sets — is
//! replicated across a peer membership where **both sides of a partition
//! remove each other from the view** and keep serving (§6.4: "the
//! assumption that an unreachable node has crashed"). [`GridFlaws`] toggles
//! split-brain protection (the Hazelcast/VoltDB minority pause), the Ignite
//! permit-reclaim behaviour, and whether members rejoin after healing.

pub mod cluster;
pub mod explorer;
pub mod node;
pub mod scenarios;
pub mod state;

pub use cluster::{GridClient, GridCluster, GridProc};
pub use explorer::GridTarget;
pub use node::{GridFlaws, GridMsg, GridNode};
pub use state::{GridOp, GridResp, GridState, SemState};
