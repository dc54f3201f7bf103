//! A primary-backup replicated key-value store with pluggable policies,
//! modelling the paper's most-studied failure family.
//!
//! One protocol core reproduces, depending on the [`Config`] profile:
//!
//! | Profile | Paper failures |
//! |---|---|
//! | [`Config::voltdb`] | Figure 2 dirty/stale reads (ENG-10389), longest-log data loss (ENG-10486) |
//! | [`Config::mongodb`] | stale reads (SERVER-17975), rollback data loss, priority livelock (SERVER-14885), arbiter thrashing (§4.4) |
//! | [`Config::elasticsearch`] | Listing 1 data loss (#2488), intersecting split brain, coordinator double execution (#9967) |
//! | [`Config::redis`] | async-replication data loss (Jepsen: Redis) |
//! | [`Config::fixed`] | none — the ablation baseline |
//!
//! The [`scenarios`] module packages each failure as a reusable, seeded
//! scenario returning the violations the NEAT checkers detected.

pub mod client;
pub mod explorer;
pub mod cluster;
pub mod config;
pub mod load;
pub mod msg;
pub mod scenarios;
pub mod server;

pub use client::KvClient;
pub use cluster::{Cluster, ClusterSpec, Proc};
pub use config::{Config, ElectionPolicy, ReadPolicy, Replication};
pub use msg::{Entry, EntryOp, Log, LogSummary, Msg, Req, Resp};
pub use server::{Role, Server};
pub use explorer::RepkvTarget;
