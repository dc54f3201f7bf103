//! Deterministic observability for NEAT runs.
//!
//! The campaign's verdicts (did a checker fire?) answer *whether* a
//! reproduced failure manifested; this crate captures *how*. Every fault
//! the engine injects, every globally ordered client operation, and every
//! checker verdict becomes a typed [`Event`] stamped with virtual time —
//! no wall clock anywhere, so the same seed yields byte-identical
//! timelines and the double-run auditor can fold them into its execution
//! fingerprints.
//!
//! The pieces:
//!
//! - [`PartitionKind`] and [`DegradeKind`] — the fault taxonomy (the
//!   paper's Figure 1 partitions and §2.1 gray failures), defined once
//!   here; `neat` re-exports both for its fault specs.
//! - [`Event`] — the typed record palette (partition install/heal, crash,
//!   restart, client op, checker verdict, application note).
//! - [`Recorder`] — the engine-side sink and the run's one event log; only
//!   application notes come from elsewhere ([`simnet::Trace`]'s note log,
//!   folded in by [`Recorder::timeline`]). Counters are always maintained;
//!   the per-event stream obeys the same recording gate as the note log,
//!   so unrecorded runs stay cheap.
//! - [`Timeline`] — an ordered snapshot of one run: events plus
//!   [`Counters`], with renderers for the human-readable listing and the
//!   JSONL export (via `study::json`).
//! - [`ForensicReport`] — one detected violation explained end to end:
//!   which partition, which ops were in flight, where the first divergent
//!   operation appears — the Listing-1/2 style narrative of the paper.
//!
//! # Example
//!
//! ```
//! use obs::{Event, PartitionKind, Recorder, Timeline};
//! use simnet::NodeId;
//!
//! let mut rec = Recorder::new(true);
//! rec.partition_installed(600, 0, PartitionKind::Partial,
//!                         &[NodeId(0)], &[NodeId(1)], 2);
//! rec.op(700, 705, NodeId(1), "k".into(), "Write".into(), "Ok(None)".into());
//! rec.partition_healed(1450, 0);
//! rec.verdict(2000, "data loss".into(), "acked write to \"k\" missing".into());
//!
//! let t: Timeline = rec.snapshot();
//! assert_eq!(t.events.len(), 4);
//! assert_eq!(t.counters.ops_ordered, 1);
//! assert!(t.first_divergent_op().is_some());
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod forensics;
pub mod recorder;
pub mod timeline;

pub use event::{Counters, DegradeKind, Event, PartitionKind};
pub use forensics::ForensicReport;
pub use recorder::Recorder;
pub use timeline::Timeline;

/// Renders a node group compactly: `n0+n3`.
pub(crate) fn group(nodes: &[simnet::NodeId]) -> String {
    if nodes.is_empty() {
        return "-".to_string();
    }
    nodes
        .iter()
        .map(|n| format!("{n}"))
        .collect::<Vec<_>>()
        .join("+")
}
