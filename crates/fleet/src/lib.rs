//! `fleet` — the deterministic parallel campaign runner.
//!
//! The workspace's simulations are single-threaded and pure functions of
//! their seed; the campaign over them is therefore embarrassingly
//! parallel. This crate is the one audited place where OS threads exist:
//!
//! - [`pool`] — a worker pool mapping a function over indexed work items,
//!   with an index-sorted reduce that makes the merged output independent
//!   of worker scheduling: `--jobs K` is byte-identical to serial for any
//!   `K` (enforced by `tests/fleet_equivalence.rs` at tier 1).
//! - [`campaign`] — the campaign registry and the double-run auditor
//!   fanned over the pool: full runs, multi-seed sweeps (the live
//!   Table 11 deterministic/nondeterministic split), fingerprint sweeps,
//!   and the `--audit` double run with the text it prints.
//! - [`explore`] — `neat::explore` fan-out across seeds for the §5.4
//!   detection-probability statistics.
//! - [`cli`] — argument parsing and report rendering behind
//!   `cargo run -p fleet` (campaign, `--seeds` sweep, `--trace` forensics
//!   and `--audit`).
//!
//! The `thread-spawn` lint rule stays in force everywhere else: the
//! scanner only honours `lint:allow(thread-spawn)` under `crates/fleet`
//! (see `lint::scan`), so simulation crates cannot quietly grow threads.

pub mod campaign;
pub mod cli;
pub mod explore;
pub mod pool;
