//! Figure 2 of the paper: the VoltDB dirty-read (and stale-read) failure.
//!
//! (1) A complete partition splits the master from the other replicas;
//! after a timeout the majority elects a new master. (2) A write at the
//! old master updates its local copy, fails to replicate, and is reported
//! failed. (3) A read at the old master returns the uncommitted value.
//!
//! Run with: `cargo run --example voltdb_dirty_read`

use neat_repro::neat::ViolationKind;
use neat_repro::repkv::{scenarios, Config};

fn main() {
    println!("Figure 2 — dirty read in the VoltDB-like profile\n");
    let out = scenarios::dirty_and_stale_read(Config::voltdb(), 7, true);
    print!("manifestation sequence:\n{}", out.timeline.render());
    println!("final state: {:?}", out.detail.final_state);
    assert!(out.has(ViolationKind::DirtyRead), "step (3): the failed write was read");
    assert!(out.has(ViolationKind::StaleRead), "the old master also served stale data");

    let fixed = scenarios::dirty_and_stale_read(Config::fixed(), 7, false);
    println!(
        "\nsame sequence on the fixed profile (commit-before-apply + leased reads): \
         {} violations",
        fixed.violations.len()
    );
    assert!(fixed.violations.is_empty());
}
