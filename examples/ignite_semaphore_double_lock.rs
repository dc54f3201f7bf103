//! Figure 5 of the paper: semaphore double locking in the Ignite-like data
//! grid. A complete partition isolates one replica; both sides remove each
//! other from the view and both grant the only permit (IGNITE-8882).
//!
//! Run with: `cargo run --example ignite_semaphore_double_lock`

use neat_repro::gridstore::{scenarios, GridFlaws};
use neat_repro::neat::ViolationKind;

fn main() {
    println!("Figure 5 — semaphore double locking in the data grid\n");
    let out = scenarios::semaphore_double_lock(GridFlaws::flawed(), 61, true);
    print!("manifestation sequence:\n{}", out.timeline.render());
    assert!(out.has(ViolationKind::DoubleLocking));

    let protected = scenarios::semaphore_double_lock(GridFlaws::fixed(), 61, false);
    println!(
        "\nwith split-brain protection (the technique the paper credits to \
         Hazelcast/VoltDB): {} violations — the minority side pauses instead",
        protected.violations.len()
    );
    assert!(protected.violations.is_empty());
}
