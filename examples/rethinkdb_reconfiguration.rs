//! The RethinkDB reconfiguration failure (§4.4, issue #5289): a removed
//! replica deletes its Raft log — including the very configuration entry
//! that removed it — and helps the old configuration form a second
//! majority. Proven Raft, identical sequence, stays safe.
//!
//! Run with: `cargo run --example rethinkdb_reconfiguration`

use neat_repro::consensus::{scenarios, RaftTweaks};
use neat_repro::neat::ViolationKind;

fn main() {
    println!("RethinkDB #5289 — write loss during cluster reconfiguration\n");
    let tweaked = scenarios::rethinkdb_reconfig_split_brain(
        RaftTweaks {
            delete_log_on_remove: true,
        },
        21,
        true,
    );
    print!("manifestation sequence (tweaked Raft):\n{}", tweaked.timeline.render());
    println!("two majorities committed concurrently: {}", tweaked.detail.dual_majorities);
    println!("final state: {:?}", tweaked.detail.final_state);
    assert!(tweaked.detail.dual_majorities);
    assert!(tweaked.has(ViolationKind::DataLoss));

    let proven = scenarios::rethinkdb_reconfig_split_brain(RaftTweaks::default(), 21, false);
    println!(
        "\nproven Raft under the same sequence: dual majorities = {}, violations = {}",
        proven.detail.dual_majorities,
        proven.violations.len()
    );
    assert!(!proven.detail.dual_majorities);
    println!("\nThe paper's point exactly: \"systems that implement proven protocols");
    println!("often tweak these protocols in unproven ways\" (§2.2).");
}
