//! ZOOKEEPER-2099: the coordination service's two synchronization paths
//! disagree. A snapshot-synced node's in-memory transaction log is left
//! stale; when that node later becomes leader, its log syncs silently
//! corrupt learners' trees — deleted znodes reappear and creates vanish,
//! permanently (Finding 3's lasting damage).
//!
//! Run with: `cargo run --example zookeeper_sync_corruption`

use neat_repro::coord::{scenarios, CoordFlaws};
use neat_repro::neat::ViolationKind;

fn main() {
    println!("ZOOKEEPER-2099 — txnlog sync corrupts the learner's data tree\n");
    let flawed = scenarios::txnlog_sync_corruption(
        CoordFlaws {
            snapshot_skips_log: true,
            skip_ephemeral_cleanup: false,
            apply_chunks_in_place: false,
        },
        31,
        true,
    );
    print!("manifestation sequence:\n{}", flawed.timeline.render());
    assert!(flawed.has(ViolationKind::DataLoss));
    assert!(flawed.has(ViolationKind::ReappearanceOfDeletedData));
    assert!(flawed.has(ViolationKind::DataCorruption));

    let fixed = scenarios::txnlog_sync_corruption(CoordFlaws::default(), 31, false);
    println!(
        "\nwith the snapshot path also resetting the in-memory log: {} violations",
        fixed.violations.len()
    );
    assert!(fixed.violations.is_empty());
}
