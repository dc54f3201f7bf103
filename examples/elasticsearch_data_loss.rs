//! Listing 1 of the paper: the Elasticsearch data-loss test under a
//! partial network partition with an intersecting bridge node.
//!
//! Run with: `cargo run --example elasticsearch_data_loss`

use neat_repro::neat::ViolationKind;
use neat_repro::repkv::{scenarios, Config};

fn main() {
    println!("Listing 1 — Elasticsearch data loss under a partial partition\n");
    println!("flawed profile (lowest-id election, votes while connected):");
    let flawed = scenarios::listing1_data_loss(Config::elasticsearch(), 3, true);
    print!("{}", flawed.timeline.render());
    println!("final state: {:?}", flawed.detail.final_state);
    assert!(flawed.has(ViolationKind::DataLoss));

    println!("\nfixed profile (majority-freshest election, sticky votes):");
    let fixed = scenarios::listing1_data_loss(Config::fixed(), 3, false);
    println!("final state: {:?}", fixed.detail.final_state);
    println!("violations: {}", fixed.violations.len());
    assert!(!fixed.has(ViolationKind::DataLoss));
    println!("\nThe acknowledged write on the second leader's side was lost only");
    println!("under the flawed profile — the paper's issue #2488 exactly.");
}
