//! Listing 2 of the paper: the ActiveMQ double-dequeue test under a
//! complete network partition around the master broker (AMQ-6978).
//!
//! Run with: `cargo run --example activemq_double_dequeue`

use neat_repro::mqueue::{scenarios, BrokerFlaws};
use neat_repro::neat::ViolationKind;

fn main() {
    println!("Listing 2 — ActiveMQ double dequeue under a complete partition\n");
    println!("flawed brokers (consumer acknowledged before replication):");
    let flawed = scenarios::listing2_double_dequeue(BrokerFlaws::flawed(), 43, true);
    print!("{}", flawed.timeline.render());
    assert!(flawed.has(ViolationKind::DoubleDequeue));

    println!("\nfixed brokers (dequeue delivered only after the removal replicates):");
    let fixed = scenarios::listing2_double_dequeue(BrokerFlaws::fixed(), 43, false);
    println!("violations: {}", fixed.violations.len());
    assert!(!fixed.has(ViolationKind::DoubleDequeue));
    println!("\nassertNotEqual(minMsg, majMsg) fails only under the flawed brokers.");
}
