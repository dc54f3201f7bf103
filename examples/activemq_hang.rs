//! Figure 6 of the paper: system unavailability in ActiveMQ under a
//! partial partition (AMQ-7064). The master is cut off from its replicas
//! but not from the coordination service, so it cannot replicate while the
//! replicas see a perfectly healthy master — the whole system hangs.
//!
//! Run with: `cargo run --example activemq_hang`

use neat_repro::mqueue::{scenarios, BrokerFlaws};
use neat_repro::neat::ViolationKind;

fn main() {
    println!("Figure 6 — ActiveMQ hangs under a partial partition\n");
    let out = scenarios::fig6_hang(BrokerFlaws::flawed(), 41, true);
    print!("manifestation sequence:\n{}", out.timeline.render());
    assert!(out.has(ViolationKind::SystemHang));

    let fixed = scenarios::fig6_hang(BrokerFlaws::fixed(), 41, false);
    println!(
        "\nfixed brokers (replication timeout releases mastership): {} violations — \
         a replica takes over and traffic resumes",
        fixed.violations.len()
    );
    assert!(fixed.violations.is_empty());
}
