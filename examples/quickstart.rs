//! Quickstart: test a replicated KV store under a network partition with
//! the NEAT engine, exactly in the style of the paper's §6.1 listings.
//!
//! Run with: `cargo run --example quickstart`

use neat_repro::neat::{
    checkers::{check_register, RegisterSemantics},
    rest_of,
};
use neat_repro::repkv::{Cluster, ClusterSpec, Config};

fn main() {
    // A three-server, two-client deployment of the VoltDB-like profile —
    // the paper's canonical test bed (Finding 12: three nodes suffice).
    // Keep the old master serving through the overlap window, as in the
    // real systems where step-down can take until the partition heals.
    let mut config = Config::voltdb();
    config.step_down_rounds = 30;
    let mut cluster = Cluster::build(ClusterSpec::three_by_two(config, 42));
    let leader = cluster.wait_for_leader(3000).expect("a leader is elected");
    println!("leader elected: {leader}");

    // A healthy write/read round trip.
    let c1 = cluster.client(0).via(leader);
    println!("write k=1 -> {:?}", c1.write(&mut cluster.neat, "k", 1));
    println!("read  k   -> {:?}", c1.read(&mut cluster.neat, "k"));

    // Partitioner.complete(minority, majority): isolate the leader with
    // client 1, like the paper's Listing 2 does around the master.
    let minority = [leader, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let partition = cluster.neat.partition_complete(&minority, &majority);
    println!("\n-- complete partition installed: {minority:?} | majority --");

    // A write at the isolated leader fails to replicate…
    println!("write k=2 -> {:?}", c1.write(&mut cluster.neat, "k", 2));
    // …but the flawed local-primary read still serves it: a dirty read.
    println!("read  k   -> {:?}  (dirty!)", c1.read(&mut cluster.neat, "k"));

    // Partitioner.heal(p), then let the system settle.
    cluster.neat.heal(&partition);
    cluster.neat.sleep(2000);
    println!("\n-- partition healed --");

    // The verification step: run the register checker over the recorded
    // history and the final state.
    let final_state = cluster.final_state(&["k"]);
    let violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    println!("\nhistory:\n{}", cluster.neat.history().render());
    println!("final state: {final_state:?}");
    println!("violations detected by NEAT:");
    for v in &violations {
        println!("  - {v}");
    }
    assert!(
        violations.iter().any(|v| v.kind == neat_repro::neat::ViolationKind::DirtyRead),
        "the flawed profile must produce a dirty read"
    );
    println!("\nNow rerun the same sequence against Config::fixed() — it stays clean.");
}
