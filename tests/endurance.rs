//! Endurance tests: dozens of partition/heal cycles (the production
//! pattern the paper cites — partitions recur weekly and last for long
//! stretches) against the fixed baselines, with client traffic between
//! every fault step. Nothing may break, ever.

use neat_repro::consensus::{RaftCluster, RaftClusterSpec};
use neat_repro::neat::{
    checkers::{check_register, RegisterSemantics},
    nemesis::{replay, Nemesis},
    PartitionKind,
};
use neat_repro::repkv::{Cluster, ClusterSpec, Config};

#[test]
fn raft_survives_twenty_flicker_cycles() {
    let mut cluster = RaftCluster::build(RaftClusterSpec::baseline(3, 77));
    cluster.wait_for_leader(3000).expect("initial leader");
    let servers = cluster.servers.clone();
    let clients = (cluster.client(0), cluster.client(1));

    let mut nemesis = Nemesis::flicker(servers);
    nemesis.kinds = vec![
        PartitionKind::Complete,
        PartitionKind::Partial,
        PartitionKind::Simplex,
    ];
    nemesis.crash_probability = 0.25;
    let schedule = nemesis.schedule(20, 7);

    let mut val = 0u64;
    // Collect leaders outside the closure: replay borrows the engine.
    let mut ops = Vec::new();
    {
        let RaftCluster { neat, servers, .. } = &mut cluster;
        let servers = servers.clone();
        replay(neat, &schedule, |engine| {
            val += 1;
            // Find the current leader through the engine (best effort).
            let leader = servers
                .iter()
                .copied()
                .filter(|&s| engine.world.is_alive(s))
                .find(|&s| {
                    engine.world.app(s).server().role()
                        == neat_repro::consensus::RaftRole::Leader
                });
            if let Some(l) = leader {
                let key = format!("k{}", val % 2);
                let cl = clients.0.via(l);
                let outcome = cl.put(engine, &key, val);
                ops.push((key, val, outcome));
            }
        });
    }
    cluster.neat.heal_all();
    let servers = cluster.servers.clone();
    cluster.neat.restart(&servers);
    cluster.neat.sleep(4000);

    assert!(
        cluster.wait_for_leader(4000).is_some(),
        "a leader must re-emerge after the flicker storm"
    );
    assert!(
        ops.iter().filter(|(_, _, o)| o.is_ok()).count() > 5,
        "the cluster must have made progress between faults: {ops:?}"
    );
    let final_state = cluster.final_state(&["k0", "k1"]);
    let violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    assert!(
        violations.is_empty(),
        "{violations:?}\n{}",
        cluster.neat.history().render()
    );
}

#[test]
fn fixed_repkv_survives_fifteen_flicker_cycles() {
    let mut cluster = Cluster::build(ClusterSpec::three_by_two(Config::fixed(), 88));
    cluster.wait_for_leader(3000).expect("initial leader");
    let servers = cluster.servers.clone();
    let nemesis = Nemesis::flicker(servers.clone());
    let schedule = nemesis.schedule(15, 9);

    let client0 = cluster.client(0);
    let mut val = 0u64;
    {
        let Cluster { neat, .. } = &mut cluster;
        replay(neat, &schedule, |engine| {
            val += 1;
            let leader = servers
                .iter()
                .copied()
                .filter(|&s| engine.world.is_alive(s))
                .find(|&s| {
                    engine.world.app(s).server().role() == neat_repro::repkv::Role::Leader
                });
            if let Some(l) = leader {
                let cl = client0.via(l);
                cl.write(engine, "k", val);
                cl.read(engine, "k");
            }
        });
    }
    cluster.neat.heal_all();
    cluster.neat.sleep(4000);

    let final_state = cluster.final_state(&["k"]);
    let violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    assert!(
        violations.is_empty(),
        "{violations:?}\n{}",
        cluster.neat.history().render()
    );
}

#[test]
fn flawed_profile_breaks_under_the_same_storm() {
    // The control experiment: the identical nemesis schedule against the
    // flawed VoltDB-like profile does produce violations.
    let mut any_violation = false;
    for seed in [86, 99, 101] {
        let mut cluster = Cluster::build(ClusterSpec::three_by_two(Config::voltdb(), seed));
        cluster.wait_for_leader(3000).expect("initial leader");
        let servers = cluster.servers.clone();
        let nemesis = Nemesis::flicker(servers.clone());
        let schedule = nemesis.schedule(15, 9);
        let client0 = cluster.client(0);
        let mut val = 0u64;
        {
            let Cluster { neat, .. } = &mut cluster;
            replay(neat, &schedule, |engine| {
                val += 1;
                let leader = servers
                    .iter()
                    .copied()
                    .filter(|&s| engine.world.is_alive(s))
                    .find(|&s| {
                        engine.world.app(s).server().role() == neat_repro::repkv::Role::Leader
                    });
                if let Some(l) = leader {
                    let cl = client0.via(l);
                    cl.write(engine, "k", val);
                    cl.read(engine, "k");
                }
            });
        }
        cluster.neat.heal_all();
        cluster.neat.sleep(4000);
        let final_state = cluster.final_state(&["k"]);
        let violations = check_register(
            cluster.neat.history(),
            RegisterSemantics::Strong,
            &final_state,
        );
        if !violations.is_empty() {
            any_violation = true;
            break;
        }
    }
    assert!(
        any_violation,
        "the flawed profile should break somewhere in a 15-cycle storm"
    );
}
