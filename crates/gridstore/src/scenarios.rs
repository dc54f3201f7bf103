//! The data-grid failures as seeded scenarios (Table 15's Ignite,
//! Hazelcast, and Terracotta rows; Figure 5).

use neat::{
    checkers::{
        check_counter, check_queue, check_register, check_semaphore, check_set,
        QueueExpectation, RegisterSemantics,
    },
    rest_of, RunOutcome, Violation, ViolationKind,
};
use simnet::NodeId;

use crate::{cluster::GridCluster, node::GridFlaws};

/// Builds the canonical deployment: three servers, two clients, and a
/// complete partition splitting server 0 + client 0 from the rest.
fn split_cluster(
    flaws: GridFlaws,
    seed: u64,
    record: bool,
) -> (GridCluster, NodeId, NodeId) {
    let cluster = GridCluster::build(3, 2, flaws, seed, record);
    let side_a = cluster.servers[0];
    let side_b = cluster.servers[1];
    (cluster, side_a, side_b)
}

fn majority_state(cluster: &GridCluster) -> crate::state::GridState {
    cluster.state_of(cluster.servers[1])
}

/// Figure 5 / IGNITE-8882: a complete partition isolates one replica; both
/// sides remove each other from the view and both grant the only permit.
pub fn semaphore_double_lock(flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    let (mut cluster, a, b) = split_cluster(flaws, seed, record);
    cluster.neat.sleep(200);
    let c0 = cluster.client(0).via(a);
    let c1 = cluster.client(1).via(b);
    c0.sem_create(&mut cluster.neat, "sem", 1);
    cluster.neat.sleep(200);

    // (1) The partition isolates replica `a` with client 0.
    let minority = [a, cluster.clients[0]];
    let p = cluster
        .neat
        .partition_complete(&minority, &rest_of(&cluster.neat.world.node_ids(), &minority));
    cluster.neat.sleep(800); // both sides drop each other from the view

    // (2) Clients on both sides acquire the same semaphore.
    c0.acquire(&mut cluster.neat, "sem");
    c1.acquire(&mut cluster.neat, "sem");

    cluster.neat.heal(&p);
    cluster.neat.sleep(800);

    let violations = check_semaphore(cluster.neat.history(), "sem", 1);
    cluster.neat.outcome(violations, ())
}

/// Ignite semaphore reclaim: an unreachable holder's permit is reclaimed;
/// after the heal, the holder's release corrupts the semaphore.
pub fn semaphore_reclaim_corruption(flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = GridCluster::build(3, 2, flaws, seed, record);
    cluster.neat.sleep(200);
    let holder = cluster.clients[0];
    let c0 = cluster.client(0).via(cluster.servers[0]);
    let c1 = cluster.client(1).via(cluster.servers[0]);
    c0.sem_create(&mut cluster.neat, "sem", 1);
    c0.acquire(&mut cluster.neat, "sem");

    // Isolate only the holder client.
    let p = cluster
        .neat
        .partition_complete(&[holder], &rest_of(&cluster.neat.world.node_ids(), &[holder]));
    cluster.neat.sleep(1000); // the grid reclaims the "dead" client's permit

    // Someone else takes the permit…
    c1.acquire(&mut cluster.neat, "sem");

    // …the partition heals, and the original holder releases.
    cluster.neat.heal(&p);
    cluster.neat.sleep(300);
    c0.release(&mut cluster.neat, "sem");
    cluster.neat.sleep(300);

    let mut violations = check_semaphore(cluster.neat.history(), "sem", 1);
    let st = cluster.state_of(cluster.servers[0]);
    if st.semaphores.get("sem").is_some_and(|s| s.corrupted()) {
        violations.push(Violation::new(
            ViolationKind::BrokenLock,
            "semaphore permits exceed capacity after the reclaimed holder's release",
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// IGNITE-9768: atomic counters incremented on both sides of a split
/// diverge; the surviving state misses acknowledged increments.
pub fn broken_atomics(flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    let (mut cluster, a, b) = split_cluster(flaws, seed, record);
    cluster.neat.sleep(200);
    let c0 = cluster.client(0).via(a);
    let c1 = cluster.client(1).via(b);

    let minority = [a, cluster.clients[0]];
    let p = cluster
        .neat
        .partition_complete(&minority, &rest_of(&cluster.neat.world.node_ids(), &minority));
    cluster.neat.sleep(800);

    c0.incr(&mut cluster.neat, "ctr", 1);
    c0.incr(&mut cluster.neat, "ctr", 1);
    c1.incr(&mut cluster.neat, "ctr", 1);
    c1.incr(&mut cluster.neat, "ctr", 1);
    c1.incr(&mut cluster.neat, "ctr", 1);

    cluster.neat.heal(&p);
    cluster.neat.sleep(1000);

    let final_value = majority_state(&cluster)
        .atomics
        .get("ctr")
        .copied()
        .unwrap_or(0);
    let violations = check_counter(cluster.neat.history(), "ctr", 0, final_value);
    cluster.neat.outcome(violations, ())
}

/// IGNITE-9762: cache reads on the isolated side return stale data while
/// the majority moves on.
pub fn cache_stale_read(flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    let (mut cluster, a, b) = split_cluster(flaws, seed, record);
    cluster.neat.sleep(200);
    let c0 = cluster.client(0).via(a);
    let c1 = cluster.client(1).via(b);
    c0.put(&mut cluster.neat, "k", 1);
    cluster.neat.sleep(200);

    let minority = [a, cluster.clients[0]];
    let p = cluster
        .neat
        .partition_complete(&minority, &rest_of(&cluster.neat.world.node_ids(), &minority));
    cluster.neat.sleep(800);

    c1.put(&mut cluster.neat, "k", 2);
    c0.get(&mut cluster.neat, "k");

    cluster.neat.heal(&p);
    cluster.neat.sleep(1000);

    let st = majority_state(&cluster);
    let final_state = [("k".to_string(), st.cache.get("k").copied())]
        .into_iter()
        .collect();
    let violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    cluster.neat.outcome(violations, ())
}

/// IGNITE-9765: both sides of the split serve the same queue head.
pub fn queue_double_dequeue(flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    let (mut cluster, a, b) = split_cluster(flaws, seed, record);
    cluster.neat.sleep(200);
    let c0 = cluster.client(0).via(a);
    let c1 = cluster.client(1).via(b);
    c0.enq(&mut cluster.neat, "q", 1);
    c0.enq(&mut cluster.neat, "q", 2);
    cluster.neat.sleep(200);

    let minority = [a, cluster.clients[0]];
    let p = cluster
        .neat
        .partition_complete(&minority, &rest_of(&cluster.neat.world.node_ids(), &minority));
    cluster.neat.sleep(800);

    c0.deq(&mut cluster.neat, "q");
    c1.deq(&mut cluster.neat, "q");

    cluster.neat.heal(&p);
    cluster.neat.sleep(1000);

    let violations = check_queue(
        cluster.neat.history(),
        &[QueueExpectation {
            key: "q".into(),
            drained: None,
        }],
    );
    cluster.neat.outcome(violations, ())
}

/// Terracotta #905/#906: values added on the minority side are lost; values
/// removed on the minority side reappear.
pub fn set_loss_and_reappearance(flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    let (mut cluster, a, b) = split_cluster(flaws, seed, record);
    cluster.neat.sleep(200);
    let c0 = cluster.client(0).via(a);
    let c1 = cluster.client(1).via(b);
    c0.set_add(&mut cluster.neat, "set", 10);
    cluster.neat.sleep(200);

    let minority = [a, cluster.clients[0]];
    let p = cluster
        .neat
        .partition_complete(&minority, &rest_of(&cluster.neat.world.node_ids(), &minority));
    cluster.neat.sleep(800);

    // Minority side: remove an old value and add a new one — both
    // acknowledged, both doomed.
    c0.set_remove(&mut cluster.neat, "set", 10);
    c0.set_add(&mut cluster.neat, "set", 20);
    // Majority side keeps its own addition.
    c1.set_add(&mut cluster.neat, "set", 30);

    cluster.neat.heal(&p);
    cluster.neat.sleep(1000);

    let st = majority_state(&cluster);
    let final_state = [(
        "set".to_string(),
        st.sets.get("set").cloned().unwrap_or_default(),
    )]
    .into_iter()
    .collect();
    let violations = check_set(cluster.neat.history(), &final_state);
    cluster.neat.outcome(violations, ())
}

/// Hazelcast §4.4: a partial partition makes a replica promote itself;
/// on reconciliation the demoted side deletes its data and downloads from
/// the winner — which permanently fails mid-download. The data is gone.
pub fn demotion_wipe_data_loss(mut flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    // The merge path must run for the wipe to trigger.
    flaws.rejoin_after_heal = true;
    let mut cluster = GridCluster::build(3, 2, flaws, seed, record);
    cluster.neat.sleep(200);
    let c0 = cluster.client(0).via(cluster.servers[0]);
    c0.put(&mut cluster.neat, "k", 1);
    c0.put(&mut cluster.neat, "k2", 2);
    cluster.neat.sleep(300);

    // Partial partition: the primary s0 splits from {s1, s2}; clients
    // bridge. Both sides keep a copy; s1 promotes itself on side B.
    let s0 = cluster.servers[0];
    let others = [cluster.servers[1], cluster.servers[2]];
    let p = cluster.neat.partition_partial(&[s0], &others);
    cluster.neat.sleep(600);
    // Side B serves a write so its branch has newer operations.
    let c1 = cluster.client(1).via(cluster.servers[1]);
    c1.put(&mut cluster.neat, "k", 9);

    // Heal: side A's s0 sees the better branch, wipes, and schedules its
    // download — and the source side dies for good inside that window.
    cluster.neat.heal(&p);
    cluster.neat.sleep(150); // the offer arrives and s0 wipes
    cluster.neat.crash(&[cluster.servers[1], cluster.servers[2]]);
    cluster.neat.sleep(1000); // the download request goes nowhere

    // s0 is the only survivor; read the data back through it.
    let final_kv = cluster.state_of(s0).cache;
    let final_state: std::collections::BTreeMap<String, Option<u64>> = ["k", "k2"]
        .iter()
        .map(|k| (k.to_string(), final_kv.get(*k).copied()))
        .collect();
    let violations = neat::checkers::check_register(
        cluster.neat.history(),
        neat::checkers::RegisterSemantics::Strong,
        &final_state,
    );
    cluster.neat.outcome(violations, ())
}

/// Finding 3: with the flawed membership, the two half-clusters persist
/// after the partition heals.
pub fn lasting_split(flaws: GridFlaws, seed: u64, record: bool) -> RunOutcome {
    let (mut cluster, a, _b) = split_cluster(flaws, seed, record);
    cluster.neat.sleep(200);

    let minority = [a, cluster.clients[0]];
    let p = cluster
        .neat
        .partition_complete(&minority, &rest_of(&cluster.neat.world.node_ids(), &minority));
    cluster.neat.sleep(1000);
    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);

    let mut violations = Vec::new();
    let full = cluster.servers.len();
    let split: Vec<(NodeId, usize)> = cluster
        .servers
        .iter()
        .map(|&s| (s, cluster.neat.world.app(s).server().view().len()))
        .filter(|(_, n)| *n < full)
        .collect();
    if !split.is_empty() {
        violations.push(Violation::new(
            ViolationKind::Other,
            format!(
                "views still split after heal (lasting damage): {split:?}"
            ),
        ));
    }
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_semaphore_double_lock_when_flawed() {
        let out = semaphore_double_lock(GridFlaws::flawed(), 61, false);
        assert!(out.has(ViolationKind::DoubleLocking), "{:?}", out.violations);
    }

    #[test]
    fn fig5_clean_with_split_brain_protection() {
        let out = semaphore_double_lock(GridFlaws::fixed(), 61, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn reclaim_corrupts_semaphore_when_flawed() {
        let out = semaphore_reclaim_corruption(GridFlaws::flawed(), 63, false);
        assert!(out.has(ViolationKind::BrokenLock), "{:?}", out.violations);
    }

    #[test]
    fn no_reclaim_no_corruption_when_fixed() {
        let out = semaphore_reclaim_corruption(GridFlaws::fixed(), 63, false);
        assert!(
            !out.has(ViolationKind::BrokenLock),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn atomics_lose_increments_when_flawed() {
        let out = broken_atomics(GridFlaws::flawed(), 65, false);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn atomics_exact_when_fixed() {
        let out = broken_atomics(GridFlaws::fixed(), 65, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn cache_serves_stale_reads_when_flawed() {
        let out = cache_stale_read(GridFlaws::flawed(), 67, false);
        assert!(out.has(ViolationKind::StaleRead), "{:?}", out.violations);
    }

    #[test]
    fn cache_clean_when_fixed() {
        let out = cache_stale_read(GridFlaws::fixed(), 67, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn queue_double_dequeues_when_flawed() {
        let out = queue_double_dequeue(GridFlaws::flawed(), 69, false);
        assert!(out.has(ViolationKind::DoubleDequeue), "{:?}", out.violations);
    }

    #[test]
    fn queue_clean_when_fixed() {
        let out = queue_double_dequeue(GridFlaws::fixed(), 69, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn sets_lose_and_resurrect_when_flawed() {
        let out = set_loss_and_reappearance(GridFlaws::flawed(), 71, false);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
        assert!(
            out.has(ViolationKind::ReappearanceOfDeletedData),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn sets_clean_when_fixed() {
        let out = set_loss_and_reappearance(GridFlaws::fixed(), 71, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn hazelcast_demotion_wipe_loses_data_when_flawed() {
        let mut flaws = GridFlaws::flawed();
        flaws.wipe_before_download = true;
        let out = demotion_wipe_data_loss(flaws, 75, false);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn atomic_adoption_keeps_data_when_fixed() {
        // Without the wipe flaw the merge is atomic: even with the same
        // crash, the survivor still holds a usable copy (possibly the
        // pre-merge one, which is a legal outcome for these writes).
        let out = demotion_wipe_data_loss(GridFlaws::flawed(), 75, false);
        assert!(!out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn split_persists_after_heal_when_flawed() {
        let out = lasting_split(GridFlaws::flawed(), 73, false);
        assert!(out.has(ViolationKind::Other), "{:?}", out.violations);
    }

    #[test]
    fn membership_heals_when_fixed() {
        let out = lasting_split(GridFlaws::fixed(), 73, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
