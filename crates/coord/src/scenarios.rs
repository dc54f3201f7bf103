//! The coordination-service failures as seeded scenarios.

use std::collections::BTreeMap;

use neat::{
    checkers::{check_register, RegisterSemantics},
    rest_of, RunOutcome, Violation, ViolationKind,
};

use crate::{
    cluster::CoordCluster,
    server::CoordFlaws,
};

/// ZOOKEEPER-2099: a snapshot-synced node becomes leader and serves an
/// in-memory-log sync with a hole; the learner's tree silently loses a
/// create and resurrects a deleted znode — permanently (Finding 3).
pub fn txnlog_sync_corruption(flaws: CoordFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = CoordCluster::build(3, 2, flaws, seed, record);
    let l = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let others = rest_of(&cluster.servers, &[l]);
    let (a, v) = (others[0], others[1]);
    let cl = cluster.client(0);

    // z1..z5: baseline data everyone has (fills the log window).
    for i in 1..=5u64 {
        cl.create(&mut cluster.neat, &format!("/k{i}"), i);
    }

    // Isolate V; commit z6..z8 with {L, A}: one create, one set, one delete.
    let p_v = cluster
        .neat
        .partition_complete(&[v], &rest_of(&cluster.neat.world.node_ids(), &[v]));
    cl.create(&mut cluster.neat, "/k6", 6);
    cl.set(&mut cluster.neat, "/k1", 100);
    cl.delete(&mut cluster.neat, "/k2");

    // A's disk is replaced; it re-syncs from L. The gap (8 txns) exceeds
    // the in-memory window, so L uses *storage sync* — which, with the
    // flaw, leaves A's in-memory log empty but its base at zero.
    cluster
        .neat
        .world
        .call(a, |p, _| p.server_mut().wipe())
        .expect("A alive"); // lint:allow(unwrap-expect)
    cluster.neat.sleep(400);

    // z9 lands in A's (post-snapshot) in-memory log.
    cl.create(&mut cluster.neat, "/k9", 9);

    // Old leader gone; V heals; A (freshest zxid) wins the election and
    // brings V "up to date" from its holey in-memory log.
    let p_l = cluster
        .neat
        .partition_complete(&[l], &rest_of(&cluster.neat.world.node_ids(), &[l]));
    cluster.neat.heal(&p_v);
    cluster.neat.sleep(1500);
    cluster.neat.heal(&p_l);
    cluster.neat.sleep(1500);

    // Verification: read the affected paths at V (local reads, like any
    // ZooKeeper client connected to that member).
    let cl2 = cluster.client(1);
    cl2.get_at(&mut cluster.neat, v, "/k6");
    cl2.get_at(&mut cluster.neat, v, "/k2");
    cl2.get_at(&mut cluster.neat, v, "/k1");

    let tree_v = cluster.tree_of(v);
    let keys = ["/k1", "/k2", "/k6", "/k9"];
    let final_state: BTreeMap<String, Option<u64>> = keys
        .iter()
        .map(|k| (k.to_string(), tree_v.get(*k).map(|z| z.val)))
        .collect();
    let mut violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    // Replica divergence after full heal and quiescence is lasting damage.
    let tree_a = cluster.tree_of(a);
    if tree_a != tree_v {
        violations.push(Violation::new(
            ViolationKind::DataCorruption,
            format!(
                "replica trees diverge after heal: leader has {} znodes, learner {}",
                tree_a.len(),
                tree_v.len()
            ),
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// redis #3899 (PSYNC2)-style: a partition interrupts a chunked storage
/// sync; the flawed learner already claims the target zxid, so the half
/// tree is never repaired — permanent corruption with the paper's §5.2
/// *bounded* timing (the fault must overlap the internal sync operation).
pub fn sync_interrupted_corruption(flaws: CoordFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = CoordCluster::build(3, 2, flaws, seed, record);
    // Throttled 2-znode chunks so the transfer spans ~200 ms.
    for &s in &cluster.servers.clone() {
        cluster
            .neat
            .world
            .call(s, |p, _| p.server_mut().chunk_size = 2)
            .expect("server alive"); // lint:allow(unwrap-expect)
    }
    let l = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let others = rest_of(&cluster.servers, &[l]);
    let v = others[1];
    let cl = cluster.client(0);

    // (1) Isolate the victim replica.
    let p1 = cluster
        .neat
        .partition_complete(&[v], &rest_of(&cluster.neat.world.node_ids(), &[v]));
    // (2) Write more data than the in-memory log window holds, forcing the
    // storage-sync (chunked) path on heal.
    for i in 1..=8u64 {
        cl.create(&mut cluster.neat, &format!("/k{i}"), i);
    }
    // (3) Heal: the chunked transfer to the victim begins…
    cluster.neat.heal(&p1);
    cluster.neat.sleep(80);
    // (4) …and a second partition strikes DURING the transfer.
    let p2 = cluster
        .neat
        .partition_complete(&[v], &rest_of(&cluster.neat.world.node_ids(), &[v]));
    cluster.neat.sleep(600);
    cluster.neat.heal(&p2);
    cluster.neat.sleep(1500);

    // Verification: local reads at the victim for every written znode.
    let cl2 = cluster.client(1);
    for i in 1..=8u64 {
        cl2.get_at(&mut cluster.neat, v, &format!("/k{i}"));
    }
    let tree_v = cluster.tree_of(v);
    let final_state: BTreeMap<String, Option<u64>> = (1..=8u64)
        .map(|i| {
            let k = format!("/k{i}");
            let val = tree_v.get(&k).map(|z| z.val);
            (k, val)
        })
        .collect();
    let mut violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    let tree_l = cluster.tree_of(l);
    if tree_l != tree_v {
        violations.push(Violation::new(
            ViolationKind::DataCorruption,
            format!(
                "interrupted sync left the learner with {} of {} znodes, permanently",
                tree_v.len(),
                tree_l.len()
            ),
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// ZOOKEEPER-2355: an expired session's ephemeral znode survives because
/// the cleanup proposal was abandoned while a follower was unreachable.
/// The "lock" stays held by a dead client forever.
pub fn ephemeral_never_deleted(flaws: CoordFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = CoordCluster::build(3, 2, flaws, seed, record);
    let l = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let follower = rest_of(&cluster.servers, &[l])[0];
    let cl1 = cluster.client(0);

    // Client 1 takes the lock.
    cl1.acquire(&mut cluster.neat, "/locks/l1");

    // Partial partition: the lock holder and one follower drop off
    // together (say, a ToR switch failure takes out their rack).
    let p = cluster
        .neat
        .partition_partial(&[cluster.clients[0], follower], &rest_of(&cluster.servers, &[follower]));

    // The session expires during the partition.
    cluster.neat.sleep(1500);
    cluster.neat.heal(&p);
    cluster.neat.sleep(800);

    // Client 2 tries to take the lock the dead session should have freed.
    let cl2 = cluster.client(1);
    let acquired = cl2.acquire(&mut cluster.neat, "/locks/l1");

    let mut violations = Vec::new();
    if !acquired.is_ok() {
        violations.push(Violation::new(
            ViolationKind::BrokenLock,
            "ephemeral lock znode of an expired session was never deleted; \
             the lock is permanently stuck",
        ));
    }
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flawed() -> CoordFlaws {
        CoordFlaws {
            snapshot_skips_log: true,
            skip_ephemeral_cleanup: true,
            apply_chunks_in_place: false,
        }
    }

    #[test]
    fn zk2099_snapshot_log_hole_corrupts_learner() {
        let out = txnlog_sync_corruption(flawed(), 31, false);
        assert!(out.has(ViolationKind::DataCorruption), "{:?}", out.violations);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
        assert!(
            out.has(ViolationKind::ReappearanceOfDeletedData),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn zk2099_clean_without_the_flaw() {
        let out = txnlog_sync_corruption(CoordFlaws::default(), 31, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn interrupted_chunked_sync_corrupts_when_flawed() {
        let flaws = CoordFlaws {
            apply_chunks_in_place: true,
            ..CoordFlaws::default()
        };
        let out = sync_interrupted_corruption(flaws, 57, false);
        assert!(
            out.has(ViolationKind::DataCorruption),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn interrupted_chunked_sync_repairs_when_fixed() {
        let out = sync_interrupted_corruption(CoordFlaws::default(), 57, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn zk2355_ephemeral_survives_dead_session() {
        let out = ephemeral_never_deleted(flawed(), 37, false);
        assert!(out.has(ViolationKind::BrokenLock), "{:?}", out.violations);
    }

    #[test]
    fn zk2355_clean_without_the_flaw() {
        let out = ephemeral_never_deleted(CoordFlaws::default(), 37, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
