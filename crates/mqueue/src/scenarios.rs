//! The message-queue failures as seeded scenarios.

use coord::CoordFlaws;
use neat::{
    checkers::{check_queue, QueueExpectation},
    rest_of, DegradeSpec, RunOutcome, Violation, ViolationKind,
};
use simnet::DegradeRule;

use crate::{
    autocluster::AcFlaws,
    broker::BrokerFlaws,
    cluster::{AcCluster, MqCluster},
};

/// Figure 6 (AMQ-7064): a partial partition separates the master from the
/// replicas but not from the coordination service. The master cannot
/// replicate; the replicas see a healthy master; the whole system hangs.
pub fn fig6_hang(flaws: BrokerFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = MqCluster::build(3, flaws, CoordFlaws::default(), seed, record);
    let master = cluster.wait_for_master(3000, None).expect("master"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0);

    // Pre-partition traffic works.
    c1.send(&mut cluster.neat, master, "q", 1);

    // Partial partition: master | replicas. Coordinator and clients bridge.
    let replicas = rest_of(&cluster.brokers, &[master]);
    let p = cluster.neat.partition_partial(&[master], &replicas);

    // The producer stalls under the flaw (the consumer path would too once
    // local copies drain, but the producer is the unambiguous signal).
    let send = c1.send(&mut cluster.neat, master, "q", 2);

    // Give a fixed deployment time to fail over, then retry at whoever is
    // master now.
    cluster.neat.sleep(1500);
    let master_now = cluster.master();
    let retried = match master_now {
        Some(m) => c1.send(&mut cluster.neat, m, "q", 3),
        None => neat::Outcome::Timeout,
    };

    cluster.neat.heal(&p);
    cluster.neat.sleep(800);

    let mut violations = Vec::new();
    let hang = !send.is_ok() && !retried.is_ok();
    if hang {
        violations.push(Violation::new(
            ViolationKind::SystemHang,
            "master blocked on replication and no replica took over: every \
             operation timed out although a majority of brokers was healthy",
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// Sleeps until the next flap window of the wanted phase begins, plus a
/// small margin so in-flight deliveries do not straddle the boundary.
/// `lossy = true` targets a degraded window, `false` a quiet one.
pub(crate) fn align_to_flap(cluster: &mut MqCluster, period: u64, lossy: bool) {
    let now = cluster.neat.now();
    let want = if lossy { 0 } else { 1 };
    let mut next = now / period + 1;
    if next % 2 != want {
        next += 1;
    }
    cluster.neat.sleep(next * period - now + 5);
}

/// Gray-failure variant of Figure 6: the links between the master and its
/// replicas *flap* — alternating windows of total loss and perfect health
/// (§2.1 flaky links) — instead of being cut outright. Traffic sent in a
/// quiet window still goes through (no partition detector would fire), but
/// a replication started in a lossy window stalls; with the AMQ-7064 flaw
/// the master blocks forever and the whole system hangs.
pub fn flapping_link_hang(flaws: BrokerFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = MqCluster::build(3, flaws, CoordFlaws::default(), seed, record);
    cluster.neat.op_timeout = 500;
    let master = cluster.wait_for_master(3000, None).expect("master"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0);

    // Pre-fault traffic works.
    c1.send(&mut cluster.neat, master, "q", 1);

    // Flapping degradation: master <-> replicas, total loss during the
    // degraded half-periods, untouched in between. Coordinator and
    // clients are never degraded.
    const FLAP: u64 = 600;
    let replicas = rest_of(&cluster.brokers, &[master]);
    let d = cluster.neat.degrade(DegradeSpec::flapping(
        vec![master],
        replicas,
        DegradeRule::lossy(1.0),
        FLAP,
    ));

    // A quiet window: the degraded link still carries replication, so the
    // fault is invisible to this operation — the gray half of the failure.
    align_to_flap(&mut cluster, FLAP, false);
    let quiet = c1.send(&mut cluster.neat, master, "q", 2);

    // A lossy window: replication stalls. The fixed master times out,
    // steps down, and lets a healthy replica take over; the flawed one
    // blocks forever.
    align_to_flap(&mut cluster, FLAP, true);
    let stalled = c1.send(&mut cluster.neat, master, "q", 3);

    // Give a fixed deployment time to fail over, then retry in a lossy
    // window at whoever is master now: a new master still replicates
    // through its clean link to the third broker.
    cluster.neat.sleep(1500);
    align_to_flap(&mut cluster, FLAP, true);
    let master_now = cluster.master();
    let retried = match master_now {
        Some(m) => c1.send(&mut cluster.neat, m, "q", 4),
        None => neat::Outcome::Timeout,
    };

    cluster.neat.heal_degrade(&d);
    cluster.neat.sleep(800);

    let mut violations = Vec::new();
    if !quiet.is_ok() {
        violations.push(Violation::new(
            ViolationKind::Other,
            "quiet-window send failed although the flapping link was healthy",
        ));
    }
    let hang = !stalled.is_ok() && !retried.is_ok();
    if hang {
        violations.push(Violation::new(
            ViolationKind::SystemHang,
            "master blocked on replication over a flapping link and no \
             replica took over: operations time out although every link is \
             healthy half the time",
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// Listing 2 (AMQ-6978): a complete partition isolates the master with one
/// client; both sides dequeue the same message.
pub fn listing2_double_dequeue(flaws: BrokerFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = MqCluster::build(3, flaws, CoordFlaws::default(), seed, record);
    let master = cluster.wait_for_master(3000, None).expect("master"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0);
    let c2 = cluster.client(1);

    // assertTrue(client1.send(q1, msg1)); assertTrue(client1.send(q1, msg2));
    c1.send(&mut cluster.neat, master, "q1", 1);
    c1.send(&mut cluster.neat, master, "q1", 2);

    // Partition: {master, client1} | rest (replicas, coordinator, client2).
    let minority = [master, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let p = cluster.neat.partition_complete(&minority, &majority);

    // Minority side pops.
    c1.recv(&mut cluster.neat, master, "q1");

    // Majority side fails over once the master's session expires…
    let new_master = cluster.wait_for_master(4000, Some(master));
    // …and pops the same queue.
    if let Some(m) = new_master {
        c2.recv(&mut cluster.neat, m, "q1");
    }

    cluster.neat.heal(&p);
    cluster.neat.sleep(800);

    // Drain whatever remains through the current master.
    let drained = cluster
        .master()
        .map(|m| c2.drain(&mut cluster.neat, m, "q1"));
    let violations = check_queue(
        cluster.neat.history(),
        &[QueueExpectation {
            key: "q1".into(),
            drained: drained.and_then(|(vals, complete)| complete.then_some(vals)),
        }],
    );
    cluster.neat.outcome(violations, ())
}

/// rabbitmq #714: a master demoted while replication is in flight
/// deadlocks and never answers again — even after the partition heals.
pub fn deadlock_on_demotion(flaws: BrokerFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = MqCluster::build(3, flaws, CoordFlaws::default(), seed, record);
    let master = cluster.wait_for_master(3000, None).expect("master"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0);

    // Complete partition: {master, client1} | everyone else.
    let minority = [master, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let p = cluster.neat.partition_complete(&minority, &majority);

    // This replication can never complete; it is in flight at demotion.
    c1.send(&mut cluster.neat, master, "q", 7);

    // The majority fails over.
    cluster.wait_for_master(4000, Some(master));
    cluster.neat.heal(&p);
    cluster.neat.sleep(1500);

    // After healing, the old master learns of the new one and (with the
    // flaw) deadlocks: it never answers anything again.
    let post = c1.send(&mut cluster.neat, master, "q", 8);
    let deadlocked = cluster.neat.world.app(master).broker().deadlocked;

    let mut violations = Vec::new();
    if deadlocked && !post.is_ok() {
        violations.push(Violation::new(
            ViolationKind::SystemHang,
            "old master deadlocked on demotion; it stays dead after the heal",
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// Jepsen-Kafka: with `acks=1`, a message acknowledged by the isolated
/// leader alone disappears when the majority fails over.
pub fn kafka_acked_message_loss(flaws: BrokerFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = MqCluster::build(3, flaws, CoordFlaws::default(), seed, record);
    let master = cluster.wait_for_master(3000, None).expect("master"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0);
    let c2 = cluster.client(1);

    // Fully replicated message before the fault.
    c1.send(&mut cluster.neat, master, "log", 1);
    cluster.neat.sleep(200);

    // Complete partition: {master, client1} | everyone else.
    let minority = [master, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let p = cluster.neat.partition_complete(&minority, &majority);

    // Under acks=1 this is acknowledged although no replica has it.
    c1.send(&mut cluster.neat, master, "log", 2);

    // Majority fails over; heal; the old master rejoins as a replica and
    // adopts the new master's queue state.
    cluster.wait_for_master(4000, Some(master));
    cluster.neat.heal(&p);
    cluster.neat.sleep(1500);

    let drained = cluster
        .master()
        .map(|m| c2.drain(&mut cluster.neat, m, "log"));
    let violations = check_queue(
        cluster.neat.history(),
        &[QueueExpectation {
            key: "log".into(),
            drained: drained.and_then(|(vals, complete)| complete.then_some(vals)),
        }],
    );
    cluster.neat.outcome(violations, ())
}

/// rabbitmq #1455: a partition during peer discovery makes the cut-off
/// brokers form their own cluster; the clusters persist after the heal and
/// messages published to one never reach consumers of the other.
pub fn autocluster_split(flaws: AcFlaws, seed: u64, record: bool) -> RunOutcome {
    let mut cluster = AcCluster::build(4, flaws, seed, record);
    // The partition exists from the start, while discovery runs: brokers
    // {0,1} + client0 vs brokers {2,3} + client1.
    let side_a = [cluster.brokers[0], cluster.brokers[1], cluster.clients[0]];
    let side_b = [cluster.brokers[2], cluster.brokers[3], cluster.clients[1]];
    let p = cluster.neat.partition_complete(&side_a, &side_b);
    cluster.neat.sleep(2000);

    // Both sides accept traffic (the cut-off side only if it, flawed,
    // formed its own cluster).
    let c0 = cluster.client(0);
    let c1 = cluster.client(1);
    c0.send(&mut cluster.neat, cluster.brokers[0], "q", 1);
    c1.send(&mut cluster.neat, cluster.brokers[2], "q", 2);

    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);

    let ids = cluster.cluster_ids();
    let mut violations = Vec::new();
    if ids.len() > 1 {
        violations.push(Violation::new(
            ViolationKind::Other,
            format!(
                "{} independent clusters persist after the partition healed \
                 (lasting damage): ids {ids:?}",
                ids.len()
            ),
        ));
    }
    // Consumers of cluster A never see messages acknowledged by cluster B.
    let drained = c0.drain(&mut cluster.neat, cluster.brokers[0], "q");
    violations.extend(check_queue(
        cluster.neat.history(),
        &[QueueExpectation {
            key: "q".into(),
            drained: drained.1.then_some(drained.0),
        }],
    ));
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_hangs_with_the_flaw() {
        let out = fig6_hang(BrokerFlaws::flawed(), 41, false);
        assert!(out.has(ViolationKind::SystemHang), "{:?}", out.violations);
    }

    #[test]
    fn fig6_fails_over_when_fixed() {
        let out = fig6_hang(BrokerFlaws::fixed(), 41, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn flapping_link_hangs_with_the_flaw() {
        let out = flapping_link_hang(BrokerFlaws::flawed(), 8, false);
        assert!(out.has(ViolationKind::SystemHang), "{:?}", out.violations);
        // The quiet-window send went through: the link was only degraded,
        // never severed.
        assert!(!out.has(ViolationKind::Other), "{:?}", out.violations);
    }

    #[test]
    fn flapping_link_fails_over_when_fixed() {
        let out = flapping_link_hang(BrokerFlaws::fixed(), 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn listing2_double_dequeue_with_the_flaw() {
        let out = listing2_double_dequeue(BrokerFlaws::flawed(), 43, false);
        assert!(out.has(ViolationKind::DoubleDequeue), "{:?}", out.violations);
    }

    #[test]
    fn listing2_clean_when_fixed() {
        let out = listing2_double_dequeue(BrokerFlaws::fixed(), 43, false);
        assert!(
            !out.has(ViolationKind::DoubleDequeue),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn demotion_deadlock_with_the_flaw() {
        let out = deadlock_on_demotion(BrokerFlaws::flawed(), 47, false);
        assert!(out.has(ViolationKind::SystemHang), "{:?}", out.violations);
    }

    #[test]
    fn demotion_clean_when_fixed() {
        let out = deadlock_on_demotion(BrokerFlaws::fixed(), 47, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn kafka_acks_one_loses_acked_messages() {
        let out = kafka_acked_message_loss(BrokerFlaws::kafka_acks_one(), 45, false);
        assert!(out.has(ViolationKind::LostElement), "{:?}", out.violations);
    }

    #[test]
    fn kafka_quorum_acks_keep_messages() {
        let out = kafka_acked_message_loss(BrokerFlaws::fixed(), 45, false);
        assert!(
            !out.has(ViolationKind::LostElement),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn autocluster_splits_with_the_flaw() {
        let out = autocluster_split(
            AcFlaws {
                form_own_cluster_on_silence: true,
            },
            53,
            false,
        );
        assert!(out.has(ViolationKind::Other), "{:?}", out.violations);
        assert!(out.has(ViolationKind::LostElement), "{:?}", out.violations);
    }

    #[test]
    fn autocluster_single_cluster_when_fixed() {
        let out = autocluster_split(
            AcFlaws {
                form_own_cluster_on_silence: false,
            },
            53,
            false,
        );
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }
}
