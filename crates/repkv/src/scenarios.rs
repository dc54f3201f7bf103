//! Reusable reproductions of the paper's primary-backup failures.
//!
//! Every scenario takes the [`Config`] to run under, so the same
//! manifestation sequence can be executed against a flawed profile (where
//! the checkers find the paper's violation) and against [`Config::fixed`]
//! (where they find nothing) — the ablation the benches report.

use std::collections::BTreeMap;

use neat::{
    checkers::{check_counter, check_register, RegisterSemantics},
    rest_of, DegradeSpec, RetryPolicy, RunOutcome, Violation, ViolationKind,
};
use simnet::{DegradeRule, NodeId};

use crate::{
    cluster::{Cluster, ClusterSpec},
    config::Config,
    server::Role,
};

/// What a repkv run observed beyond its verdicts.
#[derive(Debug)]
pub struct KvDetail {
    /// Total elections won across servers (thrash metric).
    pub elections: u64,
    /// The final per-key state used by the register checker.
    pub final_state: BTreeMap<String, Option<u64>>,
}

/// Runs the register checker over `keys`, appends `extra` (the scenario's
/// own verdicts, judged beforehand) and ends the run.
fn finish(cluster: &mut Cluster, keys: &[&str], extra: Vec<Violation>) -> RunOutcome<KvDetail> {
    let final_state = cluster.final_state(keys);
    let mut violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    violations.extend(extra);
    let elections = cluster.total_elections();
    cluster.neat.outcome(violations, KvDetail { elections, final_state })
}

/// The counter checker's verdicts on `"counter"` as `holder` stores it.
pub(crate) fn counter_violations(cluster: &Cluster, holder: NodeId) -> Vec<Violation> {
    let final_counter = cluster.kv_of(holder).get("counter").copied().unwrap_or(0);
    check_counter(cluster.neat.history(), "counter", 0, final_counter)
}

/// Waits (up to 1200 ms) for a server other than `old` to claim
/// leadership — the majority side electing while `old` is cut off.
fn await_rival_leader(cluster: &mut Cluster, old: NodeId) -> Option<NodeId> {
    let rest = rest_of(&cluster.servers, &[old]);
    cluster.neat.wait_until(1200, |neat| {
        rest.iter()
            .copied()
            .find(|&s| neat.world.app(s).server().role() == Role::Leader)
    })
}

fn spec(config: Config, seed: u64, record: bool) -> ClusterSpec {
    ClusterSpec {
        record_trace: record,
        ..ClusterSpec::three_by_two(config, seed)
    }
}

/// Figure 2: a complete partition isolates the master; a write at the old
/// master fails yet stays visible (dirty read), and after the majority
/// elects a new master, the old one still serves the old value (stale read).
pub fn dirty_and_stale_read(mut config: Config, seed: u64, record: bool) -> RunOutcome<KvDetail> {
    // The old master must keep serving through the overlap window — the
    // paper's "period of time in which each partition has a leader".
    config.step_down_rounds = 30;
    let mut cluster = Cluster::build(spec(config, seed, record));
    let old = cluster.wait_for_leader(3000).expect("initial leader"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0).via(old);
    c1.write(&mut cluster.neat, "dirty_key", 10);
    c1.write(&mut cluster.neat, "stale_key", 10);

    // (1) Complete partition: old master + client1 vs the rest + client2.
    let minority = [old, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let p = cluster.neat.partition_complete(&minority, &majority);

    // (2) Write at the old master right after the fault (the paper's timing
    // constraint): replication cannot reach a majority, so it fails.
    c1.write(&mut cluster.neat, "dirty_key", 20);
    // (3) Read at the old master: under the flawed profile this returns 20.
    c1.read(&mut cluster.neat, "dirty_key");

    // Majority side elects a new master, then accepts a write.
    if let Some(new_leader) = await_rival_leader(&mut cluster, old) {
        let c2 = cluster.client(1).via(new_leader);
        c2.write(&mut cluster.neat, "stale_key", 30);
        // Read at the old master while both leaders coexist: it still
        // serves the pre-partition value 10 — a stale read.
        c1.read(&mut cluster.neat, "stale_key");
    }

    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);
    finish(&mut cluster, &["dirty_key", "stale_key"], Vec::new())
}

/// ENG-10486: the longest-log election criterion lets an old minority
/// master with *failed* (uncommitted) writes win the post-heal election and
/// erase the majority's committed write.
pub fn longest_log_data_loss(mut config: Config, seed: u64, record: bool) -> RunOutcome<KvDetail> {
    // The old master must survive as leader until the heal so the two logs
    // meet while its (longer) log is still authoritative.
    config.step_down_rounds = 60;
    let mut cluster = Cluster::build(spec(config, seed, record));
    let old = cluster.wait_for_leader(3000).expect("initial leader"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0).via(old);
    c1.write(&mut cluster.neat, "k1", 1);

    let minority = [old, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let p = cluster.neat.partition_complete(&minority, &majority);

    // Pad the old master's log with writes that fail to replicate.
    c1.write(&mut cluster.neat, "k2", 2);
    c1.write(&mut cluster.neat, "k3", 3);
    c1.write(&mut cluster.neat, "k4", 4);

    // Wait until the majority elects a new master, then commit a write there.
    let new_leader = await_rival_leader(&mut cluster, old)
        .expect("majority side leader"); // lint:allow(unwrap-expect)
    let c2 = cluster.client(1).via(new_leader);
    c2.write(&mut cluster.neat, "k5", 5);

    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);
    finish(&mut cluster, &["k1", "k2", "k3", "k4", "k5"], Vec::new())
}

/// Listing 1: a partial partition with an intersecting bridge node yields
/// two simultaneous leaders; writes succeed on both sides; after healing,
/// the election criterion picks one log and the other side's acknowledged
/// write is lost.
pub fn listing1_data_loss(config: Config, seed: u64, record: bool) -> RunOutcome<KvDetail> {
    let mut cluster = Cluster::build(spec(config, seed, record));
    let s1 = cluster.wait_for_leader(3000).expect("initial leader"); // lint:allow(unwrap-expect)
    let others = rest_of(&cluster.servers, &[s1]);
    let (s2, _s3) = (others[0], others[1]);

    // Partial partition: {primary, client1} | {s2, client2}; s3 bridges.
    let side1 = [s1, cluster.clients[0]];
    let side2 = [s2, cluster.clients[1]];
    let p = cluster.neat.partition_partial(&side1, &side2);

    // sleep(SLEEP_LEADER_ELECTION_PERIOD): s2 elects itself with the bridge
    // node's vote.
    cluster.neat.sleep(600);

    let c1 = cluster.client(0).via(s1);
    let c2 = cluster.client(1).via(s2);
    c1.write(&mut cluster.neat, "obj1", 1);
    c2.write(&mut cluster.neat, "obj2", 2);

    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);

    // Listing 1's verification step: client2 reads both objects.
    let leader = cluster.leader().unwrap_or(s1);
    let c2 = c2.via(leader);
    c2.read(&mut cluster.neat, "obj1");
    c2.read(&mut cluster.neat, "obj2");

    finish(&mut cluster, &["obj1", "obj2"], Vec::new())
}

/// Issue #9967: a simplex partition drops the primary→coordinator
/// direction; the coordinator reports failure although the primary applied
/// and committed the operation. A retried increment executes twice
/// (data corruption), and a "failed" write remains visible (dirty read).
pub fn coordinator_double_execution(
    config: Config,
    seed: u64,
    record: bool,
) -> RunOutcome<KvDetail> {
    let mut cluster = Cluster::build(spec(config, seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let coordinator = rest_of(&cluster.servers, &[leader])[0];

    // Simplex: primary → coordinator replies vanish; everything else flows.
    let p = cluster.neat.partition_simplex(&[leader], &[coordinator]);

    let c1 = cluster.client(0).via(coordinator);
    // The increment "fails" at the coordinator… so the client retries.
    c1.incr(&mut cluster.neat, "counter", 1);
    c1.incr(&mut cluster.neat, "counter", 1);
    // A write that "fails" the same way stays visible to other clients.
    c1.write(&mut cluster.neat, "w", 42);

    cluster.neat.heal(&p);
    cluster.neat.sleep(1500);

    let leader_now = cluster.leader().unwrap_or(leader);
    let c2 = cluster.client(1).via(leader_now);
    c2.read(&mut cluster.neat, "w");

    // Without request routing the operations are refused up front and
    // nothing double-executes; with it, the counter shows the flaw.
    let extra = counter_violations(&cluster, leader_now);
    finish(&mut cluster, &["w"], extra)
}

/// Jepsen-Redis: asynchronous replication acknowledges writes that exist
/// only on the isolated master; failover then rolls them back.
pub fn async_replication_data_loss(
    mut config: Config,
    seed: u64,
    record: bool,
) -> RunOutcome<KvDetail> {
    config.step_down_rounds = 20;
    let mut cluster = Cluster::build(spec(config, seed, record));
    let old = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0).via(old);

    let minority = [old, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let p = cluster.neat.partition_complete(&minority, &majority);

    // Acknowledged instantly under async replication — on the wrong side.
    c1.write(&mut cluster.neat, "k", 1);

    cluster.neat.sleep(600);
    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);
    finish(&mut cluster, &["k"], Vec::new())
}

/// Aerospike [140]-style: the latest-operation-timestamp consolidation
/// criterion lets an old leader whose log merely *contains* a late
/// (failed!) write win the merge — resurrecting a successfully deleted
/// key on the majority side.
pub fn timestamp_consolidation_reappearance(
    mut config: Config,
    seed: u64,
    record: bool,
) -> RunOutcome<KvDetail> {
    config.step_down_rounds = 60; // the old leader survives to the heal
    let mut cluster = Cluster::build(spec(config, seed, record));
    let old = cluster.wait_for_leader(3000).expect("initial leader"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0).via(old);
    // The doomed record, fully replicated.
    c1.write(&mut cluster.neat, "doomed", 1);

    let minority = [old, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let p = cluster.neat.partition_complete(&minority, &majority);

    // The majority elects a new leader and successfully DELETES the record.
    let new_leader = await_rival_leader(&mut cluster, old)
        .expect("majority leader"); // lint:allow(unwrap-expect)
    let c2 = cluster.client(1).via(new_leader);
    c2.delete(&mut cluster.neat, "doomed");

    // Meanwhile the old leader's log gains a LATER timestamp from a write
    // that fails to replicate — enough to win a timestamp-based merge.
    c1.write(&mut cluster.neat, "unrelated", 7);

    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);
    finish(&mut cluster, &["doomed"], Vec::new())
}

/// SERVER-14885: a replica with absolute election priority vetoes every
/// other candidate; isolating it leaves the majority unable to elect a
/// leader at all — total write unavailability.
pub fn priority_livelock(config: Config, seed: u64, record: bool) -> RunOutcome<KvDetail> {
    let mut cluster = Cluster::build(spec(config, seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let rest = rest_of(&cluster.servers, &[leader]);

    let p = cluster
        .neat
        .partition_complete(&[leader], &rest_of(&cluster.neat.world.node_ids(), &[leader, cluster.clients[0]]));

    // Give the majority ample time to elect… which it cannot.
    cluster.neat.sleep(2000);
    let c2 = cluster.client(1).via(rest[0]);
    let w = c2.write(&mut cluster.neat, "k", 1);

    let majority_leader = rest
        .iter()
        .copied()
        .find(|&s| cluster.neat.world.app(s).server().role() == Role::Leader);

    cluster.neat.heal(&p);
    cluster.neat.sleep(2000);

    let mut extra = Vec::new();
    if majority_leader.is_none() && !w.is_ok() {
        extra.push(Violation::new(
            ViolationKind::DataUnavailability,
            "majority side could not elect a leader; writes unavailable for the whole partition",
        ));
    }
    finish(&mut cluster, &[], extra)
}

/// §4.4 MongoDB arbiter thrashing: a partial partition separates the two
/// data replicas while the arbiter reaches both; leadership ping-pongs
/// until the partition heals.
pub fn arbiter_thrashing(mut config: Config, seed: u64, record: bool) -> RunOutcome<KvDetail> {
    // Pre-pv1 MongoDB arbiters vote even while they see a healthy primary.
    config.vote_while_connected_to_leader = true;
    let mut cluster = Cluster::build(ClusterSpec {
        servers: 3,
        clients: 1,
        arbiter: true,
        config,
        seed,
        record_trace: record,
    });
    let a = cluster.data_servers()[0];
    let b = cluster.data_servers()[1];
    cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let elections_before = cluster.total_elections();

    let p = cluster.neat.partition_partial(&[a], &[b]);
    cluster.neat.sleep(4000);
    let thrash = cluster.total_elections() - elections_before;
    cluster.neat.heal(&p);
    cluster.neat.sleep(1500);

    let mut extra = Vec::new();
    if thrash >= 4 {
        extra.push(Violation::new(
            ViolationKind::Other,
            format!(
                "leadership thrashed {thrash} times during the partial partition \
                 (availability degradation, §4.4)"
            ),
        ));
    }
    let mut outcome = finish(&mut cluster, &[], extra);
    outcome.detail.elections = thrash;
    outcome
}

/// Gray failure §2.1: a flapping, totally lossy link strands the client
/// from the leader during its active windows. A fire-and-forget client
/// (`retry = false`) loses every write to the gray window — availability
/// collapses although the cluster itself is healthy; a client retrying
/// with backoff (`retry = true`) rides out the flaps and every write
/// lands. Client-side handling decides the impact.
pub fn gray_lossy_client_writes(retry: bool, seed: u64, record: bool) -> RunOutcome<KvDetail> {
    let mut cluster = Cluster::build(spec(Config::fixed(), seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let c0 = cluster.clients[0];

    // Total loss, flapping with a 600 ms half-period: the link is dead in
    // [1200k, 1200k+600) and healthy in between — the paper's
    // intermittently flaky NIC.
    let flap = 600;
    let d = cluster.neat.degrade(DegradeSpec::flapping(
        vec![c0],
        vec![leader],
        DegradeRule::lossy(1.0),
        flap,
    ));

    // Align to the start of the next degraded window.
    let now = cluster.neat.now();
    cluster.neat.sleep(2 * flap - (now % (2 * flap)) + 5);
    cluster.neat.op_timeout = 150;

    let mut client = cluster.client(0).via(leader);
    if retry {
        client = client.retrying(RetryPolicy::backoff(4, 150, seed));
    }
    let outcomes = [
        client.write(&mut cluster.neat, "gray1", 1),
        client.write(&mut cluster.neat, "gray2", 2),
    ];

    cluster.neat.heal_degrade(&d);
    cluster.neat.op_timeout = 1000;
    cluster.neat.sleep(1000);

    let mut extra = Vec::new();
    if outcomes.iter().all(|o| !o.is_ok()) {
        extra.push(Violation::new(
            ViolationKind::DataUnavailability,
            "every client write was lost to the flapping link; \
             without retries the service is unavailable although the cluster is healthy",
        ));
    }
    finish(&mut cluster, &["gray1", "gray2"], extra)
}

/// Gray failure §2.1, simplex: the leader→client direction silently drops
/// every response while requests still arrive and execute. A client that
/// blindly retries its timed-out *increment* (`retry = true`) executes it
/// once per attempt — the history acknowledges at most one increment, the
/// counter shows three: data corruption. A no-retry client (`retry =
/// false`) leaves one ambiguous timeout, which the checker accepts.
pub fn gray_simplex_retry_double_incr(
    retry: bool,
    seed: u64,
    record: bool,
) -> RunOutcome<KvDetail> {
    let mut cluster = Cluster::build(spec(Config::fixed(), seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let c0 = cluster.clients[0];

    let d = cluster.neat.degrade(DegradeSpec::Simplex {
        src: vec![leader],
        dst: vec![c0],
        rule: DegradeRule::lossy(1.0),
    });

    cluster.neat.op_timeout = 300;
    let mut client = cluster.client(0).via(leader);
    if retry {
        client = client.retrying(RetryPolicy::backoff(3, 100, seed));
    }
    client.incr(&mut cluster.neat, "counter", 5);

    cluster.neat.heal_degrade(&d);
    cluster.neat.op_timeout = 1000;
    cluster.neat.sleep(1000);

    let extra = counter_violations(&cluster, cluster.leader().unwrap_or(leader));
    finish(&mut cluster, &[], extra)
}

/// Gray failure §2.1: a duplicating client→leader link delivers every
/// request twice. A non-idempotent increment (`idempotent = false`)
/// executes twice while the history acknowledges it once — data
/// corruption; an idempotent put (`idempotent = true`) is harmlessly
/// re-applied and the checkers stay quiet.
pub fn gray_duplicating_link_incr(
    idempotent: bool,
    seed: u64,
    record: bool,
) -> RunOutcome<KvDetail> {
    let mut cluster = Cluster::build(spec(Config::fixed(), seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let c0 = cluster.clients[0];

    let d = cluster.neat.degrade(DegradeSpec::Simplex {
        src: vec![c0],
        dst: vec![leader],
        rule: DegradeRule::duplicating(1.0),
    });

    let client = cluster.client(0).via(leader);
    if idempotent {
        client.write(&mut cluster.neat, "dup_key", 7);
    } else {
        client.incr(&mut cluster.neat, "counter", 3);
    }

    cluster.neat.heal_degrade(&d);
    cluster.neat.sleep(1000);

    if idempotent {
        finish(&mut cluster, &["dup_key"], Vec::new())
    } else {
        let extra = counter_violations(&cluster, cluster.leader().unwrap_or(leader));
        finish(&mut cluster, &[], extra)
    }
}

/// Gray failure §2.1: the leader's outbound links degrade to a crawl —
/// not severed, merely slow. Replication acks arrive after the leader's
/// replication timeout; the flawed apply-then-replicate profile answers
/// *failure* while the local apply survives, and the next local read
/// serves the failed value — a dirty read from a link that never dropped
/// a single message. [`Config::fixed`] keeps the outcome ambiguous and
/// applies only after commit, so nothing dirty becomes visible.
pub fn gray_slow_replication_dirty_read(
    mut config: Config,
    seed: u64,
    record: bool,
) -> RunOutcome<KvDetail> {
    // The leader's own heartbeat acks come back late too; it must not step
    // down before serving the read that exposes the dirty value.
    config.step_down_rounds = 30;
    let mut cluster = Cluster::build(spec(config, seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let followers = rest_of(&cluster.servers, &[leader]);

    // 260 ms of extra latency: past the 200 ms replication timeout, but a
    // *constant* shift — heartbeats keep their spacing, so the cluster
    // never suspects a partition.
    let d = cluster.neat.degrade(DegradeSpec::Simplex {
        src: vec![leader],
        dst: followers,
        rule: DegradeRule::slow(260, 0),
    });

    let c1 = cluster.client(0).via(leader);
    c1.write(&mut cluster.neat, "slow_key", 20);
    c1.read(&mut cluster.neat, "slow_key");

    cluster.neat.heal_degrade(&d);
    cluster.neat.sleep(2000);
    finish(&mut cluster, &["slow_key"], Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_dirty_and_stale_reads_on_voltdb_profile() {
        let out = dirty_and_stale_read(Config::voltdb(), 7, false);
        assert!(out.has(ViolationKind::DirtyRead), "{:?}", out.violations);
        assert!(out.has(ViolationKind::StaleRead), "{:?}", out.violations);
    }

    #[test]
    fn figure2_clean_on_fixed_profile() {
        let out = dirty_and_stale_read(Config::fixed(), 7, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn mongodb_profile_also_shows_stale_reads() {
        let out = dirty_and_stale_read(Config::mongodb(), 11, false);
        assert!(out.has(ViolationKind::StaleRead), "{:?}", out.violations);
    }

    #[test]
    fn longest_log_erases_committed_write() {
        let out = longest_log_data_loss(Config::voltdb(), 5, false);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
        // Specifically, the majority's k5 must be the casualty.
        assert_eq!(out.detail.final_state.get("k5"), Some(&None));
    }

    #[test]
    fn longest_log_scenario_clean_on_fixed_profile() {
        let out = longest_log_data_loss(Config::fixed(), 5, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn listing1_loses_one_side_on_elasticsearch_profile() {
        let out = listing1_data_loss(Config::elasticsearch(), 3, false);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn listing1_clean_on_fixed_profile() {
        let out = listing1_data_loss(Config::fixed(), 3, false);
        assert!(
            !out.has(ViolationKind::DataLoss),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn coordinator_retry_double_executes() {
        let out = coordinator_double_execution(Config::elasticsearch(), 8, false);
        assert!(
            out.has(ViolationKind::DataCorruption),
            "{:?}",
            out.violations
        );
        assert!(out.has(ViolationKind::DirtyRead), "{:?}", out.violations);
    }

    #[test]
    fn coordinator_scenario_clean_on_fixed_profile() {
        let out = coordinator_double_execution(Config::fixed(), 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn async_replication_loses_acked_write() {
        let out = async_replication_data_loss(Config::redis(), 13, false);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn sync_replication_does_not_lose_the_write() {
        let out = async_replication_data_loss(Config::fixed(), 13, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn timestamp_merge_resurrects_deleted_data() {
        let out = timestamp_consolidation_reappearance(Config::mongodb(), 23, false);
        assert!(
            out.has(ViolationKind::ReappearanceOfDeletedData),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn term_based_merge_keeps_the_delete() {
        let out = timestamp_consolidation_reappearance(Config::fixed(), 23, false);
        assert!(
            !out.has(ViolationKind::ReappearanceOfDeletedData),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn priority_veto_causes_unavailability() {
        let out = priority_livelock(Config::mongodb_with_priority(0), 17, false);
        assert!(
            out.has(ViolationKind::DataUnavailability),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn no_priority_no_unavailability() {
        let out = priority_livelock(Config::mongodb(), 17, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn arbiter_thrashing_under_partial_partition() {
        let out = arbiter_thrashing(Config::mongodb(), 19, false);
        assert!(out.detail.elections >= 4, "only {} elections", out.detail.elections);
        assert!(out.has(ViolationKind::Other));
    }

    #[test]
    fn flapping_link_strands_the_no_retry_client() {
        let out = gray_lossy_client_writes(false, 8, false);
        assert!(
            out.has(ViolationKind::DataUnavailability),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn backoff_retries_ride_out_the_flapping_link() {
        let out = gray_lossy_client_writes(true, 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        // The retried writes actually landed.
        assert_eq!(out.detail.final_state.get("gray1"), Some(&Some(1)));
        assert_eq!(out.detail.final_state.get("gray2"), Some(&Some(2)));
    }

    #[test]
    fn blind_retry_of_increment_double_executes() {
        let out = gray_simplex_retry_double_incr(true, 8, false);
        assert!(
            out.has(ViolationKind::DataCorruption),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn single_ambiguous_timeout_is_not_corruption() {
        let out = gray_simplex_retry_double_incr(false, 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn duplicating_link_corrupts_the_counter() {
        let out = gray_duplicating_link_incr(false, 8, false);
        assert!(
            out.has(ViolationKind::DataCorruption),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn idempotent_puts_tolerate_duplication() {
        let out = gray_duplicating_link_incr(true, 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.detail.final_state.get("dup_key"), Some(&Some(7)));
    }

    #[test]
    fn slow_replication_dirty_read_on_voltdb_profile() {
        let out = gray_slow_replication_dirty_read(Config::voltdb(), 8, false);
        assert!(out.has(ViolationKind::DirtyRead), "{:?}", out.violations);
    }

    #[test]
    fn slow_replication_clean_on_fixed_profile() {
        let out = gray_slow_replication_dirty_read(Config::fixed(), 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn no_thrashing_without_the_connected_vote_flaw() {
        // With the veto in place the arbiter refuses to elect a second
        // leader while the current one is healthy.
        let mut cfg = Config::fixed();
        cfg.vote_while_connected_to_leader = false;
        let mut cluster = Cluster::build(ClusterSpec {
            servers: 3,
            clients: 1,
            arbiter: true,
            config: cfg,
            seed: 19,
            record_trace: false,
        });
        let a = cluster.data_servers()[0];
        let b = cluster.data_servers()[1];
        cluster.wait_for_leader(3000).expect("leader");
        let before = cluster.total_elections();
        let p = cluster.neat.partition_partial(&[a], &[b]);
        cluster.neat.sleep(4000);
        let thrash = cluster.total_elections() - before;
        cluster.neat.heal(&p);
        assert!(thrash <= 2, "unexpected thrashing: {thrash}");
    }
}
