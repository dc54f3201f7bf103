//! The RethinkDB reconfiguration failure (issue #5289, §4.4) as a seeded
//! scenario, plus the proven-Raft baseline run of the same sequence.

use std::collections::BTreeMap;

use neat::{
    checkers::{check_register, RegisterSemantics},
    rest_of, RunOutcome, Violation, ViolationKind,
};
use crate::{
    cluster::{RaftCluster, RaftClusterSpec},
    raft::RaftTweaks,
};

/// What the reconfiguration scenario observed beyond its verdicts.
#[derive(Debug)]
pub struct SplitBrain {
    /// Whether two leaders each committed writes during the partition.
    pub dual_majorities: bool,
    /// Final per-key state from the surviving leader.
    pub final_state: BTreeMap<String, Option<u64>>,
}

/// Issue #5289. Five replicas; a partial partition splits `{A, B}` from
/// `{D, E}` while `C` bridges. The admin shrinks the cluster to `{D, E}`;
/// the removed `C` deletes its Raft log (when the tweak is on), forgets the
/// removal, and helps `{A, B}` form a *second* majority in the old
/// configuration. Both sides then commit writes for the same key space.
pub fn rethinkdb_reconfig_split_brain(
    tweaks: RaftTweaks,
    seed: u64,
    record: bool,
) -> RunOutcome<SplitBrain> {
    let mut cluster = RaftCluster::build(RaftClusterSpec {
        servers: 5,
        clients: 2,
        tweaks,
        seed,
        record_trace: record,
    });
    let d = cluster.wait_for_leader(3000).expect("initial leader"); // lint:allow(unwrap-expect)
    let others = rest_of(&cluster.servers, &[d]);
    let (e, c, a, b) = (others[0], others[1], others[2], others[3]);

    // Baseline data everyone has.
    let admin = cluster.client(0).via(d);
    admin.put(&mut cluster.neat, "base", 1);

    // Partial partition: {A, B} | {D, E}; C and the clients bridge.
    let p = cluster.neat.partition_partial(&[a, b], &[d, e]);

    // The admin asks the leader to shrink the replica set to {D, E}.
    admin.reconfigure(&mut cluster.neat, vec![d, e]);
    cluster.neat.sleep(800);

    // Old side: A (or B) campaigns in the old configuration. With the
    // tweak, C's blank log lets it win a 3-of-5 majority.
    cluster.neat.sleep(1200);
    let left_leader = [a, b, c]
        .into_iter()
        .find(|&s| cluster.leaders().contains(&s));

    // Writes on both sides of the partition.
    let left_ok = match left_leader {
        Some(l) => cluster
            .client(0)
            .via(l)
            .put(&mut cluster.neat, "left", 10)
            .is_ok(),
        None => {
            // Still record the attempt so the history shows the outcome.
            !matches!(
                cluster.client(0).via(a).put(&mut cluster.neat, "left", 10),
                neat::Outcome::Fail | neat::Outcome::Timeout
            )
        }
    };
    let right_ok = cluster
        .client(1)
        .via(d)
        .put(&mut cluster.neat, "right", 20)
        .is_ok();
    let dual_majorities = left_ok && right_ok;

    cluster.neat.heal(&p);
    cluster.neat.sleep(3000);

    let final_state = cluster.final_state(&["base", "left", "right"]);
    let violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    cluster.neat.outcome(violations, SplitBrain { dual_majorities, final_state })
}

/// What the lossy-leader-link scenario observed beyond its verdicts.
#[derive(Debug)]
pub struct Churn {
    /// How many terms leadership advanced while the link was degraded.
    pub term_churn: u64,
    /// Final per-key state from the surviving leader.
    pub final_state: BTreeMap<String, Option<u64>>,
}

/// Gray failure §2.1 against proven Raft: the leader's links to both
/// followers lose most of their messages — degraded, never severed. Lost
/// heartbeats fire election timers, lost votes stall the elections they
/// start, and leadership churns term after term; a committed write
/// survives (Raft stays *safe*) but availability collapses. With
/// `lossy = false` the identical sequence runs over clean links and terms
/// stay put.
pub fn lossy_leader_link(lossy: bool, seed: u64, record: bool) -> RunOutcome<Churn> {
    let mut cluster = RaftCluster::build(RaftClusterSpec {
        servers: 3,
        clients: 1,
        tweaks: RaftTweaks::default(),
        seed,
        record_trace: record,
    });
    let leader = cluster.wait_for_leader(3000).expect("initial leader"); // lint:allow(unwrap-expect)
    let followers = rest_of(&cluster.servers, &[leader]);

    let c = cluster.client(0).via(leader);
    c.put(&mut cluster.neat, "stable", 1);

    let term_before = cluster.neat.world.app(leader).server().term();
    let d = lossy.then(|| {
        cluster.neat.degrade(neat::DegradeSpec::Partial {
            a: vec![leader],
            b: followers,
            rule: simnet::DegradeRule::lossy(0.8),
        })
    });

    cluster.neat.sleep(4000);
    let term_churn = cluster
        .servers
        .iter()
        .map(|&s| cluster.neat.world.app(s).server().term())
        .max()
        .unwrap_or(term_before)
        .saturating_sub(term_before);

    if let Some(d) = d {
        cluster.neat.heal_degrade(&d);
    }
    cluster.neat.sleep(2000);
    let after = cluster.leader().unwrap_or(leader);
    cluster.client(0).via(after).put(&mut cluster.neat, "after", 2);

    let final_state = cluster.final_state(&["stable", "after"]);
    let mut violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    if term_churn >= 3 {
        violations.push(Violation::new(
            ViolationKind::Other,
            format!(
                "leadership churned {term_churn} terms under the lossy leader link \
                 (availability degradation, §2.1 flaky link)"
            ),
        ));
    }
    cluster.neat.outcome(violations, Churn { term_churn, final_state })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_leader_link_churns_leadership_but_keeps_data() {
        let out = lossy_leader_link(true, 8, false);
        assert!(out.detail.term_churn >= 3, "only {} terms of churn", out.detail.term_churn);
        assert!(out.has(ViolationKind::Other), "{:?}", out.violations);
        // Raft safety holds: the committed write survives the churn.
        assert_eq!(out.detail.final_state.get("stable"), Some(&Some(1)));
        assert!(!out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn clean_links_keep_leadership_stable() {
        let out = lossy_leader_link(false, 8, false);
        assert!(out.detail.term_churn <= 1, "unexpected churn: {}", out.detail.term_churn);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn tweaked_raft_forms_two_majorities_and_loses_data() {
        let out = rethinkdb_reconfig_split_brain(
            RaftTweaks {
                delete_log_on_remove: true,
            },
            21,
            false,
        );
        assert!(out.detail.dual_majorities, "{:?}", out.detail.final_state);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn proven_raft_stays_safe_under_the_same_sequence() {
        let out = rethinkdb_reconfig_split_brain(RaftTweaks::default(), 21, false);
        assert!(!out.detail.dual_majorities);
        assert!(
            !out.has(ViolationKind::DataLoss),
            "{:?}",
            out.violations
        );
    }
}
