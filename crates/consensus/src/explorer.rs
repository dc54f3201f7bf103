//! A [`TestTarget`] adapter for the Raft baseline: the explorer throws
//! random faults and workloads at proven Raft, and the checkers should
//! find nothing — the control arm of the Finding-13 experiment.

use neat::{
    checkers::{check_register, RegisterSemantics},
    explore::{Deployment, EventChoice},
    Neat, Violation,
};
use rand::{rngs::StdRng, Rng};
use simnet::{NodeId, Time};

use crate::{
    cluster::{RaftCluster, RaftClusterSpec, RaftProc},
    raft::RaftTweaks,
};

const KEYS: [&str; 3] = ["k0", "k1", "k2"];

/// Drives a Raft deployment under explorer-generated faults and events.
pub struct RaftTarget {
    spec: RaftClusterSpec,
    cluster: Option<RaftCluster>,
    next_val: u64,
}

impl RaftTarget {
    /// Creates an adapter for a cluster of `servers` Raft nodes.
    pub fn new(tweaks: RaftTweaks, servers: usize) -> Self {
        Self {
            spec: RaftClusterSpec {
                tweaks,
                ..RaftClusterSpec::baseline(servers, 0)
            },
            cluster: None,
            next_val: 0,
        }
    }

    fn cluster(&mut self) -> &mut RaftCluster {
        self.cluster.as_mut().expect("reset() builds the cluster") // lint:allow(unwrap-expect)
    }
}

impl Deployment for RaftTarget {
    type Proc = RaftProc;
    /// The leader and its committed value of each of `KEYS`.
    type View = (NodeId, [Option<u64>; 3]);
    const FAULT_SETTLE_MS: Time = 0;
    const QUIESCE_MS: Time = 3000;

    fn build(&mut self, seed: u64, record: bool) {
        let mut cluster = RaftCluster::build(RaftClusterSpec {
            seed,
            record_trace: record,
            ..self.spec
        });
        cluster.wait_for_leader(3000);
        self.cluster = Some(cluster);
        self.next_val = 0;
    }

    fn neat(&mut self) -> &mut Neat<RaftProc> {
        &mut self.cluster().neat
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.cluster.iter().flat_map(|c| &c.servers).copied().collect()
    }

    fn primary(&mut self) -> Option<NodeId> {
        self.cluster().leader()
    }

    fn events(&self) -> Vec<EventChoice> {
        vec![EventChoice::Write, EventChoice::Read, EventChoice::Delete]
    }

    fn apply(&mut self, ev: EventChoice, rng: &mut StdRng) {
        self.next_val += 1;
        let val = self.next_val;
        let key = KEYS[rng.gen_range(0..3)];
        let cluster = self.cluster();
        let target = cluster
            .leader()
            .unwrap_or(cluster.servers[rng.gen_range(0..cluster.servers.len())]);
        let which = rng.gen_range(0..cluster.clients.len());
        let client = cluster.client(which).via(target);
        match ev {
            EventChoice::Write => {
                client.put(&mut cluster.neat, key, val);
            }
            EventChoice::Read => {
                client.get(&mut cluster.neat, key);
            }
            EventChoice::Delete => {
                client.delete(&mut cluster.neat, key);
            }
            _ => {}
        }
    }

    fn detection_period(&mut self) -> Time {
        let cluster = self.cluster();
        cluster.neat.world.app(cluster.servers[0]).server().election_timeout()
    }

    fn settled_view(&mut self) -> Option<Self::View> {
        let cluster = self.cluster();
        let leader = cluster.leader()?;
        let kv = cluster.kv_of(leader);
        Some((leader, KEYS.map(|k| kv.get(k).copied())))
    }

    fn check(&mut self) -> Vec<Violation> {
        let cluster = self.cluster();
        check_register(
            cluster.neat.history(),
            RegisterSemantics::Strong,
            &cluster.final_state(&KEYS),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{explore, explore_full, Strategy};

    #[test]
    fn proven_raft_survives_guided_exploration() {
        let mut target = RaftTarget::new(RaftTweaks::default(), 3);
        let report = explore(&mut target, &Strategy::findings_guided(), 12, 4242);
        assert_eq!(
            report.trials_with_violation, 0,
            "proven Raft must not produce violations: {report:?}"
        );
    }

    #[test]
    fn proven_raft_stays_clean_when_a_trial_ends_early() {
        // A settled view that counted a leaderless cluster as settled
        // ended one of these trials before a leader was back, and the
        // register checker then read a follower's store: a false DataLoss.
        let mut target = RaftTarget::new(RaftTweaks::default(), 3);
        let ex = explore_full(&mut target, &Strategy::coverage_guided(4), 50, 543);
        assert_eq!(ex.report.trials_with_violation, 0, "{:?}", ex.report);
    }

    #[test]
    fn tweaked_raft_needs_the_admin_event_so_random_ops_stay_clean() {
        // The RethinkDB flaw needs a reconfiguration; the basic palette
        // cannot trigger it, which mirrors the paper's point that admin
        // operations are part of the event space (Table 8).
        let mut target = RaftTarget::new(
            RaftTweaks {
                delete_log_on_remove: true,
            },
            3,
        );
        let report = explore(&mut target, &Strategy::findings_guided(), 6, 4242);
        assert_eq!(report.trials_with_violation, 0, "{report:?}");
    }
}
