//! A [`TestTarget`] adapter so the NEAT explorer can auto-generate
//! workloads and faults against the replicated KV store (§8.1).

use neat::{
    checkers::{check_register, RegisterSemantics},
    explore::{Deployment, EventChoice},
    Neat, Violation,
};
use rand::{rngs::StdRng, Rng};
use simnet::{NodeId, Time};

use crate::{
    cluster::{Cluster, ClusterSpec, Proc},
    config::Config,
};

const KEYS: [&str; 3] = ["k0", "k1", "k2"];

/// Drives a three-server, two-client deployment of the replicated KV store
/// under explorer-generated faults and events.
pub struct RepkvTarget {
    config: Config,
    cluster: Option<Cluster>,
    next_val: u64,
}

impl RepkvTarget {
    /// Creates an adapter running `config`.
    pub fn new(config: Config) -> Self {
        Self {
            config,
            cluster: None,
            next_val: 0,
        }
    }

    fn cluster(&mut self) -> &mut Cluster {
        self.cluster.as_mut().expect("reset() builds the cluster") // lint:allow(unwrap-expect)
    }
}

impl Deployment for RepkvTarget {
    type Proc = Proc;
    /// The leader and its applied value of each of `KEYS`.
    type View = (NodeId, [Option<u64>; 3]);
    const FAULT_SETTLE_MS: Time = 0;
    const QUIESCE_MS: Time = 2500;

    fn build(&mut self, seed: u64, record: bool) {
        let mut spec = ClusterSpec::three_by_two(self.config.clone(), seed);
        spec.record_trace = record;
        let mut cluster = Cluster::build(spec);
        cluster.wait_for_leader(3000);
        self.cluster = Some(cluster);
        self.next_val = 0;
    }

    fn neat(&mut self) -> &mut Neat<Proc> {
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
        // Clients target the leader when one is visible, else any server —
        // the way real test clients discover primaries.
        let target = cluster
            .leader()
            .unwrap_or(cluster.servers[rng.gen_range(0..cluster.servers.len())]);
        let which = rng.gen_range(0..cluster.clients.len());
        let client = cluster.client(which).via(target);
        match ev {
            EventChoice::Write => {
                client.write(&mut cluster.neat, key, val);
            }
            EventChoice::Read => {
                client.read(&mut cluster.neat, key);
            }
            EventChoice::Delete => {
                client.delete(&mut cluster.neat, key);
            }
            _ => {}
        }
    }

    fn detection_period(&mut self) -> Time {
        crate::server::ELECTION_TIMEOUT
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
    use neat::explore::{explore, explore_full, Strategy, TestTarget};
    use neat::{PartitionKind, PartitionSpec, ViolationKind};

    #[test]
    fn guided_exploration_finds_bugs_in_the_flawed_profile() {
        let mut target = RepkvTarget::new(Config::voltdb());
        let report = explore(&mut target, &Strategy::findings_guided(), 12, 2024);
        assert!(
            report.trials_with_violation > 0,
            "guided exploration should hit the VoltDB flaws: {report:?}"
        );
    }

    #[test]
    fn ending_trials_once_settled_keeps_every_corruption_find() {
        // The counts of the fixed 2,500 ms quiesce. A settle window of
        // 1.5 election timeouts ended some of these trials before the
        // corrupted value reached the leader's store, and lost finds.
        use ViolationKind::{DataCorruption, DataLoss};
        let expected = [
            (1143, 6, vec![(DataLoss, 1), (DataCorruption, 5)]),
            (100_624, 7, vec![(DataCorruption, 7)]),
        ];
        let mut target = RepkvTarget::new(Config::voltdb());
        for (seed, trials, kinds) in expected {
            let ex = explore_full(&mut target, &Strategy::coverage_guided(4), 50, seed);
            assert_eq!(ex.report.trials_with_violation, trials, "seed {seed}");
            assert_eq!(ex.report.kinds, kinds.into_iter().collect(), "seed {seed}");
        }
    }

    #[test]
    fn target_resets_cleanly_between_trials() {
        let mut target = RepkvTarget::new(Config::fixed());
        target.reset(1, false);
        assert_eq!(target.servers().len(), 3);
        assert!(target.leader().is_some());
        target.reset(2, false);
        assert_eq!(target.servers().len(), 3);
    }

    #[test]
    fn recorded_reset_yields_a_live_timeline() {
        let mut target = RepkvTarget::new(Config::fixed());
        target.reset(3, true);
        let servers = target.servers();
        target.inject(&PartitionSpec::isolating(PartitionKind::Complete, servers[0], &servers));
        target.finish_and_check();
        let timeline = target.timeline();
        assert_eq!(
            timeline.fault_windows().len(),
            1,
            "recorded timeline must carry the partition window"
        );
    }
}
