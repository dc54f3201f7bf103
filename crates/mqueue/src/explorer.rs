//! A [`TestTarget`] adapter for the coordinator-mode message queue: the
//! explorer drives enqueue/dequeue workloads against master/replica
//! brokers whose mastership lives in the embedded coordination ensemble —
//! the architecture behind the paper's ActiveMQ and RabbitMQ failures.

use coord::CoordFlaws;
use neat::{
    audit::FingerHasher,
    checkers::{check_queue, QueueExpectation},
    explore::{Deployment, EventChoice},
    Neat, Violation,
};
use rand::{rngs::StdRng, Rng};
use simnet::{NodeId, Time};

use crate::{
    broker::BrokerFlaws,
    cluster::{MqCluster, MqProc},
};

/// The queue every explorer event targets.
const QUEUE: &str = "q";

/// Drives a three-broker coordinator-mode deployment under
/// explorer-generated faults and events.
pub struct MqTarget {
    flaws: BrokerFlaws,
    cluster: Option<MqCluster>,
    next_val: u64,
}

impl MqTarget {
    /// Creates an adapter running brokers with `flaws`.
    pub fn new(flaws: BrokerFlaws) -> Self {
        Self {
            flaws,
            cluster: None,
            next_val: 0,
        }
    }

    fn cluster(&mut self) -> &mut MqCluster {
        self.cluster.as_mut().expect("reset() builds the cluster") // lint:allow(unwrap-expect)
    }
}

impl Deployment for MqTarget {
    type Proc = MqProc;
    /// The master and a digest of its copy of [`QUEUE`].
    type View = (NodeId, u64);
    /// Lets mastership churn past the coordination session timeout, as
    /// the hand-written scenarios do.
    const FAULT_SETTLE_MS: Time = 600;
    const QUIESCE_MS: Time = 2500;

    fn build(&mut self, seed: u64, record: bool) {
        let mut cluster = MqCluster::build(3, self.flaws, CoordFlaws::default(), seed, record);
        cluster.wait_for_master(3000, None);
        self.cluster = Some(cluster);
        self.next_val = 0;
    }

    fn neat(&mut self) -> &mut Neat<MqProc> {
        &mut self.cluster().neat
    }

    /// Coordinator plus brokers: the paper's queue failures all hinge on
    /// splitting a master away from the coordination ensemble, so the
    /// coord node must be partitionable.
    fn nodes(&self) -> Vec<NodeId> {
        self.cluster
            .iter()
            .flat_map(|c| std::iter::once(c.coord).chain(c.brokers.iter().copied()))
            .collect()
    }

    fn primary(&mut self) -> Option<NodeId> {
        self.cluster().master()
    }

    fn events(&self) -> Vec<EventChoice> {
        vec![EventChoice::Enqueue, EventChoice::Dequeue]
    }

    fn apply(&mut self, ev: EventChoice, rng: &mut StdRng) {
        self.next_val += 1;
        let val = self.next_val;
        let cluster = self.cluster();
        // Clients talk to the broker they believe is master — under a
        // partition the two clients may disagree, which is the point.
        let broker = cluster
            .master()
            .unwrap_or(cluster.brokers[rng.gen_range(0..cluster.brokers.len())]);
        let which = rng.gen_range(0..cluster.clients.len());
        let client = cluster.client(which);
        match ev {
            EventChoice::Enqueue => {
                client.send(&mut cluster.neat, broker, QUEUE, val);
            }
            EventChoice::Dequeue => {
                client.recv(&mut cluster.neat, broker, QUEUE);
            }
            _ => {}
        }
    }

    fn detection_period(&mut self) -> Time {
        let cluster = self.cluster();
        cluster.neat.world.app(cluster.coord).coord().session_timeout()
    }

    fn settled_view(&mut self) -> Option<Self::View> {
        let cluster = self.cluster();
        let master = cluster.master()?;
        let mut digest = FingerHasher::new();
        for val in cluster.neat.world.app(master).broker().queue_iter(QUEUE) {
            digest.write_bytes(&val.to_le_bytes());
        }
        Some((master, digest.finish()))
    }

    fn check(&mut self) -> Vec<Violation> {
        let cluster = self.cluster();
        // Drain through the settled master so the checker knows the final
        // queue contents; an incomplete drain leaves `drained: None`.
        let drained = cluster.master().map(|m| {
            let c = cluster.client(0);
            c.drain(&mut cluster.neat, m, QUEUE)
        });
        check_queue(
            cluster.neat.history(),
            &[QueueExpectation {
                key: QUEUE.into(),
                drained: drained.and_then(|(vals, complete)| complete.then_some(vals)),
            }],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{explore, Strategy, TestTarget};

    #[test]
    fn exploration_finds_bugs_in_the_flawed_brokers() {
        let mut target = MqTarget::new(BrokerFlaws::flawed());
        let report = explore(&mut target, &Strategy::coverage_guided(3), 25, 1);
        assert!(
            report.trials_with_violation > 0,
            "coverage exploration should hit the broker flaws: {report:?}"
        );
        assert!(
            report.kinds.contains_key(&neat::ViolationKind::DoubleDequeue),
            "{report:?}"
        );
    }

    #[test]
    fn fixed_brokers_survive_exploration() {
        let mut target = MqTarget::new(BrokerFlaws::fixed());
        let report = explore(&mut target, &Strategy::findings_guided(), 10, 7);
        assert_eq!(
            report.trials_with_violation, 0,
            "fixed brokers must stay clean: {report:?}"
        );
    }

    #[test]
    fn target_resets_cleanly_between_trials() {
        let mut target = MqTarget::new(BrokerFlaws::fixed());
        target.reset(1, false);
        assert_eq!(target.servers().len(), 4, "coord + three brokers");
        assert!(target.leader().is_some());
        target.reset(2, true);
        assert_eq!(target.servers().len(), 4);
    }
}
