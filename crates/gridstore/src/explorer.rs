//! A [`TestTarget`] adapter for the data grid, giving the NEAT explorer
//! the full Table 8 event palette — including lock acquire/release and
//! enqueue/dequeue — against the flawed or protected membership layer.

use neat::{
    checkers::{check_counter, check_queue, check_semaphore, QueueExpectation},
    explore::{Deployment, EventChoice},
    Neat, Violation,
};
use rand::{rngs::StdRng, Rng};
use simnet::{NodeId, Time};

use crate::{
    cluster::{GridCluster, GridProc},
    node::GridFlaws,
};

/// Drives a three-server, two-client grid deployment under
/// explorer-generated faults and events.
pub struct GridTarget {
    flaws: GridFlaws,
    cluster: Option<GridCluster>,
    next_val: u64,
}

impl GridTarget {
    /// Creates an adapter running under `flaws`.
    pub fn new(flaws: GridFlaws) -> Self {
        Self {
            flaws,
            cluster: None,
            next_val: 0,
        }
    }

    fn cluster(&mut self) -> &mut GridCluster {
        self.cluster.as_mut().expect("reset() builds the cluster") // lint:allow(unwrap-expect)
    }
}

impl Deployment for GridTarget {
    type Proc = GridProc;
    /// The counter `check` reads off `servers[1]`.
    type View = u64;
    /// Gives the membership layer time to diverge (or pause), as the
    /// paper's tests sleep past the detection period.
    const FAULT_SETTLE_MS: Time = 600;
    const QUIESCE_MS: Time = 2500;

    fn build(&mut self, seed: u64, record: bool) {
        let mut cluster = GridCluster::build(3, 2, self.flaws, seed, record);
        cluster.neat.sleep(200);
        let c0 = cluster.client(0);
        c0.sem_create(&mut cluster.neat, "sem", 1);
        cluster.neat.sleep(200);
        self.cluster = Some(cluster);
        self.next_val = 0;
    }

    fn neat(&mut self) -> &mut Neat<GridProc> {
        &mut self.cluster().neat
    }

    fn nodes(&self) -> Vec<NodeId> {
        self.cluster.iter().flat_map(|c| &c.servers).copied().collect()
    }

    /// The structure primary is the lowest live member; surfaced so the
    /// guided strategy can isolate it.
    fn primary(&mut self) -> Option<NodeId> {
        let cluster = self.cluster();
        let world = &cluster.neat.world;
        let s = cluster.servers.iter().copied().find(|&s| world.is_alive(s))?;
        Some(world.app(s).server().primary())
    }

    fn events(&self) -> Vec<EventChoice> {
        vec![
            EventChoice::Write,
            EventChoice::Read,
            EventChoice::Acquire,
            EventChoice::Release,
            EventChoice::Enqueue,
            EventChoice::Dequeue,
        ]
    }

    fn apply(&mut self, ev: EventChoice, rng: &mut StdRng) {
        self.next_val += 1;
        let val = self.next_val;
        let cluster = self.cluster();
        // Clients stay attached to their home server, like real grid
        // clients; ops route to the primary internally.
        let client = cluster.client(rng.gen_range(0..cluster.clients.len()));
        match ev {
            EventChoice::Write => {
                client.incr(&mut cluster.neat, "ctr", 1);
            }
            EventChoice::Read => {
                client.get(&mut cluster.neat, "k");
            }
            EventChoice::Acquire => {
                client.acquire(&mut cluster.neat, "sem");
            }
            EventChoice::Release => {
                client.release(&mut cluster.neat, "sem");
            }
            EventChoice::Enqueue => {
                client.enq(&mut cluster.neat, "q", val);
            }
            EventChoice::Dequeue => {
                client.deq(&mut cluster.neat, "q");
            }
            _ => {}
        }
    }

    fn detection_period(&mut self) -> Time {
        let cluster = self.cluster();
        cluster.neat.world.app(cluster.servers[0]).server().suspect_after()
    }

    fn settled_view(&mut self) -> Option<u64> {
        let cluster = self.cluster();
        Some(final_ctr(cluster))
    }

    fn check(&mut self) -> Vec<Violation> {
        let cluster = self.cluster();
        let mut violations = check_semaphore(cluster.neat.history(), "sem", 1);
        violations.extend(check_queue(
            cluster.neat.history(),
            &[QueueExpectation {
                key: "q".into(),
                drained: None,
            }],
        ));
        violations.extend(check_counter(cluster.neat.history(), "ctr", 0, final_ctr(cluster)));
        violations
    }
}

/// `servers[1]`'s value of the counter every `Write` increments.
fn final_ctr(cluster: &GridCluster) -> u64 {
    let server = cluster.neat.world.app(cluster.servers[1]).server();
    server.state().atomics.get("ctr").copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{explore, Strategy};

    #[test]
    fn guided_exploration_breaks_the_flawed_grid() {
        let mut target = GridTarget::new(GridFlaws::flawed());
        let report = explore(&mut target, &Strategy::findings_guided(), 15, 31);
        assert!(
            report.trials_with_violation > 0,
            "guided exploration should hit the membership flaws: {report:?}"
        );
    }

    #[test]
    fn protected_grid_survives_guided_exploration() {
        let mut target = GridTarget::new(GridFlaws::fixed());
        let report = explore(&mut target, &Strategy::findings_guided(), 15, 31);
        assert_eq!(
            report.trials_with_violation, 0,
            "the protected grid must stay clean: {report:?}"
        );
    }
}
