//! Raft cluster assembly and inspection helpers.

use std::collections::BTreeMap;

use neat::{
    cluster::{boot, Mailbox},
    Neat,
};
use simnet::NodeId;

use crate::{
    client::RaftClient,
    raft::{RaftMsg, RaftNode, RaftResp, RaftRole, RaftTweaks},
};

neat::roles! {
    /// A node of the Raft deployment.
    pub enum RaftProc: RaftMsg {
        Server(RaftNode) => server / server_mut,
        Client(Mailbox<RaftResp>) => client / client_mut,
    }
}

fn leaders_of<'a>(
    neat: &'a Neat<RaftProc>,
    servers: &'a [NodeId],
) -> impl Iterator<Item = NodeId> + 'a {
    let world = &neat.world;
    servers
        .iter()
        .copied()
        .filter(|&s| world.is_alive(s) && world.app(s).server().role() == RaftRole::Leader)
}

fn leader_of(neat: &Neat<RaftProc>, servers: &[NodeId]) -> Option<NodeId> {
    leaders_of(neat, servers).max_by_key(|&s| neat.world.app(s).server().term())
}

/// Deployment shape for a Raft cluster.
#[derive(Clone, Copy, Debug)]
pub struct RaftClusterSpec {
    pub servers: usize,
    pub clients: usize,
    pub tweaks: RaftTweaks,
    pub seed: u64,
    pub record_trace: bool,
}

impl RaftClusterSpec {
    /// `n` servers, two clients, no tweaks.
    pub fn baseline(servers: usize, seed: u64) -> Self {
        Self {
            servers,
            clients: 2,
            tweaks: RaftTweaks::default(),
            seed,
            record_trace: false,
        }
    }
}

/// A running Raft deployment under the NEAT engine.
pub struct RaftCluster {
    pub neat: Neat<RaftProc>,
    pub servers: Vec<NodeId>,
    pub clients: Vec<NodeId>,
}

impl RaftCluster {
    /// Builds and boots the deployment.
    pub fn build(spec: RaftClusterSpec) -> Self {
        let servers: Vec<NodeId> = (0..spec.servers).map(NodeId).collect();
        let clients: Vec<NodeId> = (spec.servers..spec.servers + spec.clients)
            .map(NodeId)
            .collect();
        let neat = boot(spec.seed, spec.record_trace, spec.servers + spec.clients, |id| {
            if id.0 < spec.servers {
                RaftProc::Server(RaftNode::new(id, servers.clone(), spec.tweaks))
            } else {
                RaftProc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            servers,
            clients,
        }
    }

    /// Client handle `i`, initially pointed at server 0.
    pub fn client(&self, i: usize) -> RaftClient {
        RaftClient {
            node: self.clients[i],
            target: self.servers[0],
        }
    }

    /// All live nodes currently claiming leadership.
    pub fn leaders(&self) -> Vec<NodeId> {
        leaders_of(&self.neat, &self.servers).collect()
    }

    /// The live leader with the highest term, if any.
    pub fn leader(&self) -> Option<NodeId> {
        leader_of(&self.neat, &self.servers)
    }

    /// Runs until a leader exists or `max_ms` elapses.
    pub fn wait_for_leader(&mut self, max_ms: u64) -> Option<NodeId> {
        let servers = &self.servers;
        self.neat.wait_until(max_ms, |neat| leader_of(neat, servers))
    }

    /// A server's committed KV state.
    pub fn kv_of(&self, server: NodeId) -> &BTreeMap<String, u64> {
        self.neat.world.app(server).server().kv()
    }

    /// Final state of `keys` from the highest-term leader's committed store.
    pub fn final_state(&self, keys: &[&str]) -> BTreeMap<String, Option<u64>> {
        let leader = self.leader().unwrap_or(self.servers[0]);
        let kv = self.kv_of(leader);
        keys.iter()
            .map(|k| (k.to_string(), kv.get(*k).copied()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::{rest_of, Outcome};

    fn cluster(n: usize, seed: u64) -> RaftCluster {
        RaftCluster::build(RaftClusterSpec::baseline(n, seed))
    }

    #[test]
    fn elects_a_leader() {
        let mut c = cluster(3, 1);
        assert!(c.wait_for_leader(2000).is_some());
    }

    #[test]
    fn five_node_cluster_elects_a_leader() {
        let mut c = cluster(5, 2);
        assert!(c.wait_for_leader(2000).is_some());
    }

    #[test]
    fn put_get_round_trip() {
        let mut c = cluster(3, 3);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0).via(l);
        assert_eq!(cl.put(&mut c.neat, "x", 1), Outcome::Ok(None));
        assert_eq!(cl.get(&mut c.neat, "x"), Outcome::Ok(Some(1)));
    }

    #[test]
    fn committed_entries_replicate_everywhere() {
        let mut c = cluster(3, 4);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0).via(l);
        cl.put(&mut c.neat, "x", 1);
        c.neat.sleep(500);
        for s in c.servers.clone() {
            assert_eq!(c.kv_of(s).get("x"), Some(&1), "{s}");
        }
    }

    #[test]
    fn at_most_one_leader_per_term() {
        let mut c = cluster(5, 5);
        c.wait_for_leader(2000).unwrap();
        for round in 0..10 {
            c.neat.sleep(200);
            let mut terms = std::collections::BTreeMap::new();
            for &s in &c.servers {
                let sv = c.neat.world.app(s).server();
                if sv.role() == RaftRole::Leader {
                    let prev = terms.insert(sv.term(), s);
                    assert!(prev.is_none(), "two leaders in term {} (round {round})", sv.term());
                }
            }
        }
    }

    #[test]
    fn leader_crash_triggers_failover_without_losing_writes() {
        let mut c = cluster(3, 6);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0).via(l);
        assert!(cl.put(&mut c.neat, "x", 1).is_ok());
        c.neat.crash(&[l]);
        let l2 = c.wait_for_leader(3000).expect("failover leader");
        assert_ne!(l, l2);
        let cl2 = c.client(1).via(l2);
        assert_eq!(cl2.get(&mut c.neat, "x"), Outcome::Ok(Some(1)));
    }

    #[test]
    fn minority_partitioned_leader_cannot_commit() {
        let mut c = cluster(3, 7);
        let l = c.wait_for_leader(2000).unwrap();
        let rest = rest_of(&c.servers, &[l]);
        // Leave the client connected to the old leader only.
        c.neat
            .partition_complete(&[l, c.clients[0]], &rest_of(&c.neat.world.node_ids(), &[l, c.clients[0]]));
        let cl = c.client(0).via(l);
        let w = cl.put(&mut c.neat, "x", 9);
        assert!(
            !w.is_ok(),
            "a minority leader must not acknowledge writes: {w:?}"
        );
        // The majority side elects and serves.
        c.neat.sleep(1000);
        let l2 = c.leader().expect("majority leader");
        assert!(rest.contains(&l2));
    }

    #[test]
    fn stale_leader_reads_are_refused_after_lease_expiry() {
        let mut c = cluster(3, 8);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0).via(l);
        cl.put(&mut c.neat, "x", 1);
        c.neat.partition_complete(
            &[l, c.clients[0]],
            &rest_of(&c.neat.world.node_ids(), &[l, c.clients[0]]),
        );
        // Let the lease lapse, then read at the old leader.
        c.neat.sleep(400);
        let r = cl.get(&mut c.neat, "x");
        assert!(!matches!(r, Outcome::Ok(_)), "stale read served: {r:?}");
    }

    #[test]
    fn divergent_follower_log_is_repaired() {
        let mut c = cluster(3, 9);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0).via(l);
        cl.put(&mut c.neat, "a", 1);
        // Isolate the leader with the client; it appends uncommitted junk.
        let p = c.neat.partition_complete(
            &[l, c.clients[0]],
            &rest_of(&c.neat.world.node_ids(), &[l, c.clients[0]]),
        );
        cl.put(&mut c.neat, "junk", 99); // times out, stays uncommitted
        c.neat.sleep(800);
        let l2 = c.leader().expect("new leader");
        assert_ne!(l, l2);
        let cl2 = c.client(1).via(l2);
        cl2.put(&mut c.neat, "b", 2);
        c.neat.heal(&p);
        c.neat.sleep(1500);
        // The old leader's junk must be gone; committed writes survive.
        for s in c.servers.clone() {
            let kv = c.kv_of(s);
            assert_eq!(kv.get("a"), Some(&1), "{s}");
            assert_eq!(kv.get("b"), Some(&2), "{s}");
            assert_eq!(kv.get("junk"), None, "{s} kept uncommitted junk");
        }
    }

    #[test]
    fn reconfigure_shrinks_the_cluster() {
        let mut c = cluster(5, 10);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0).via(l);
        let others = rest_of(&c.servers, &[l]);
        let new_members = vec![l, others[0], others[1]];
        assert!(cl.reconfigure(&mut c.neat, new_members.clone()).is_ok());
        c.neat.sleep(500);
        let mut got = c.neat.world.app(l).server().members();
        got.sort();
        let mut want = new_members;
        want.sort();
        assert_eq!(got, want);
        // Removed members retired (baseline behaviour keeps their logs).
        for s in [others[2], others[3]] {
            assert!(c.neat.world.app(s).server().removed, "{s} not retired");
        }
    }
}
