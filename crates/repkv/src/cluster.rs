//! Cluster assembly: the process enum, builder, and inspection helpers.

use std::collections::BTreeMap;
use std::sync::Arc;

use neat::{
    cluster::{boot, Mailbox},
    Neat, RetryPolicy,
};
use simnet::NodeId;

use crate::{
    client::KvClient,
    config::Config,
    msg::{Msg, Resp},
    server::{Role, Server},
};

neat::roles! {
    /// A node of the replicated KV deployment: replica server or client.
    pub enum Proc: Msg {
        Server(Server) => server / server_mut,
        Client(Mailbox<Resp>) => client / client_mut,
    }
}

fn leader_of(neat: &Neat<Proc>, servers: &[NodeId]) -> Option<NodeId> {
    let world = &neat.world;
    servers
        .iter()
        .copied()
        .filter(|&s| world.is_alive(s) && world.app(s).server().role() == Role::Leader)
        .max_by_key(|&s| world.app(s).server().term())
}

/// Deployment shape.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of replica servers (including the arbiter, if any).
    pub servers: usize,
    /// Number of client nodes.
    pub clients: usize,
    /// Make the last server a vote-only arbiter.
    pub arbiter: bool,
    pub config: Config,
    pub seed: u64,
    /// Record the full simnet trace (for figure reproductions).
    pub record_trace: bool,
}

impl ClusterSpec {
    /// Three servers, two clients — the paper's canonical test deployment
    /// (Finding 12: 83% of failures reproduce on three nodes).
    pub fn three_by_two(config: Config, seed: u64) -> Self {
        Self {
            servers: 3,
            clients: 2,
            arbiter: false,
            config,
            seed,
            record_trace: false,
        }
    }
}

/// A running deployment of the replicated KV store under the NEAT engine.
pub struct Cluster {
    /// The NEAT test engine around the simulated world.
    pub neat: Neat<Proc>,
    /// Server node ids (arbiter last, when present).
    pub servers: Vec<NodeId>,
    /// The arbiter's node id, if configured.
    pub arbiter: Option<NodeId>,
    /// Client node ids.
    pub clients: Vec<NodeId>,
}

impl Cluster {
    /// Builds and boots the deployment.
    pub fn build(spec: ClusterSpec) -> Self {
        let servers: Vec<NodeId> = (0..spec.servers).map(NodeId).collect();
        let clients: Vec<NodeId> = (spec.servers..spec.servers + spec.clients)
            .map(NodeId)
            .collect();
        let arbiter = spec.arbiter.then(|| servers[spec.servers - 1]);
        let neat = boot(spec.seed, spec.record_trace, spec.servers + spec.clients, |id| {
            if id.0 < spec.servers {
                Proc::Server(Server::new(id, servers.clone(), arbiter, spec.config.clone()))
            } else {
                Proc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            servers,
            arbiter,
            clients,
        }
    }

    /// A client handle for client `i`, initially pointed at server 0.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client(&self, i: usize) -> KvClient {
        KvClient {
            node: self.clients[i],
            target: self.servers[0],
            policy: RetryPolicy::none(),
        }
    }

    /// Data servers (excluding the arbiter).
    pub fn data_servers(&self) -> Vec<NodeId> {
        self.servers
            .iter()
            .copied()
            .filter(|s| Some(*s) != self.arbiter)
            .collect()
    }

    /// The live leader with the highest term, if any.
    pub fn leader(&self) -> Option<NodeId> {
        leader_of(&self.neat, &self.servers)
    }

    /// Runs the cluster until a leader exists or `max_ms` elapses.
    pub fn wait_for_leader(&mut self, max_ms: u64) -> Option<NodeId> {
        let servers = &self.servers;
        self.neat.wait_until(max_ms, |neat| leader_of(neat, servers))
    }

    /// A server's applied key-value state.
    pub fn kv_of(&self, server: NodeId) -> &BTreeMap<Arc<str>, u64> {
        self.neat.world.app(server).server().kv()
    }

    /// The final state of `keys` as stored on the current leader — the
    /// ground truth the register checker compares against. Call after
    /// healing and settling.
    pub fn final_state(&self, keys: &[&str]) -> BTreeMap<String, Option<u64>> {
        let leader = self.leader().unwrap_or(self.servers[0]);
        let kv = self.kv_of(leader);
        keys.iter()
            .map(|k| (k.to_string(), kv.get(*k).copied()))
            .collect()
    }

    /// Total elections won across servers (thrash metric, §4.4).
    pub fn total_elections(&self) -> u64 {
        self.servers
            .iter()
            .map(|&s| self.neat.world.app(s).server().elections_won)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::Outcome;

    fn cluster(seed: u64) -> Cluster {
        Cluster::build(ClusterSpec::three_by_two(Config::fixed(), seed))
    }

    #[test]
    fn a_leader_emerges() {
        let mut c = cluster(1);
        let leader = c.wait_for_leader(2000);
        assert!(leader.is_some());
    }

    #[test]
    fn exactly_one_leader_in_steady_state() {
        let mut c = cluster(2);
        c.wait_for_leader(2000).unwrap();
        c.neat.sleep(1000);
        let leaders: Vec<NodeId> = c
            .servers
            .iter()
            .copied()
            .filter(|&s| c.neat.world.app(s).server().role() == Role::Leader)
            .collect();
        assert_eq!(leaders.len(), 1, "{leaders:?}");
    }

    #[test]
    fn write_then_read_round_trip() {
        let mut c = cluster(3);
        let leader = c.wait_for_leader(2000).unwrap();
        let client = c.client(0).via(leader);
        assert_eq!(client.write(&mut c.neat, "k", 7), Outcome::Ok(None));
        assert_eq!(client.read(&mut c.neat, "k"), Outcome::Ok(Some(7)));
    }

    #[test]
    fn write_replicates_to_followers() {
        let mut c = cluster(4);
        let leader = c.wait_for_leader(2000).unwrap();
        let client = c.client(0).via(leader);
        client.write(&mut c.neat, "k", 7);
        c.neat.sleep(500);
        for s in c.servers.clone() {
            assert_eq!(c.kv_of(s).get("k"), Some(&7), "{s} missing the write");
        }
    }

    #[test]
    fn delete_round_trip() {
        let mut c = cluster(5);
        let leader = c.wait_for_leader(2000).unwrap();
        let client = c.client(0).via(leader);
        client.write(&mut c.neat, "k", 7);
        assert_eq!(client.delete(&mut c.neat, "k"), Outcome::Ok(None));
        assert_eq!(client.read(&mut c.neat, "k"), Outcome::Ok(None));
    }

    #[test]
    fn incr_accumulates() {
        let mut c = cluster(6);
        let leader = c.wait_for_leader(2000).unwrap();
        let client = c.client(0).via(leader);
        client.incr(&mut c.neat, "n", 2);
        client.incr(&mut c.neat, "n", 3);
        assert_eq!(client.read(&mut c.neat, "n"), Outcome::Ok(Some(5)));
    }

    #[test]
    fn read_at_follower_fails_without_routing() {
        let mut c = cluster(7);
        let leader = c.wait_for_leader(2000).unwrap();
        let follower = c.servers.iter().copied().find(|&s| s != leader).unwrap();
        let client = c.client(0).via(follower);
        assert_eq!(client.read(&mut c.neat, "k"), Outcome::Fail);
    }

    #[test]
    fn crashed_leader_is_replaced() {
        let mut c = cluster(8);
        let leader = c.wait_for_leader(2000).unwrap();
        c.neat.crash(&[leader]);
        let next = c.wait_for_leader(3000);
        assert!(next.is_some());
        assert_ne!(next, Some(leader));
    }

    #[test]
    fn history_records_each_operation() {
        let mut c = cluster(9);
        let leader = c.wait_for_leader(2000).unwrap();
        let client = c.client(0).via(leader);
        client.write(&mut c.neat, "k", 1);
        client.read(&mut c.neat, "k");
        assert_eq!(c.neat.history().len(), 2);
    }

    #[test]
    fn isolated_minority_leader_eventually_steps_down() {
        let mut c = cluster(10);
        let leader = c.wait_for_leader(2000).unwrap();
        let rest = neat::rest_of(&c.servers, &[leader]);
        c.neat.partition_complete(&[leader], &rest);
        c.neat.sleep(3000);
        assert_ne!(
            c.neat.world.app(leader).server().role(),
            Role::Leader,
            "old leader must step down after losing the majority"
        );
        // And the majority elected a replacement.
        let new = c.leader().expect("majority side should have a leader");
        assert!(rest.contains(&new));
    }
}
