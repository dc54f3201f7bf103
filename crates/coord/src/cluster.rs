//! Coordination ensemble assembly.

use neat::{cluster::boot, Neat};
use simnet::NodeId;

use crate::{
    client::{CoordClient, CoordClientProc},
    msg::{CoordMsg, Tree},
    server::{CoordFlaws, CoordRole, CoordServer},
};

neat::roles! {
    /// A node of the coordination deployment.
    pub enum CoordProc: CoordMsg {
        Server(CoordServer) => server / server_mut,
        Client(CoordClientProc) => client / client_mut,
    }
}

fn leader_of(neat: &Neat<CoordProc>, servers: &[NodeId]) -> Option<NodeId> {
    let world = &neat.world;
    servers
        .iter()
        .copied()
        .filter(|&s| world.is_alive(s) && world.app(s).server().role() == CoordRole::Leader)
        .max_by_key(|&s| world.app(s).server().term())
}

/// A running coordination deployment under the NEAT engine.
pub struct CoordCluster {
    pub neat: Neat<CoordProc>,
    pub servers: Vec<NodeId>,
    pub clients: Vec<NodeId>,
}

impl CoordCluster {
    /// Builds `servers` ensemble members and `clients` client nodes.
    pub fn build(servers: usize, clients: usize, flaws: CoordFlaws, seed: u64, record: bool) -> Self {
        let server_ids: Vec<NodeId> = (0..servers).map(NodeId).collect();
        let client_ids: Vec<NodeId> = (servers..servers + clients).map(NodeId).collect();
        let neat = boot(seed, record, servers + clients, |id| {
            if id.0 < servers {
                CoordProc::Server(CoordServer::new(id, server_ids.clone(), flaws))
            } else {
                CoordProc::Client(CoordClientProc::new(server_ids.clone()))
            }
        });
        Self {
            neat,
            servers: server_ids,
            clients: client_ids,
        }
    }

    /// Client handle `i`.
    pub fn client(&self, i: usize) -> CoordClient {
        CoordClient {
            node: self.clients[i],
        }
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

    /// A member's data tree.
    pub fn tree_of(&self, server: NodeId) -> Tree {
        self.neat.world.app(server).server().tree().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::Outcome;

    fn cluster(seed: u64) -> CoordCluster {
        CoordCluster::build(3, 2, CoordFlaws::default(), seed, false)
    }

    #[test]
    fn elects_a_leader() {
        let mut c = cluster(1);
        assert!(c.wait_for_leader(2000).is_some());
    }

    #[test]
    fn create_and_get() {
        let mut c = cluster(2);
        c.wait_for_leader(2000).unwrap();
        let cl = c.client(0);
        assert_eq!(cl.create(&mut c.neat, "/a", 7), Outcome::Ok(None));
        c.neat.sleep(200);
        for s in c.servers.clone() {
            assert_eq!(cl.get_at(&mut c.neat, s, "/a"), Outcome::Ok(Some(7)));
        }
    }

    #[test]
    fn duplicate_create_is_refused() {
        let mut c = cluster(3);
        c.wait_for_leader(2000).unwrap();
        let cl = c.client(0);
        assert!(cl.create(&mut c.neat, "/a", 1).is_ok());
        assert_eq!(cl.create(&mut c.neat, "/a", 2), Outcome::Fail);
    }

    #[test]
    fn set_and_delete_round_trip() {
        let mut c = cluster(5);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0);
        cl.create(&mut c.neat, "/a", 1);
        assert!(cl.set(&mut c.neat, "/a", 2).is_ok());
        assert_eq!(cl.get_at(&mut c.neat, l, "/a"), Outcome::Ok(Some(2)));
        assert!(cl.delete(&mut c.neat, "/a").is_ok());
        assert_eq!(cl.get_at(&mut c.neat, l, "/a"), Outcome::Ok(None));
    }

    #[test]
    fn ephemeral_deleted_when_session_dies() {
        let mut c = cluster(5);
        let l = c.wait_for_leader(2000).unwrap();
        let cl = c.client(0);
        assert!(cl.acquire(&mut c.neat, "/locks/x").is_ok());
        // Kill the client; its session stops heartbeating and expires.
        c.neat.crash(&[c.clients[0]]);
        c.neat.sleep(1500);
        let cl2 = c.client(1);
        assert_eq!(cl2.get_at(&mut c.neat, l, "/locks/x"), Outcome::Ok(None));
        // And the lock is acquirable again.
        assert!(cl2.acquire(&mut c.neat, "/locks/x").is_ok());
    }

    #[test]
    fn lagging_follower_log_syncs() {
        let mut c = cluster(6);
        c.wait_for_leader(2000).unwrap();
        let cl = c.client(0);
        cl.create(&mut c.neat, "/a", 1);
        let follower = c
            .servers
            .iter()
            .copied()
            .find(|&s| Some(s) != c.leader())
            .unwrap();
        let p = c.neat.partition_complete(
            &[follower],
            &neat::rest_of(&c.neat.world.node_ids(), &[follower]),
        );
        // Two writes within the log window.
        cl.create(&mut c.neat, "/b", 2);
        cl.create(&mut c.neat, "/c", 3);
        c.neat.heal(&p);
        c.neat.sleep(500);
        let t = c.tree_of(follower);
        assert!(t.contains_key("/b") && t.contains_key("/c"));
    }

    #[test]
    fn far_behind_follower_snapshot_syncs() {
        let mut c = cluster(7);
        c.wait_for_leader(2000).unwrap();
        let cl = c.client(0);
        let follower = c
            .servers
            .iter()
            .copied()
            .find(|&s| Some(s) != c.leader())
            .unwrap();
        let p = c.neat.partition_complete(
            &[follower],
            &neat::rest_of(&c.neat.world.node_ids(), &[follower]),
        );
        // More writes than the log window (5) holds.
        for i in 0..8 {
            cl.create(&mut c.neat, &format!("/k{i}"), i);
        }
        c.neat.heal(&p);
        c.neat.sleep(500);
        let t = c.tree_of(follower);
        for i in 0..8 {
            assert!(t.contains_key(&format!("/k{i}")), "/k{i} missing");
        }
        // The fixed snapshot path resets the in-memory log.
        assert!(c
            .neat
            .world
            .app(follower)
            .server()
            .txnlog()
            .is_empty());
    }
}
