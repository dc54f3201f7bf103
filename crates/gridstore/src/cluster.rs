//! Grid deployment assembly and the synchronous client.

use neat::{
    cluster::{boot, Mailbox, Node},
    Neat, Op, Outcome,
};
use simnet::{Ctx, NodeId};

use crate::{
    node::{GridFlaws, GridMsg, GridNode},
    state::{GridOp, GridResp, GridState},
};

/// The client role: collects responses, answers liveness pings.
impl Node<GridMsg> for Mailbox<GridResp> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, GridMsg>, from: NodeId, msg: GridMsg) {
        match msg {
            GridMsg::Resp { op_id, resp } => self.put(op_id, resp),
            GridMsg::Ping => ctx.send(from, GridMsg::Pong),
            _ => {}
        }
    }
}

neat::roles! {
    /// A node of the grid deployment.
    pub enum GridProc: GridMsg {
        Server(GridNode) => server / server_mut,
        Client(Mailbox<GridResp>) => client / client_mut,
    }
}

/// Synchronous grid client bound to one client node and one server.
#[derive(Clone, Copy, Debug)]
pub struct GridClient {
    pub node: NodeId,
    pub target: NodeId,
}

impl GridClient {
    /// Points the handle at a different server.
    pub fn via(self, target: NodeId) -> Self {
        Self { target, ..self }
    }

    fn history_op(op: &GridOp) -> Op {
        match op {
            GridOp::Put { key, val } => Op::Write {
                key: key.as_str().into(),
                val: *val,
            },
            GridOp::Get { key } => Op::Read { key: key.as_str().into() },
            GridOp::Remove { key } => Op::Delete { key: key.as_str().into() },
            GridOp::Incr { key, by } => Op::Incr {
                key: key.as_str().into(),
                by: *by,
            },
            GridOp::Cas { key, .. } => Op::Other {
                label: format!("cas:{key}"),
            },
            GridOp::SemCreate { key, .. } => Op::Other {
                label: format!("sem_create:{key}"),
            },
            GridOp::SemAcquire { key } => Op::Acquire { key: key.as_str().into() },
            GridOp::SemRelease { key } => Op::Release { key: key.as_str().into() },
            GridOp::Enq { key, val } => Op::Enqueue {
                key: key.as_str().into(),
                val: *val,
            },
            GridOp::Deq { key } => Op::Dequeue { key: key.as_str().into() },
            GridOp::SetAdd { key, val } => Op::Add {
                key: key.as_str().into(),
                val: *val,
            },
            GridOp::SetRemove { key, val } => Op::Remove {
                key: key.as_str().into(),
                val: *val,
            },
            GridOp::SetRead { key } => Op::Read { key: key.as_str().into() },
        }
    }

    /// Executes one grid operation, recording it in the history.
    pub fn exec(&self, neat: &mut Neat<GridProc>, op: GridOp) -> Outcome {
        let Self { node, target } = *self;
        neat.recorded(node, Self::history_op(&op), |neat| {
            let resp = neat.request(
                node,
                neat.op_timeout,
                GridProc::client_mut,
                |_, ctx, op_id| ctx.send(target, GridMsg::Req { op_id, op }),
            );
            match resp {
                Some(GridResp::Ok) => Outcome::Ok(None),
                Some(GridResp::Value(v)) => Outcome::Ok(v),
                Some(GridResp::Values(vs)) => Outcome::OkMany(vs),
                Some(GridResp::Fail) => Outcome::Fail,
                None => Outcome::Timeout,
            }
        })
    }

    /// Cache write.
    pub fn put(&self, neat: &mut Neat<GridProc>, key: &str, val: u64) -> Outcome {
        self.exec(neat, GridOp::Put { key: key.into(), val })
    }

    /// Cache read.
    pub fn get(&self, neat: &mut Neat<GridProc>, key: &str) -> Outcome {
        self.exec(neat, GridOp::Get { key: key.into() })
    }

    /// Atomic increment.
    pub fn incr(&self, neat: &mut Neat<GridProc>, key: &str, by: u64) -> Outcome {
        self.exec(neat, GridOp::Incr { key: key.into(), by })
    }

    /// Semaphore creation.
    pub fn sem_create(&self, neat: &mut Neat<GridProc>, key: &str, permits: u64) -> Outcome {
        self.exec(neat, GridOp::SemCreate { key: key.into(), permits })
    }

    /// Semaphore acquire.
    pub fn acquire(&self, neat: &mut Neat<GridProc>, key: &str) -> Outcome {
        self.exec(neat, GridOp::SemAcquire { key: key.into() })
    }

    /// Semaphore release.
    pub fn release(&self, neat: &mut Neat<GridProc>, key: &str) -> Outcome {
        self.exec(neat, GridOp::SemRelease { key: key.into() })
    }

    /// Queue append.
    pub fn enq(&self, neat: &mut Neat<GridProc>, key: &str, val: u64) -> Outcome {
        self.exec(neat, GridOp::Enq { key: key.into(), val })
    }

    /// Queue pop.
    pub fn deq(&self, neat: &mut Neat<GridProc>, key: &str) -> Outcome {
        self.exec(neat, GridOp::Deq { key: key.into() })
    }

    /// Set insert.
    pub fn set_add(&self, neat: &mut Neat<GridProc>, key: &str, val: u64) -> Outcome {
        self.exec(neat, GridOp::SetAdd { key: key.into(), val })
    }

    /// Set remove.
    pub fn set_remove(&self, neat: &mut Neat<GridProc>, key: &str, val: u64) -> Outcome {
        self.exec(neat, GridOp::SetRemove { key: key.into(), val })
    }
}

/// A running grid deployment.
pub struct GridCluster {
    pub neat: Neat<GridProc>,
    pub servers: Vec<NodeId>,
    pub clients: Vec<NodeId>,
}

impl GridCluster {
    /// Builds `servers` grid nodes and `clients` client nodes.
    pub fn build(servers: usize, clients: usize, flaws: GridFlaws, seed: u64, record: bool) -> Self {
        let server_ids: Vec<NodeId> = (0..servers).map(NodeId).collect();
        let client_ids: Vec<NodeId> = (servers..servers + clients).map(NodeId).collect();
        let neat = boot(seed, record, servers + clients, |id| {
            if id.0 < servers {
                GridProc::Server(GridNode::new(id, server_ids.clone(), flaws))
            } else {
                GridProc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            servers: server_ids,
            clients: client_ids,
        }
    }

    /// Client handle `i`, pointed at server `i % servers` (spreading
    /// clients across the cluster like real grid clients).
    pub fn client(&self, i: usize) -> GridClient {
        GridClient {
            node: self.clients[i],
            target: self.servers[i % self.servers.len()],
        }
    }

    /// A server's grid state.
    pub fn state_of(&self, server: NodeId) -> GridState {
        self.neat.world.app(server).server().state().clone()
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(seed: u64) -> GridCluster {
        GridCluster::build(3, 2, GridFlaws::fixed(), seed, false)
    }

    #[test]
    fn put_get_through_any_server() {
        let mut c = cluster(1);
        c.neat.sleep(100);
        let c0 = c.client(0);
        assert!(c0.put(&mut c.neat, "k", 5).is_ok());
        // Read through a different server: the state sync propagated.
        c.neat.sleep(100);
        let c1 = c.client(1);
        assert_eq!(c1.get(&mut c.neat, "k"), Outcome::Ok(Some(5)));
    }

    #[test]
    fn semaphore_exclusion_across_clients() {
        let mut c = cluster(2);
        c.neat.sleep(100);
        let c0 = c.client(0);
        let c1 = c.client(1);
        c0.sem_create(&mut c.neat, "s", 1);
        assert!(c0.acquire(&mut c.neat, "s").is_ok());
        c.neat.sleep(100);
        assert_eq!(c1.acquire(&mut c.neat, "s"), Outcome::Fail);
        assert!(c0.release(&mut c.neat, "s").is_ok());
        c.neat.sleep(100);
        assert!(c1.acquire(&mut c.neat, "s").is_ok());
    }

    #[test]
    fn queue_round_trip_across_servers() {
        let mut c = cluster(3);
        c.neat.sleep(100);
        let c0 = c.client(0);
        let c1 = c.client(1);
        c0.enq(&mut c.neat, "q", 1);
        c0.enq(&mut c.neat, "q", 2);
        c.neat.sleep(100);
        assert_eq!(c1.deq(&mut c.neat, "q"), Outcome::Ok(Some(1)));
        assert_eq!(c1.deq(&mut c.neat, "q"), Outcome::Ok(Some(2)));
        assert_eq!(c1.deq(&mut c.neat, "q"), Outcome::Ok(None));
    }

    #[test]
    fn state_replicates_to_all_members() {
        let mut c = cluster(4);
        c.neat.sleep(100);
        let c0 = c.client(0);
        c0.put(&mut c.neat, "k", 9);
        c0.incr(&mut c.neat, "n", 4);
        c.neat.sleep(300);
        for s in c.servers.clone() {
            let st = c.state_of(s);
            assert_eq!(st.cache.get("k"), Some(&9), "{s}");
            assert_eq!(st.atomics.get("n"), Some(&4), "{s}");
        }
    }

    #[test]
    fn fixed_grid_heals_membership() {
        let mut c = cluster(5);
        c.neat.sleep(200);
        let isolated = c.servers[2];
        let p = c.neat.partition_complete(
            &[isolated],
            &neat::rest_of(&c.neat.world.node_ids(), &[isolated]),
        );
        c.neat.sleep(1000);
        assert!(
            !c.neat.world.app(c.servers[0]).server().view().contains(&isolated),
            "isolated node should have been removed"
        );
        c.neat.heal(&p);
        c.neat.sleep(1000);
        assert!(
            c.neat.world.app(c.servers[0]).server().view().contains(&isolated),
            "fixed grid must re-admit the healed node"
        );
    }
}
