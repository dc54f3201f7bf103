//! Deployment assembly for both broker modes, plus client processes.

use std::collections::BTreeMap;

use coord::{CoordFlaws, CoordServer};
use neat::{
    cluster::{boot, Node},
    Neat, Op, OpRecord, Outcome,
};
use simnet::{Ctx, NodeId};

use crate::{
    autocluster::{AcFlaws, AcMsg, PeerBroker},
    broker::{Broker, BrokerFlaws, MqMsg},
};

/// A completed client operation in either mode.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MqResult {
    Sent(bool),
    Got(Option<u64>),
    /// The broker refused the request (not master / not clustered).
    Refused,
}

/// Client process shared by both modes (parameterized by message type via
/// the per-mode `Proc` enums below).
#[derive(Default)]
pub struct MqClientProc {
    next: u64,
    results: BTreeMap<u64, MqResult>,
}

impl MqClientProc {
    /// Allocates an op id; the low bit distinguishes sends from receives.
    fn next_op(&mut self, me: NodeId, is_send: bool) -> u64 {
        let id = (me.0 as u64) << 32 | self.next << 1 | u64::from(is_send);
        self.next += 1;
        id
    }

    /// Removes a completed result.
    pub fn take(&mut self, op_id: u64) -> Option<MqResult> {
        self.results.remove(&op_id)
    }

    fn record_send(&mut self, op_id: u64, ok: bool) {
        self.results.insert(op_id, MqResult::Sent(ok));
    }

    fn record_recv(&mut self, op_id: u64, val: Option<u64>, ok: bool) {
        let r = if ok { MqResult::Got(val) } else { MqResult::Refused };
        self.results.insert(op_id, r);
    }
}

// ---------------------------------------------------------------------------
// Coordinator mode (ActiveMQ-like).
// ---------------------------------------------------------------------------

impl Node<MqMsg> for MqClientProc {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, MqMsg>, _from: NodeId, msg: MqMsg) {
        match msg {
            MqMsg::SendResp { op_id, ok } => self.record_send(op_id, ok),
            MqMsg::RecvResp { op_id, val, ok } => self.record_recv(op_id, val, ok),
            _ => {}
        }
    }
}

neat::roles! {
    /// A node of the coordinator-mode deployment.
    pub enum MqProc: MqMsg {
        Coord(CoordServer) => coord / coord_mut,
        Broker(Broker) => broker / broker_mut,
        Client(MqClientProc) => client / client_mut,
    }
}

fn master_of(neat: &Neat<MqProc>, brokers: &[NodeId]) -> Option<NodeId> {
    let world = &neat.world;
    brokers
        .iter()
        .copied()
        .find(|&b| world.is_alive(b) && world.app(b).broker().is_master())
}

/// Synchronous client handle (coordinator mode).
#[derive(Clone, Copy, Debug)]
pub struct MqClient {
    pub node: NodeId,
}

impl MqClient {
    /// Enqueues `val`, recording the outcome against `queue`.
    pub fn send(&self, neat: &mut Neat<MqProc>, broker: NodeId, queue: &str, val: u64) -> Outcome {
        let start = neat.now();
        let q = queue.to_string();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                let id = ctx.id();
                let op_id = p.client_mut().next_op(id, true);
                ctx.send(
                    broker,
                    MqMsg::Send {
                        op_id,
                        queue: q.clone(),
                        val,
                    },
                );
                op_id
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        let node = self.node;
        let res = neat.run_op(|_| Ok(()), |w| w.app_mut(node).client_mut().take(op_id));
        let outcome = match res {
            Some(MqResult::Sent(true)) => Outcome::Ok(None),
            Some(MqResult::Sent(false)) => Outcome::Fail,
            _ => Outcome::Timeout,
        };
        let end = neat.now();
        neat.record(OpRecord {
            client: node,
            op: Op::Enqueue {
                key: queue.into(),
                val,
            },
            outcome: outcome.clone(),
            start,
            end,
        });
        outcome
    }

    /// Dequeues one message, recording the outcome against `queue`.
    pub fn recv(&self, neat: &mut Neat<MqProc>, broker: NodeId, queue: &str) -> Outcome {
        self.recv_inner(neat, broker, queue, true)
    }

    fn recv_inner(
        &self,
        neat: &mut Neat<MqProc>,
        broker: NodeId,
        queue: &str,
        record: bool,
    ) -> Outcome {
        let start = neat.now();
        let q = queue.to_string();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                let id = ctx.id();
                let op_id = p.client_mut().next_op(id, false);
                ctx.send(broker, MqMsg::Recv { op_id, queue: q.clone() });
                op_id
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        let node = self.node;
        let res = neat.run_op(|_| Ok(()), |w| w.app_mut(node).client_mut().take(op_id));
        let outcome = match res {
            Some(MqResult::Got(v)) => Outcome::Ok(v),
            Some(MqResult::Refused) | Some(MqResult::Sent(_)) => Outcome::Fail,
            None => Outcome::Timeout,
        };
        let end = neat.now();
        if record {
            neat.record(OpRecord {
                client: node,
                op: Op::Dequeue { key: queue.into() },
                outcome: outcome.clone(),
                start,
                end,
            });
        }
        outcome
    }

    /// Drains the queue through `broker` until empty or a timeout; returns
    /// the values and whether the drain completed (saw an empty answer).
    /// The drain is the verification step, so it is NOT recorded in the
    /// history — its results are passed to the checker as the final state.
    pub fn drain(&self, neat: &mut Neat<MqProc>, broker: NodeId, queue: &str) -> (Vec<u64>, bool) {
        let mut got = Vec::new();
        for _ in 0..64 {
            match self.recv_inner(neat, broker, queue, false) {
                Outcome::Ok(Some(v)) => got.push(v),
                Outcome::Ok(None) => return (got, true),
                _ => return (got, false),
            }
        }
        (got, false)
    }
}

/// A coordinator-mode deployment: one coordination server, `brokers`
/// brokers, two clients.
pub struct MqCluster {
    pub neat: Neat<MqProc>,
    pub coord: NodeId,
    pub brokers: Vec<NodeId>,
    pub clients: Vec<NodeId>,
}

impl MqCluster {
    /// Builds and boots the deployment.
    pub fn build(
        brokers: usize,
        broker_flaws: BrokerFlaws,
        coord_flaws: CoordFlaws,
        seed: u64,
        record: bool,
    ) -> Self {
        let coord_id = NodeId(0);
        let broker_ids: Vec<NodeId> = (1..=brokers).map(NodeId).collect();
        let client_ids: Vec<NodeId> = (brokers + 1..brokers + 3).map(NodeId).collect();
        let neat = boot(seed, record, brokers + 3, |id| {
            if id == coord_id {
                MqProc::Coord(CoordServer::new(id, vec![coord_id], coord_flaws))
            } else if id.0 <= brokers {
                MqProc::Broker(Broker::new(id, broker_ids.clone(), vec![coord_id], broker_flaws))
            } else {
                MqProc::Client(MqClientProc::default())
            }
        });
        Self {
            neat,
            coord: coord_id,
            brokers: broker_ids,
            clients: client_ids,
        }
    }

    /// Client handle `i`.
    pub fn client(&self, i: usize) -> MqClient {
        MqClient {
            node: self.clients[i],
        }
    }

    /// The broker currently acting as master, if any.
    pub fn master(&self) -> Option<NodeId> {
        master_of(&self.neat, &self.brokers)
    }

    /// Runs until a master exists (optionally excluding one broker).
    /// Mastership is sampled on every second 10 ms engine step: the queue
    /// arms' committed audit hashes were taken at a 20 ms cadence.
    pub fn wait_for_master(&mut self, max_ms: u64, not: Option<NodeId>) -> Option<NodeId> {
        let (brokers, start) = (&self.brokers, self.neat.now());
        self.neat.wait_until(max_ms, |neat| {
            let sampled = (neat.now() - start).is_multiple_of(20);
            master_of(neat, brokers).filter(|&m| sampled && Some(m) != not)
        })
    }
}

// ---------------------------------------------------------------------------
// Autocluster mode (RabbitMQ-like).
// ---------------------------------------------------------------------------

impl Node<AcMsg> for MqClientProc {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, AcMsg>, _from: NodeId, msg: AcMsg) {
        match msg {
            AcMsg::SendResp { op_id, ok } => self.record_send(op_id, ok),
            AcMsg::RecvResp { op_id, val, ok } => self.record_recv(op_id, val, ok),
            _ => {}
        }
    }
}

neat::roles! {
    /// A node of the autocluster deployment.
    pub enum AcProc: AcMsg {
        Broker(PeerBroker) => broker / broker_mut,
        Client(MqClientProc) => client / client_mut,
    }
}

/// Synchronous client handle (autocluster mode).
#[derive(Clone, Copy, Debug)]
pub struct AcClient {
    pub node: NodeId,
}

impl AcClient {
    /// Enqueues `val` through `broker`.
    pub fn send(&self, neat: &mut Neat<AcProc>, broker: NodeId, queue: &str, val: u64) -> Outcome {
        let start = neat.now();
        let q = queue.to_string();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                let id = ctx.id();
                let op_id = p.client_mut().next_op(id, true);
                ctx.send(
                    broker,
                    AcMsg::Send {
                        op_id,
                        queue: q.clone(),
                        val,
                    },
                );
                op_id
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        let node = self.node;
        let res = neat.run_op(|_| Ok(()), |w| w.app_mut(node).client_mut().take(op_id));
        let outcome = match res {
            Some(MqResult::Sent(true)) => Outcome::Ok(None),
            Some(MqResult::Sent(false)) => Outcome::Fail,
            _ => Outcome::Timeout,
        };
        let end = neat.now();
        neat.record(OpRecord {
            client: node,
            op: Op::Enqueue {
                key: queue.into(),
                val,
            },
            outcome: outcome.clone(),
            start,
            end,
        });
        outcome
    }

    /// Dequeues one message through `broker`.
    pub fn recv(&self, neat: &mut Neat<AcProc>, broker: NodeId, queue: &str) -> Outcome {
        self.recv_inner(neat, broker, queue, true)
    }

    fn recv_inner(
        &self,
        neat: &mut Neat<AcProc>,
        broker: NodeId,
        queue: &str,
        record: bool,
    ) -> Outcome {
        let start = neat.now();
        let q = queue.to_string();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                let id = ctx.id();
                let op_id = p.client_mut().next_op(id, false);
                ctx.send(broker, AcMsg::Recv { op_id, queue: q.clone() });
                op_id
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        let node = self.node;
        let res = neat.run_op(|_| Ok(()), |w| w.app_mut(node).client_mut().take(op_id));
        let outcome = match res {
            Some(MqResult::Got(v)) => Outcome::Ok(v),
            Some(MqResult::Refused) | Some(MqResult::Sent(_)) => Outcome::Fail,
            None => Outcome::Timeout,
        };
        let end = neat.now();
        if record {
            neat.record(OpRecord {
                client: node,
                op: Op::Dequeue { key: queue.into() },
                outcome: outcome.clone(),
                start,
                end,
            });
        }
        outcome
    }

    /// Drains the queue through `broker` (unrecorded verification step).
    pub fn drain(&self, neat: &mut Neat<AcProc>, broker: NodeId, queue: &str) -> (Vec<u64>, bool) {
        let mut got = Vec::new();
        for _ in 0..64 {
            match self.recv_inner(neat, broker, queue, false) {
                Outcome::Ok(Some(v)) => got.push(v),
                Outcome::Ok(None) => return (got, true),
                _ => return (got, false),
            }
        }
        (got, false)
    }
}

/// An autocluster deployment: `brokers` brokers, two clients.
pub struct AcCluster {
    pub neat: Neat<AcProc>,
    pub brokers: Vec<NodeId>,
    pub clients: Vec<NodeId>,
}

impl AcCluster {
    /// Builds the deployment. The lowest-id broker bootstraps the cluster.
    pub fn build(brokers: usize, flaws: AcFlaws, seed: u64, record: bool) -> Self {
        let broker_ids: Vec<NodeId> = (0..brokers).map(NodeId).collect();
        let client_ids: Vec<NodeId> = (brokers..brokers + 2).map(NodeId).collect();
        let neat = boot(seed, record, brokers + 2, |id| {
            if id.0 < brokers {
                let mut b = PeerBroker::new(id, broker_ids.clone(), flaws);
                if id.0 == 0 {
                    b.bootstrap();
                }
                AcProc::Broker(b)
            } else {
                AcProc::Client(MqClientProc::default())
            }
        });
        Self {
            neat,
            brokers: broker_ids,
            clients: client_ids,
        }
    }

    /// Client handle `i`.
    pub fn client(&self, i: usize) -> AcClient {
        AcClient {
            node: self.clients[i],
        }
    }

    /// Distinct cluster ids currently claimed by live brokers.
    pub fn cluster_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .brokers
            .iter()
            .copied()
            .filter(|&b| self.neat.world.is_alive(b))
            .filter_map(|b| self.neat.world.app(b).broker().cluster)
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

}
