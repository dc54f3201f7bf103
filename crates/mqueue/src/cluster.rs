//! Deployment assembly for both broker modes, plus client processes.

use coord::{CoordFlaws, CoordServer};
use neat::{
    cluster::{boot, Mailbox, Node},
    Neat, Op, Outcome,
};
use simnet::{Application, Ctx, NodeId};

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

impl MqResult {
    /// A receive's answer: the value, or [`MqResult::Refused`] when not `ok`.
    fn received(val: Option<u64>, ok: bool) -> Self {
        if ok {
            MqResult::Got(val)
        } else {
            MqResult::Refused
        }
    }
}

/// What the one client implementation needs from a broker mode: where the
/// client's mailbox sits in the mode's role enum, and how the mode's wire
/// spells the two requests.
pub trait MqMode: Application {
    /// The client role's mailbox; panics on any other role.
    fn mailbox(&mut self) -> &mut Mailbox<MqResult>;
    /// Producer → broker.
    fn send(op_id: u64, queue: String, val: u64) -> Self::Msg;
    /// Consumer → broker.
    fn recv(op_id: u64, queue: String) -> Self::Msg;
}

/// Synchronous client handle, the same in both modes.
#[derive(Clone, Copy, Debug)]
pub struct MqClient {
    pub node: NodeId,
}

/// The autocluster deployment's name for its client handle.
pub type AcClient = MqClient;

impl MqClient {
    /// Enqueues `val` through `broker`, recording the outcome against
    /// `queue`.
    pub fn send<P: MqMode>(
        &self,
        neat: &mut Neat<P>,
        broker: NodeId,
        queue: &str,
        val: u64,
    ) -> Outcome {
        let op = Op::Enqueue {
            key: queue.into(),
            val,
        };
        neat.recorded(self.node, op, |neat| {
            let queue = queue.to_string();
            let res = neat.request(self.node, neat.op_timeout, P::mailbox, |_, ctx, op_id| {
                ctx.send(broker, P::send(op_id, queue, val))
            });
            match res {
                Some(MqResult::Sent(true)) => Outcome::Ok(None),
                Some(MqResult::Sent(false)) => Outcome::Fail,
                _ => Outcome::Timeout,
            }
        })
    }

    /// Dequeues one message through `broker`, recording the outcome
    /// against `queue`.
    pub fn recv<P: MqMode>(&self, neat: &mut Neat<P>, broker: NodeId, queue: &str) -> Outcome {
        let op = Op::Dequeue { key: queue.into() };
        neat.recorded(self.node, op, |neat| self.probe(neat, broker, queue))
    }

    /// One dequeue round trip that stays out of the history.
    fn probe<P: MqMode>(&self, neat: &mut Neat<P>, broker: NodeId, queue: &str) -> Outcome {
        let queue = queue.to_string();
        let res = neat.request(self.node, neat.op_timeout, P::mailbox, |_, ctx, op_id| {
            ctx.send(broker, P::recv(op_id, queue))
        });
        match res {
            Some(MqResult::Got(v)) => Outcome::Ok(v),
            Some(MqResult::Refused) | Some(MqResult::Sent(_)) => Outcome::Fail,
            None => Outcome::Timeout,
        }
    }

    /// Drains the queue through `broker` until empty or a timeout; returns
    /// the values and whether the drain completed (saw an empty answer).
    /// The drain is the verification step, so it is NOT recorded in the
    /// history — its results are passed to the checker as the final state.
    pub fn drain<P: MqMode>(
        &self,
        neat: &mut Neat<P>,
        broker: NodeId,
        queue: &str,
    ) -> (Vec<u64>, bool) {
        let mut got = Vec::new();
        for _ in 0..64 {
            match self.probe(neat, broker, queue) {
                Outcome::Ok(Some(v)) => got.push(v),
                Outcome::Ok(None) => return (got, true),
                _ => return (got, false),
            }
        }
        (got, false)
    }
}

// ---------------------------------------------------------------------------
// Coordinator mode (ActiveMQ-like).
// ---------------------------------------------------------------------------

/// The client role of both modes: a refused receive is [`MqResult::Refused`].
impl Node<MqMsg> for Mailbox<MqResult> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, MqMsg>, _from: NodeId, msg: MqMsg) {
        match msg {
            MqMsg::SendResp { op_id, ok } => self.put(op_id, MqResult::Sent(ok)),
            MqMsg::RecvResp { op_id, val, ok } => self.put(op_id, MqResult::received(val, ok)),
            _ => {}
        }
    }
}

neat::roles! {
    /// A node of the coordinator-mode deployment.
    pub enum MqProc: MqMsg {
        Coord(CoordServer) => coord / coord_mut,
        Broker(Broker) => broker / broker_mut,
        Client(Mailbox<MqResult>) => client / client_mut,
    }
}

fn master_of(neat: &Neat<MqProc>, brokers: &[NodeId]) -> Option<NodeId> {
    let world = &neat.world;
    brokers
        .iter()
        .copied()
        .find(|&b| world.is_alive(b) && world.app(b).broker().is_master())
}

impl MqMode for MqProc {
    fn mailbox(&mut self) -> &mut Mailbox<MqResult> {
        self.client_mut()
    }
    fn send(op_id: u64, queue: String, val: u64) -> MqMsg {
        MqMsg::Send { op_id, queue, val }
    }
    fn recv(op_id: u64, queue: String) -> MqMsg {
        MqMsg::Recv { op_id, queue }
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
                MqProc::Client(Mailbox::default())
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

impl Node<AcMsg> for Mailbox<MqResult> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, AcMsg>, _from: NodeId, msg: AcMsg) {
        match msg {
            AcMsg::SendResp { op_id, ok } => self.put(op_id, MqResult::Sent(ok)),
            AcMsg::RecvResp { op_id, val, ok } => self.put(op_id, MqResult::received(val, ok)),
            _ => {}
        }
    }
}

neat::roles! {
    /// A node of the autocluster deployment.
    pub enum AcProc: AcMsg {
        Broker(PeerBroker) => broker / broker_mut,
        Client(Mailbox<MqResult>) => client / client_mut,
    }
}

impl MqMode for AcProc {
    fn mailbox(&mut self) -> &mut Mailbox<MqResult> {
        self.client_mut()
    }
    fn send(op_id: u64, queue: String, val: u64) -> AcMsg {
        AcMsg::Send { op_id, queue, val }
    }
    fn recv(op_id: u64, queue: String) -> AcMsg {
        AcMsg::Recv { op_id, queue }
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
                AcProc::Client(Mailbox::default())
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

#[cfg(test)]
mod tests {
    use super::*;

    fn booted() -> (MqCluster, NodeId) {
        let mut cluster =
            MqCluster::build(3, BrokerFlaws::fixed(), CoordFlaws::default(), 8, false);
        let master = cluster.wait_for_master(3000, None).expect("master");
        (cluster, master)
    }

    #[test]
    fn a_down_client_times_out_at_once_and_is_still_recorded() {
        let (mut cluster, master) = booted();
        let client = cluster.client(0);
        cluster.neat.crash(&[client.node]);
        let t0 = cluster.neat.now();
        let outcome = client.send(&mut cluster.neat, master, "q", 1);
        assert_eq!(outcome, Outcome::Timeout);
        assert_eq!(cluster.neat.now(), t0, "nothing was sent, so nothing is waited for");
        let [rec] = cluster.neat.history().records() else {
            panic!("one op, one record: {:?}", cluster.neat.history());
        };
        assert_eq!((&rec.outcome, rec.start, rec.end), (&Outcome::Timeout, t0, t0));
        assert_eq!(client.drain(&mut cluster.neat, master, "q"), (vec![], false));
    }

    #[test]
    fn drain_stays_out_of_the_history() {
        let (mut cluster, master) = booted();
        let client = cluster.client(0);
        for val in [1, 2] {
            assert_eq!(client.send(&mut cluster.neat, master, "q", val), Outcome::Ok(None));
        }
        assert_eq!(client.recv(&mut cluster.neat, master, "q"), Outcome::Ok(Some(1)));
        assert_eq!(cluster.neat.history().len(), 3);
        assert_eq!(client.drain(&mut cluster.neat, master, "q"), (vec![2], true));
        assert_eq!(cluster.neat.history().len(), 3, "the drain is a probe, not an op");
    }

    #[test]
    fn ops_relayed_through_a_non_owner_come_back_as_the_reply_they_asked_for() {
        let flaws = AcFlaws { form_own_cluster_on_silence: false };
        let mut cluster = AcCluster::build(3, flaws, 8, false);
        let brokers = cluster.brokers.clone();
        let joined = cluster.neat.wait_until(3000, |neat| {
            let member = |&b: &NodeId| neat.world.app(b).broker().cluster == Some(0);
            brokers.iter().all(member).then_some(())
        });
        assert_eq!(joined, Some(()), "every broker joined broker 0's cluster");
        // Broker 0, the lowest member, owns the queues; 1 and 2 forward.
        let (client, relay) = (cluster.client(0), brokers[1]);
        // `send` answers `Ok(None)` only for `Sent(true)`, and `recv`
        // answers `Ok(_)` only for `Got(_)`: an empty pop is not a push.
        assert_eq!(client.send(&mut cluster.neat, relay, "q", 7), Outcome::Ok(None));
        assert_eq!(client.recv(&mut cluster.neat, relay, "q"), Outcome::Ok(Some(7)));
        assert_eq!(client.recv(&mut cluster.neat, brokers[2], "q"), Outcome::Ok(None));
    }
}
