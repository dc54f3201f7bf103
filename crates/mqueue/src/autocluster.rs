//! Autocluster-mode brokers (RabbitMQ-like peer discovery).
//!
//! rabbitmq-server #1455: when a booting node cannot reach any peer during
//! discovery, it assumes the rest of the cluster is down and **forms a new
//! independent cluster**. If that happened because of a network partition,
//! the two clusters remain separate even after the partition heals — the
//! paper's flagship example of lasting damage (Finding 3).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use neat::cluster::Node;
use simnet::{Ctx, NodeId, TimerId};

const TAG_DISCOVERY: u64 = 31;

/// Flaw toggle for autoclustering.
#[derive(Clone, Copy, Debug)]
pub struct AcFlaws {
    /// rabbitmq #1455: form an independent cluster when discovery fails.
    pub form_own_cluster_on_silence: bool,
}

/// Wire protocol of the autocluster deployment.
#[derive(Clone, Debug)]
pub enum AcMsg {
    /// Booting node → seeds.
    Probe,
    /// A clustered node answers with its cluster id and member list.
    ProbeResp { cluster: u64, members: Vec<NodeId> },
    /// New member announcement within a cluster.
    Join { node: NodeId },
    /// Producer → broker.
    Send { op_id: u64, queue: String, val: u64 },
    SendResp { op_id: u64, ok: bool },
    /// Consumer → broker.
    Recv { op_id: u64, queue: String },
    /// `ok = false` means refused (not clustered / not owner reachable).
    RecvResp {
        op_id: u64,
        val: Option<u64>,
        ok: bool,
    },
    /// Any member → its cluster's queue owner.
    Forward { op_id: u64, client: NodeId, queue: String, push: Option<u64> },
    /// The owner's answer; `push` is whether the forwarded op was a push.
    ForwardResp { op_id: u64, client: NodeId, push: bool, val: Option<u64>, ok: bool },
}

/// A peer-discovered broker.
pub struct PeerBroker {
    me: NodeId,
    seeds: Vec<NodeId>,
    flaws: AcFlaws,
    /// The cluster this node belongs to (`None` while still discovering).
    pub cluster: Option<u64>,
    members: BTreeSet<NodeId>,
    queues: BTreeMap<String, VecDeque<u64>>,
    discovery_round: u32,
    bootstrap: bool,
}

impl PeerBroker {
    /// Creates a broker that will try to join `seeds`.
    pub fn new(me: NodeId, seeds: Vec<NodeId>, flaws: AcFlaws) -> Self {
        Self {
            me,
            seeds,
            flaws,
            cluster: None,
            members: BTreeSet::new(),
            queues: BTreeMap::new(),
            discovery_round: 0,
            bootstrap: false,
        }
    }

    /// Marks this node as the designated first member: it forms the
    /// cluster at boot instead of probing.
    pub fn bootstrap(&mut self) {
        self.bootstrap = true;
    }

    /// Members of this node's cluster.
    pub fn members(&self) -> &BTreeSet<NodeId> {
        &self.members
    }

    /// Queue contents at this node (only meaningful at the queue owner).
    pub fn queue(&self, name: &str) -> Vec<u64> {
        self.queues
            .get(name)
            .map(|q| q.iter().copied().collect())
            .unwrap_or_default()
    }

    /// The member owning all queues of this cluster (lowest id).
    fn owner(&self) -> Option<NodeId> {
        self.members.iter().next().copied()
    }

    fn arm_discovery(&mut self, ctx: &mut Ctx<'_, AcMsg>) {
        let jitter = ctx.rand_below(200);
        ctx.set_timer(200 + jitter, TAG_DISCOVERY);
    }

    fn route(
        &mut self,
        ctx: &mut Ctx<'_, AcMsg>,
        from: NodeId,
        op_id: u64,
        queue: String,
        push: Option<u64>,
    ) {
        let Some(owner) = self.owner() else {
            // Not clustered yet: refuse.
            match push {
                Some(_) => ctx.send(from, AcMsg::SendResp { op_id, ok: false }),
                None => ctx.send(
                    from,
                    AcMsg::RecvResp {
                        op_id,
                        val: None,
                        ok: false,
                    },
                ),
            }
            return;
        };
        if owner == self.me {
            let (val, ok) = self.apply(queue, push);
            match push {
                Some(_) => ctx.send(from, AcMsg::SendResp { op_id, ok }),
                None => ctx.send(from, AcMsg::RecvResp { op_id, val, ok }),
            }
        } else {
            ctx.send(
                owner,
                AcMsg::Forward {
                    op_id,
                    client: from,
                    queue,
                    push,
                },
            );
        }
    }

    fn apply(&mut self, queue: String, push: Option<u64>) -> (Option<u64>, bool) {
        let q = self.queues.entry(queue).or_default();
        match push {
            Some(v) => {
                q.push_back(v);
                (None, true)
            }
            None => (q.pop_front(), true),
        }
    }
}

impl Node<AcMsg> for PeerBroker {
    /// Boot: the designated first member forms the cluster; everyone else
    /// probes the seeds.
    fn start(&mut self, ctx: &mut Ctx<'_, AcMsg>) {
        self.cluster = None;
        self.members.clear();
        self.discovery_round = 0;
        if self.bootstrap {
            self.cluster = Some(self.me.0 as u64);
            self.members = std::iter::once(self.me).collect();
            return;
        }
        let peers = self.seeds.clone();
        ctx.broadcast(&peers, AcMsg::Probe);
        self.arm_discovery(ctx);
    }

    /// Message dispatch.
    fn on_message(&mut self, ctx: &mut Ctx<'_, AcMsg>, from: NodeId, msg: AcMsg) {
        match msg {
            AcMsg::Probe => {
                if let Some(cluster) = self.cluster {
                    let members = self.members.iter().copied().collect();
                    ctx.send(from, AcMsg::ProbeResp { cluster, members });
                }
            }
            AcMsg::ProbeResp { cluster, members } => {
                if self.cluster.is_none() {
                    ctx.note(|| format!("joining cluster {cluster}"));
                    self.cluster = Some(cluster);
                    self.members = members.into_iter().collect();
                    self.members.insert(self.me);
                    let me = self.me;
                    let peers: Vec<NodeId> = self.members.iter().copied().collect();
                    ctx.broadcast(&peers, AcMsg::Join { node: me });
                }
            }
            AcMsg::Join { node } => {
                if self.cluster.is_some() {
                    self.members.insert(node);
                }
            }
            AcMsg::Send { op_id, queue, val } => {
                self.route(ctx, from, op_id, queue, Some(val));
            }
            AcMsg::Recv { op_id, queue } => {
                self.route(ctx, from, op_id, queue, None);
            }
            AcMsg::Forward {
                op_id,
                client,
                queue,
                push,
            } => {
                let (val, ok) = self.apply(queue, push);
                let push = push.is_some();
                ctx.send(from, AcMsg::ForwardResp { op_id, client, push, val, ok });
            }
            AcMsg::ForwardResp {
                op_id,
                client,
                push,
                val,
                ok,
            } => {
                // Relay the owner's answer to the client as the reply its
                // request expects.
                let msg = if push {
                    AcMsg::SendResp { op_id, ok }
                } else {
                    AcMsg::RecvResp { op_id, val, ok }
                };
                ctx.send(client, msg);
            }
            AcMsg::SendResp { .. } | AcMsg::RecvResp { .. } => {}
        }
    }

    /// Timer dispatch.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, AcMsg>, _t: TimerId, tag: u64) {
        if tag != TAG_DISCOVERY || self.cluster.is_some() {
            return;
        }
        self.discovery_round += 1;
        if self.flaws.form_own_cluster_on_silence && self.discovery_round >= 2 {
            // rabbitmq #1455: "the rest of the cluster must be down."
            ctx.note(|| format!("forming OWN cluster {} (flaw)", self.me.0));
            self.cluster = Some(self.me.0 as u64);
            self.members = std::iter::once(self.me).collect();
        } else {
            // Keep probing (the fixed behaviour probes forever).
            let peers = self.seeds.clone();
            ctx.broadcast(&peers, AcMsg::Probe);
            self.arm_discovery(ctx);
        }
    }

    /// Crash loses in-memory state.
    fn on_crash(&mut self) {
        self.cluster = None;
        self.members.clear();
        self.queues.clear();
    }
}
