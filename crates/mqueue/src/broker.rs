//! Coordinator-mode brokers (ActiveMQ-like): a master elected through the
//! coordination service replicates a FIFO queue to replica brokers.
//!
//! Mastership is an ephemeral znode (`/mq/master`) in an embedded
//! coordination ensemble, exactly the ActiveMQ/ZooKeeper arrangement of the
//! paper's Figure 6. Seeded flaws ([`BrokerFlaws`]):
//!
//! - **AMQ-7064 (Figure 6)** — the master waits for replica acknowledgements
//!   *forever*. A partial partition that separates the master from the
//!   replicas but not from the coordination service hangs the whole system:
//!   the master cannot replicate, and the replicas see a healthy master in
//!   the coordinator, so nobody takes over.
//! - **AMQ-6978 (Listing 2)** — the master delivers a dequeued message
//!   before the removal replicates; the other side of a complete partition
//!   then fails over to a replica that still holds the message, and it is
//!   consumed twice.
//! - **rabbitmq #714** — a master told to step down while replication is in
//!   flight deadlocks its leader and follower threads and never answers
//!   anything again.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use coord::{CoordMsg, CoordReq, CoordResp, CoordSession, CoordWire};
use neat::cluster::Node;
use simnet::{Ctx, NodeId, Time, TimerId};

/// Every broker's queues, keyed by name. The master's copy is shared, not
/// copied, with every replica it syncs; whoever mutates a shared copy
/// takes a private one first (`Arc::make_mut`), so a sync is a snapshot.
type Queues = Arc<BTreeMap<String, VecDeque<u64>>>;

/// Timer tags (brokers).
const TAG_TICK: u64 = 21;
const TAG_REPL: u64 = 100_000;

/// Flaw toggles for coordinator-mode brokers.
#[derive(Clone, Copy, Debug)]
pub struct BrokerFlaws {
    /// AMQ-7064: no replication timeout — the master blocks forever.
    pub block_forever_on_replication: bool,
    /// AMQ-6978: acknowledge consumers before the removal replicates.
    pub ack_consumer_locally: bool,
    /// Jepsen-Kafka (`acks=1`): acknowledge producers after the local
    /// append, before any replica has the message.
    pub ack_producer_locally: bool,
    /// rabbitmq #714: deadlock when demoted with in-flight replication.
    pub deadlock_on_demotion: bool,
}

impl BrokerFlaws {
    /// All flaws on (the systems as studied).
    pub fn flawed() -> Self {
        Self {
            block_forever_on_replication: true,
            ack_consumer_locally: true,
            ack_producer_locally: false,
            deadlock_on_demotion: true,
        }
    }

    /// The Kafka-like profile: producers acknowledged on the local append
    /// only; everything else repaired.
    pub fn kafka_acks_one() -> Self {
        Self {
            ack_producer_locally: true,
            ..Self::fixed()
        }
    }

    /// All flaws off (the repaired baseline).
    pub fn fixed() -> Self {
        Self {
            block_forever_on_replication: false,
            ack_consumer_locally: false,
            ack_producer_locally: false,
            deadlock_on_demotion: false,
        }
    }
}

/// A queue mutation replicated master → replicas.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QOp {
    Push(u64),
    /// Remove a specific value (the head the master popped).
    Pop(u64),
}

/// The wire protocol of the coordinator-mode deployment.
#[derive(Clone, Debug)]
pub enum MqMsg {
    /// Embedded coordination-service traffic.
    Coord(CoordMsg),
    /// Producer → broker.
    Send { op_id: u64, queue: String, val: u64 },
    SendResp { op_id: u64, ok: bool },
    /// Consumer → broker.
    Recv { op_id: u64, queue: String },
    /// `ok = false` means the request was refused or aborted (retry
    /// elsewhere); `ok = true, val = None` means the queue was empty.
    RecvResp {
        op_id: u64,
        val: Option<u64>,
        ok: bool,
    },
    /// Master → replicas.
    Replicate { seq: u64, queue: String, op: QOp },
    ReplicateAck { seq: u64 },
    /// Master → replicas: authoritative queue contents (keeps copies
    /// convergent across failovers).
    QueueSync { queues: Queues },
    /// New master announcement.
    MasterAnnounce { master: NodeId },
}

impl CoordWire for MqMsg {
    fn from_coord(msg: CoordMsg) -> Self {
        MqMsg::Coord(msg)
    }
    fn to_coord(self) -> Option<CoordMsg> {
        match self {
            MqMsg::Coord(m) => Some(m),
            _ => None,
        }
    }
}

/// What an in-flight coordination request was for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(clippy::enum_variant_names)]
enum Intent {
    CheckMaster,
    AcquireMaster,
    ReleaseMaster,
}

struct PendingRepl {
    client: NodeId,
    op_id: u64,
    acks: BTreeSet<NodeId>,
    needed: usize,
    /// `Some(v)` for dequeues: the value to deliver (or requeue on abort).
    deliver: Option<u64>,
    queue: String,
}

/// A coordinator-mode broker.
pub struct Broker {
    me: NodeId,
    brokers: Vec<NodeId>,
    flaws: BrokerFlaws,
    session: CoordSession,
    inflight: BTreeMap<u64, Intent>,
    known_master: Option<NodeId>,
    is_master: bool,
    /// rabbitmq #714: once deadlocked, the broker ignores everything.
    pub deadlocked: bool,
    queues: Queues,
    /// The master znode's path, shared by every coordination request.
    master_path: Arc<str>,
    repl_seq: u64,
    pending: BTreeMap<u64, PendingRepl>,
    replication_timeout: Time,
    /// After releasing mastership over a replication failure, do not try to
    /// re-acquire it for a while (let a healthy replica win the race).
    acquire_backoff_until: Time,
}

impl Broker {
    /// Creates a broker among `brokers`, coordinating through
    /// `coord_servers`.
    pub fn new(me: NodeId, brokers: Vec<NodeId>, coord_servers: Vec<NodeId>, flaws: BrokerFlaws) -> Self {
        Self {
            me,
            brokers,
            flaws,
            session: CoordSession::new(coord_servers),
            inflight: BTreeMap::new(),
            known_master: None,
            is_master: false,
            deadlocked: false,
            queues: Queues::default(),
            master_path: "/mq/master".into(),
            repl_seq: 0,
            pending: BTreeMap::new(),
            replication_timeout: 400,
            acquire_backoff_until: 0,
        }
    }

    /// Is this broker currently the master?
    pub fn is_master(&self) -> bool {
        self.is_master
    }

    /// The broker this node believes is master.
    pub fn known_master(&self) -> Option<NodeId> {
        self.known_master
    }

    /// Current queue contents (for assertions and final drains).
    pub fn queue(&self, name: &str) -> Vec<u64> {
        self.queue_iter(name).collect()
    }

    /// [`Broker::queue`] without the copy: the contents, head first.
    pub fn queue_iter(&self, name: &str) -> impl Iterator<Item = u64> + '_ {
        self.queues.get(name).into_iter().flatten().copied()
    }

    fn check_master(&mut self, ctx: &mut Ctx<'_, MqMsg>) {
        let op = self.session.request(
            ctx,
            CoordReq::Get {
                path: Arc::clone(&self.master_path),
            },
        );
        self.inflight.insert(op, Intent::CheckMaster);
    }

    fn demote(&mut self, ctx: &mut Ctx<'_, MqMsg>) {
        if self.flaws.deadlock_on_demotion && !self.pending.is_empty() {
            // rabbitmq #714: the follower thread starts while the leader
            // thread still holds the replication lock.
            ctx.note(|| "DEADLOCK: demoted with in-flight replication (flaw)".to_string());
            self.deadlocked = true;
            return;
        }
        ctx.note(|| "demoted to replica".to_string());
        self.is_master = false;
        let pending = std::mem::take(&mut self.pending);
        for (_, p) in pending {
            match p.deliver {
                Some(v) => {
                    Arc::make_mut(&mut self.queues).entry(p.queue).or_default().push_front(v);
                    ctx.send(
                        p.client,
                        MqMsg::RecvResp {
                            op_id: p.op_id,
                            val: None,
                            ok: false,
                        },
                    );
                }
                None => ctx.send(p.client, MqMsg::SendResp { op_id: p.op_id, ok: false }),
            }
        }
    }

    /// Files a coordination answer. Only answers to ops still in
    /// `inflight` reach the session: the broker never closes an op, so a
    /// duplicate, or an answer to an op a crash forgot, would otherwise
    /// wait in the session's mailbox for the rest of the run.
    fn on_coord(&mut self, ctx: &mut Ctx<'_, MqMsg>, cm: CoordMsg) {
        let CoordMsg::Resp { op_id, .. } = cm else {
            return;
        };
        let Some(&intent) = self.inflight.get(&op_id) else {
            return;
        };
        self.session.on_message(cm);
        if let Some(resp) = self.session.mailbox.take(op_id) {
            self.inflight.remove(&op_id);
            self.handle_intent(ctx, intent, resp);
        }
    }

    fn handle_intent(&mut self, ctx: &mut Ctx<'_, MqMsg>, intent: Intent, resp: CoordResp) {
        match (intent, resp) {
            (Intent::CheckMaster, CoordResp::Value(Some(m))) => {
                let master = NodeId(m as usize);
                let previous = self.known_master;
                self.known_master = Some(master);
                if self.is_master && master != self.me {
                    self.demote(ctx);
                }
                if previous != Some(master) && master == self.me {
                    self.is_master = true;
                }
            }
            (Intent::CheckMaster, CoordResp::Value(None)) => {
                if ctx.now() < self.acquire_backoff_until {
                    return;
                }
                // No master registered: race to acquire.
                let op = self.session.request(
                    ctx,
                    CoordReq::Create {
                        path: Arc::clone(&self.master_path),
                        val: self.me.0 as u64,
                        ephemeral: true,
                    },
                );
                self.inflight.insert(op, Intent::AcquireMaster);
            }
            (Intent::AcquireMaster, CoordResp::Ok) => {
                ctx.note(|| "became queue master".to_string());
                self.is_master = true;
                self.known_master = Some(self.me);
                ctx.broadcast(&self.brokers, MqMsg::MasterAnnounce { master: self.me });
            }
            _ => {}
        }
    }

    fn on_send(&mut self, ctx: &mut Ctx<'_, MqMsg>, from: NodeId, op_id: u64, queue: String, val: u64) {
        if !self.is_master {
            ctx.send(from, MqMsg::SendResp { op_id, ok: false });
            return;
        }
        Arc::make_mut(&mut self.queues).entry(queue.clone()).or_default().push_back(val);
        if self.flaws.ack_producer_locally {
            // Jepsen-Kafka: the producer hears OK the moment the leader's
            // local log has the message; replication runs behind.
            ctx.send(from, MqMsg::SendResp { op_id, ok: true });
            let seq = self.next_seq();
            ctx.broadcast(
                &self.brokers,
                MqMsg::Replicate {
                    seq,
                    queue,
                    op: QOp::Push(val),
                },
            );
            return;
        }
        self.replicate(
            ctx,
            queue.clone(),
            QOp::Push(val),
            PendingSpec {
                client: from,
                op_id,
                deliver: None,
                queue,
            },
        );
    }

    fn on_recv(&mut self, ctx: &mut Ctx<'_, MqMsg>, from: NodeId, op_id: u64, queue: String) {
        if !self.is_master {
            ctx.send(
                from,
                MqMsg::RecvResp {
                    op_id,
                    val: None,
                    ok: false,
                },
            );
            return;
        }
        let popped = Arc::make_mut(&mut self.queues).entry(queue.clone()).or_default().pop_front();
        let Some(val) = popped else {
            ctx.send(
                from,
                MqMsg::RecvResp {
                    op_id,
                    val: None,
                    ok: true,
                },
            );
            return;
        };
        if self.flaws.ack_consumer_locally {
            // AMQ-6978: deliver now, replicate the removal in the background.
            ctx.send(
                from,
                MqMsg::RecvResp {
                    op_id,
                    val: Some(val),
                    ok: true,
                },
            );
            let seq = self.next_seq();
            ctx.broadcast(
                &self.brokers,
                MqMsg::Replicate {
                    seq,
                    queue,
                    op: QOp::Pop(val),
                },
            );
            return;
        }
        self.replicate(
            ctx,
            queue.clone(),
            QOp::Pop(val),
            PendingSpec {
                client: from,
                op_id,
                deliver: Some(val),
                queue,
            },
        );
    }

    fn next_seq(&mut self) -> u64 {
        self.repl_seq += 1;
        self.repl_seq
    }

    fn replicate(&mut self, ctx: &mut Ctx<'_, MqMsg>, queue: String, op: QOp, spec: PendingSpec) {
        let seq = self.next_seq();
        // Majority quorum: the master's own copy plus `needed` replicas.
        let needed = (self.brokers.len() / 2 + 1).saturating_sub(1).max(1);
        self.pending.insert(
            seq,
            PendingRepl {
                client: spec.client,
                op_id: spec.op_id,
                acks: BTreeSet::new(),
                needed,
                deliver: spec.deliver,
                queue: spec.queue,
            },
        );
        ctx.broadcast(&self.brokers, MqMsg::Replicate { seq, queue, op });
        if !self.flaws.block_forever_on_replication {
            ctx.set_timer(self.replication_timeout, TAG_REPL + seq);
        }
    }
}

impl Node<MqMsg> for Broker {
    /// Boot.
    fn start(&mut self, ctx: &mut Ctx<'_, MqMsg>) {
        self.session.heartbeat(ctx);
        self.check_master(ctx);
        ctx.set_timer(100, TAG_TICK);
    }

    /// Message dispatch.
    fn on_message(&mut self, ctx: &mut Ctx<'_, MqMsg>, from: NodeId, msg: MqMsg) {
        if self.deadlocked {
            return;
        }
        match msg {
            MqMsg::Coord(cm) => self.on_coord(ctx, cm),
            MqMsg::Send { op_id, queue, val } => self.on_send(ctx, from, op_id, queue, val),
            MqMsg::Recv { op_id, queue } => self.on_recv(ctx, from, op_id, queue),
            MqMsg::Replicate { seq, queue, op } => {
                let q = Arc::make_mut(&mut self.queues).entry(queue).or_default();
                match op {
                    QOp::Push(v) => q.push_back(v),
                    QOp::Pop(v) => {
                        if let Some(pos) = q.iter().position(|&x| x == v) {
                            q.remove(pos);
                        }
                    }
                }
                ctx.send(from, MqMsg::ReplicateAck { seq });
            }
            MqMsg::ReplicateAck { seq } => {
                let done = match self.pending.get_mut(&seq) {
                    Some(p) => {
                        p.acks.insert(from);
                        p.acks.len() >= p.needed
                    }
                    None => false,
                };
                if done {
                    let p = self.pending.remove(&seq).expect("present"); // lint:allow(unwrap-expect)
                    match p.deliver {
                        Some(v) => ctx.send(
                            p.client,
                            MqMsg::RecvResp {
                                op_id: p.op_id,
                                val: Some(v),
                                ok: true,
                            },
                        ),
                        None => ctx.send(p.client, MqMsg::SendResp { op_id: p.op_id, ok: true }),
                    }
                }
            }
            MqMsg::QueueSync { queues } => {
                if !self.is_master {
                    self.queues = queues;
                }
            }
            MqMsg::MasterAnnounce { master } => {
                self.known_master = Some(master);
                if self.is_master && master != self.me {
                    self.demote(ctx);
                }
            }
            MqMsg::SendResp { .. } | MqMsg::RecvResp { .. } => {}
        }
    }

    /// Timer dispatch.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, MqMsg>, _t: TimerId, tag: u64) {
        if self.deadlocked {
            return;
        }
        match tag {
            TAG_TICK => {
                self.session.heartbeat(ctx);
                self.check_master(ctx);
                if self.is_master {
                    let queues = Arc::clone(&self.queues);
                    ctx.broadcast(&self.brokers, MqMsg::QueueSync { queues });
                }
                ctx.set_timer(100, TAG_TICK);
            }
            t if t >= TAG_REPL => {
                if self.flaws.block_forever_on_replication {
                    return; // AMQ-7064: there is no timeout.
                }
                let seq = t - TAG_REPL;
                if let Some(p) = self.pending.remove(&seq) {
                    // Fixed behaviour: abort, restore state, step down so a
                    // connected replica can take over.
                    if let Some(v) = p.deliver {
                        Arc::make_mut(&mut self.queues).entry(p.queue).or_default().push_front(v);
                        ctx.send(
                            p.client,
                            MqMsg::RecvResp {
                                op_id: p.op_id,
                                val: None,
                                ok: false,
                            },
                        );
                    } else {
                        ctx.send(p.client, MqMsg::SendResp { op_id: p.op_id, ok: false });
                    }
                    if self.is_master {
                        ctx.note(|| "master cannot replicate; releasing mastership".to_string());
                        self.is_master = false;
                        self.known_master = None;
                        self.acquire_backoff_until = ctx.now() + 2000;
                        let op = self.session.request(
                            ctx,
                            CoordReq::Delete {
                                path: Arc::clone(&self.master_path),
                            },
                        );
                        self.inflight.insert(op, Intent::ReleaseMaster);
                    }
                }
            }
            _ => {}
        }
    }

    /// Crash semantics: the in-memory queue dies with the broker.
    fn on_crash(&mut self) {
        self.is_master = false;
        self.known_master = None;
        self.pending.clear();
        self.inflight.clear();
        self.queues = Queues::default();
        self.deadlocked = false;
    }
}

struct PendingSpec {
    client: NodeId,
    op_id: u64,
    deliver: Option<u64>,
    queue: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_broker_session_keeps_no_answer_it_will_never_take() {
        use neat::DegradeSpec;
        use simnet::DegradeRule;

        use crate::cluster::MqCluster;

        // Every coordination answer reaches the brokers twice: the broker
        // takes the first, and the copy lands after the op left `inflight`.
        let mut mq = MqCluster::build(
            3,
            BrokerFlaws::flawed(),
            coord::CoordFlaws::default(),
            8,
            false,
        );
        mq.wait_for_master(3_000, None).expect("a healthy deployment elects a master");
        mq.neat.degrade(DegradeSpec::Simplex {
            src: vec![mq.coord],
            dst: mq.brokers.clone(),
            rule: DegradeRule::duplicating(1.0),
        });
        mq.neat.sleep(1_000);
        for &b in &mq.brokers {
            let broker = mq.neat.world.app(b).broker();
            let (waiting, open) = (broker.session.mailbox.waiting(), broker.inflight.len());
            assert!(waiting <= open, "{b:?} holds {waiting} answers for {open} open ops");
        }
    }

    #[test]
    fn flaw_profiles_differ_as_documented() {
        let flawed = BrokerFlaws::flawed();
        assert!(flawed.block_forever_on_replication);
        assert!(flawed.ack_consumer_locally);
        assert!(flawed.deadlock_on_demotion);
        assert!(!flawed.ack_producer_locally);

        let fixed = BrokerFlaws::fixed();
        assert!(!fixed.block_forever_on_replication);
        assert!(!fixed.ack_consumer_locally);
        assert!(!fixed.deadlock_on_demotion);
        assert!(!fixed.ack_producer_locally);

        let kafka = BrokerFlaws::kafka_acks_one();
        assert!(kafka.ack_producer_locally, "only the acks=1 flaw is on");
        assert!(!kafka.block_forever_on_replication);
    }

    #[test]
    fn wire_embedding_round_trips_coord_traffic() {
        let wrapped = MqMsg::from_coord(CoordMsg::SessionHb);
        assert!(matches!(wrapped.to_coord(), Some(CoordMsg::SessionHb)));
        let own = MqMsg::Send {
            op_id: 1,
            queue: "q".into(),
            val: 2,
        };
        assert!(own.to_coord().is_none());
    }

    #[test]
    fn queue_accessor_reflects_contents() {
        let b = Broker::new(
            NodeId(1),
            vec![NodeId(1), NodeId(2)],
            vec![NodeId(0)],
            BrokerFlaws::fixed(),
        );
        assert!(b.queue("q").is_empty());
        assert!(!b.is_master());
        assert_eq!(b.known_master(), None);
    }
}
