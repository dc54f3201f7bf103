//! Coordination clients: the embeddable session and the test wrapper.

use std::collections::BTreeMap;

use neat::{cluster::Node, Neat, Op, OpRecord, Outcome};
use simnet::{Ctx, NodeId, TimerId};

use crate::{
    cluster::CoordProc,
    msg::{CoordMsg, CoordReq, CoordResp, CoordWire},
};

/// An embeddable coordination-service session.
///
/// Host applications (e.g., message-queue brokers tracking their master
/// through the coordination service, as ActiveMQ does with ZooKeeper) own
/// one of these: they call [`CoordSession::heartbeat`] from a periodic
/// timer, fire requests with [`CoordSession::request`], and feed every
/// unwrapped [`CoordMsg`] to [`CoordSession::on_message`].
pub struct CoordSession {
    servers: Vec<NodeId>,
    next_op: u64,
    results: BTreeMap<u64, CoordResp>,
}

impl CoordSession {
    /// Creates a session talking to `servers`.
    pub fn new(servers: Vec<NodeId>) -> Self {
        Self {
            servers,
            next_op: 0,
            results: BTreeMap::new(),
        }
    }

    /// Broadcasts a session keep-alive to the ensemble.
    pub fn heartbeat<M: CoordWire>(&self, ctx: &mut Ctx<'_, M>) {
        for &s in &self.servers {
            ctx.send(s, M::from_coord(CoordMsg::SessionHb));
        }
    }

    /// Sends `req` to the whole ensemble (only the leader acts on writes;
    /// reads are answered locally by each member, first answer wins) and
    /// returns the operation id to poll with [`CoordSession::take`].
    pub fn request<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>, req: CoordReq) -> u64 {
        let op_id = (ctx.id().0 as u64) << 32 | self.next_op;
        self.next_op += 1;
        match &req {
            CoordReq::Get { .. } => {
                // Local read: ask one member (the first) to keep a single
                // authoritative answer per op.
                ctx.send(
                    self.servers[0],
                    M::from_coord(CoordMsg::Req {
                        op_id,
                        req: req.clone(),
                    }),
                );
            }
            _ => {
                for &s in &self.servers {
                    ctx.send(
                        s,
                        M::from_coord(CoordMsg::Req {
                            op_id,
                            req: req.clone(),
                        }),
                    );
                }
            }
        }
        op_id
    }

    /// Like [`CoordSession::request`] but aimed at one specific member —
    /// used to read a particular (possibly corrupted) replica.
    pub fn request_at<M: CoordWire>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        server: NodeId,
        req: CoordReq,
    ) -> u64 {
        let op_id = (ctx.id().0 as u64) << 32 | self.next_op;
        self.next_op += 1;
        ctx.send(server, M::from_coord(CoordMsg::Req { op_id, req }));
        op_id
    }

    /// Records responses; ignores non-response traffic.
    pub fn on_message(&mut self, msg: CoordMsg) {
        if let CoordMsg::Resp { op_id, resp } = msg {
            // First definitive answer wins; NotLeader redirects only fill
            // the slot if nothing better arrived.
            match self.results.get(&op_id) {
                None => {
                    self.results.insert(op_id, resp);
                }
                Some(CoordResp::NotLeader { .. }) => {
                    self.results.insert(op_id, resp);
                }
                Some(_) => {}
            }
        }
    }

    /// Removes and returns a definitive response for `op_id`.
    pub fn take(&mut self, op_id: u64) -> Option<CoordResp> {
        match self.results.get(&op_id) {
            Some(CoordResp::NotLeader { .. }) | None => None,
            Some(_) => self.results.remove(&op_id),
        }
    }
}

/// Standalone coordination client process (heartbeats automatically).
pub struct CoordClientProc {
    /// The session; public so the cluster wrapper can drive it.
    pub session: CoordSession,
}

impl CoordClientProc {
    const TAG_HB: u64 = 1;

    /// Creates a client of `servers`.
    pub fn new(servers: Vec<NodeId>) -> Self {
        Self {
            session: CoordSession::new(servers),
        }
    }

    fn heartbeat(&self, ctx: &mut Ctx<'_, CoordMsg>) {
        self.session.heartbeat(ctx);
        ctx.set_timer(100, Self::TAG_HB);
    }
}

impl Node<CoordMsg> for CoordClientProc {
    fn start(&mut self, ctx: &mut Ctx<'_, CoordMsg>) {
        self.heartbeat(ctx);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<'_, CoordMsg>, _from: NodeId, msg: CoordMsg) {
        self.session.on_message(msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, CoordMsg>, _timer: TimerId, tag: u64) {
        if tag == Self::TAG_HB {
            self.heartbeat(ctx);
        }
    }
}

/// Synchronous test wrapper bound to one client node.
#[derive(Clone, Copy, Debug)]
pub struct CoordClient {
    pub node: NodeId,
}

impl CoordClient {
    fn finish(
        &self,
        neat: &mut Neat<CoordProc>,
        op_id: u64,
        op: Op,
        start: u64,
        lock_style: bool,
    ) -> Outcome {
        let node = self.node;
        let resp = neat.run_op(
            |_| Ok(()),
            |w| w.app_mut(node).client_mut().session.take(op_id),
        );
        let outcome = match resp {
            Some(CoordResp::Ok) => Outcome::Ok(None),
            Some(CoordResp::Value(v)) => Outcome::Ok(v),
            Some(CoordResp::Exists) => Outcome::Fail,
            Some(CoordResp::Fail) => Outcome::Fail,
            Some(CoordResp::NotLeader { .. }) | None => Outcome::Timeout,
        };
        let end = neat.now();
        neat.record(OpRecord {
            client: node,
            op,
            outcome: outcome.clone(),
            start,
            end,
        });
        let _ = lock_style;
        outcome
    }

    /// Creates a persistent znode (recorded as a write).
    pub fn create(&self, neat: &mut Neat<CoordProc>, path: &str, val: u64) -> Outcome {
        let start = neat.now();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                p.client_mut().session.request(
                    ctx,
                    CoordReq::Create {
                        path: path.into(),
                        val,
                        ephemeral: false,
                    },
                )
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        self.finish(
            neat,
            op_id,
            Op::Write {
                key: path.into(),
                val,
            },
            start,
            false,
        )
    }

    /// Creates an ephemeral znode — the lock-acquire idiom (recorded as an
    /// acquire).
    pub fn acquire(&self, neat: &mut Neat<CoordProc>, path: &str) -> Outcome {
        let start = neat.now();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                p.client_mut().session.request(
                    ctx,
                    CoordReq::Create {
                        path: path.into(),
                        val: 1,
                        ephemeral: true,
                    },
                )
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        self.finish(neat, op_id, Op::Acquire { key: path.into() }, start, true)
    }

    /// Updates a znode's value.
    pub fn set(&self, neat: &mut Neat<CoordProc>, path: &str, val: u64) -> Outcome {
        let start = neat.now();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                p.client_mut().session.request(
                    ctx,
                    CoordReq::Set {
                        path: path.into(),
                        val,
                    },
                )
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        self.finish(
            neat,
            op_id,
            Op::Write {
                key: path.into(),
                val,
            },
            start,
            false,
        )
    }

    /// Deletes a znode.
    pub fn delete(&self, neat: &mut Neat<CoordProc>, path: &str) -> Outcome {
        let start = neat.now();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                p.client_mut()
                    .session
                    .request(ctx, CoordReq::Delete { path: path.into() })
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        self.finish(neat, op_id, Op::Delete { key: path.into() }, start, false)
    }

    /// Reads a znode at a specific ensemble member (local read).
    pub fn get_at(&self, neat: &mut Neat<CoordProc>, server: NodeId, path: &str) -> Outcome {
        let start = neat.now();
        let op_id = neat
            .world
            .call(self.node, |p, ctx| {
                p.client_mut()
                    .session
                    .request_at(ctx, server, CoordReq::Get { path: path.into() })
            })
            .expect("client alive"); // lint:allow(unwrap-expect)
        self.finish(neat, op_id, Op::Read { key: path.into() }, start, false)
    }
}
