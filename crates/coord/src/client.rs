//! Coordination clients: the embeddable session and the test wrapper.

use std::collections::BTreeMap;

use neat::{cluster::Node, Neat, Op, Outcome};
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
        let to = match req {
            // Local read: ask one member (the first) to keep a single
            // authoritative answer per op.
            CoordReq::Get { .. } => &self.servers[..1],
            _ => &self.servers[..],
        };
        ctx.broadcast(to, M::from_coord(CoordMsg::Req { op_id, req }));
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
    /// One recorded round trip: `send` fires the request from the session
    /// and returns its op id.
    fn run(
        &self,
        neat: &mut Neat<CoordProc>,
        op: Op,
        send: impl FnOnce(&mut CoordSession, &mut Ctx<'_, CoordMsg>) -> u64,
    ) -> Outcome {
        let node = self.node;
        neat.recorded(node, op, |neat| {
            let resp = neat.request(
                node,
                neat.op_timeout,
                |p, ctx| send(&mut p.client_mut().session, ctx),
                |p, op_id| p.client_mut().session.take(op_id),
            );
            match resp {
                Some(CoordResp::Ok) => Outcome::Ok(None),
                Some(CoordResp::Value(v)) => Outcome::Ok(v),
                Some(CoordResp::Exists) => Outcome::Fail,
                Some(CoordResp::Fail) => Outcome::Fail,
                Some(CoordResp::NotLeader { .. }) | None => Outcome::Timeout,
            }
        })
    }

    /// Creates a persistent znode (recorded as a write).
    pub fn create(&self, neat: &mut Neat<CoordProc>, path: &str, val: u64) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Create {
            path: path.clone(),
            val,
            ephemeral: false,
        };
        self.run(neat, Op::Write { key: path, val }, |s, ctx| s.request(ctx, req))
    }

    /// Creates an ephemeral znode — the lock-acquire idiom (recorded as an
    /// acquire).
    pub fn acquire(&self, neat: &mut Neat<CoordProc>, path: &str) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Create {
            path: path.clone(),
            val: 1,
            ephemeral: true,
        };
        self.run(neat, Op::Acquire { key: path }, |s, ctx| s.request(ctx, req))
    }

    /// Updates a znode's value.
    pub fn set(&self, neat: &mut Neat<CoordProc>, path: &str, val: u64) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Set {
            path: path.clone(),
            val,
        };
        self.run(neat, Op::Write { key: path, val }, |s, ctx| s.request(ctx, req))
    }

    /// Deletes a znode.
    pub fn delete(&self, neat: &mut Neat<CoordProc>, path: &str) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Delete { path: path.clone() };
        self.run(neat, Op::Delete { key: path }, |s, ctx| s.request(ctx, req))
    }

    /// Reads a znode at a specific ensemble member (local read).
    pub fn get_at(&self, neat: &mut Neat<CoordProc>, server: NodeId, path: &str) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Get { path: path.clone() };
        self.run(neat, Op::Read { key: path }, |s, ctx| s.request_at(ctx, server, req))
    }
}
