//! Coordination clients: the embeddable session and the test wrapper.

use neat::{
    cluster::{Mailbox, Node},
    Neat, Op, Outcome,
};
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
/// timer, fire requests with [`CoordSession::request`], feed every
/// unwrapped [`CoordMsg`] to [`CoordSession::on_message`], and take the
/// answers from [`CoordSession::mailbox`].
pub struct CoordSession {
    servers: Vec<NodeId>,
    /// Definitive answers to this session's requests, by op id.
    pub mailbox: Mailbox<CoordResp>,
}

impl CoordSession {
    /// Creates a session talking to `servers`.
    pub fn new(servers: Vec<NodeId>) -> Self {
        Self {
            servers,
            mailbox: Mailbox::default(),
        }
    }

    /// Broadcasts a session keep-alive to the ensemble.
    pub fn heartbeat<M: CoordWire>(&self, ctx: &mut Ctx<'_, M>) {
        for &s in &self.servers {
            ctx.send(s, M::from_coord(CoordMsg::SessionHb));
        }
    }

    /// Opens an op id for `req`, [`send`](CoordSession::send)s it, and
    /// returns the id to take the answer by.
    pub fn request<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>, req: CoordReq) -> u64 {
        let op_id = self.mailbox.open(ctx.id());
        self.send(ctx, op_id, req);
        op_id
    }

    /// Sends op `op_id`'s `req` to the whole ensemble (only the leader acts
    /// on writes; reads are answered locally by each member, first answer
    /// wins).
    pub fn send<M: CoordWire>(&self, ctx: &mut Ctx<'_, M>, op_id: u64, req: CoordReq) {
        let to = match req {
            // Local read: ask one member (the first) to keep a single
            // authoritative answer per op.
            CoordReq::Get { .. } => &self.servers[..1],
            _ => &self.servers[..],
        };
        ctx.broadcast(to, M::from_coord(CoordMsg::Req { op_id, req }));
    }

    /// Keeps the first definitive answer per op; a `NotLeader` redirect is
    /// no answer, and non-response traffic is ignored.
    pub fn on_message(&mut self, msg: CoordMsg) {
        match msg {
            CoordMsg::Resp { resp: CoordResp::NotLeader { .. }, .. } => {}
            CoordMsg::Resp { op_id, resp } => self.mailbox.put(op_id, resp),
            _ => {}
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
    /// One recorded round trip: `send` puts the request for the op id on
    /// the wire, from the session.
    fn run(
        &self,
        neat: &mut Neat<CoordProc>,
        op: Op,
        send: impl FnOnce(&CoordSession, &mut Ctx<'_, CoordMsg>, u64),
    ) -> Outcome {
        let node = self.node;
        neat.recorded(node, op, |neat| {
            let resp = neat.request(
                node,
                neat.op_timeout,
                |p| &mut p.client_mut().session.mailbox,
                |p, ctx, op_id| send(&p.client_mut().session, ctx, op_id),
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
        self.run(neat, Op::Write { key: path, val }, |s, ctx, op_id| s.send(ctx, op_id, req))
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
        self.run(neat, Op::Acquire { key: path }, |s, ctx, op_id| s.send(ctx, op_id, req))
    }

    /// Updates a znode's value.
    pub fn set(&self, neat: &mut Neat<CoordProc>, path: &str, val: u64) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Set {
            path: path.clone(),
            val,
        };
        self.run(neat, Op::Write { key: path, val }, |s, ctx, op_id| s.send(ctx, op_id, req))
    }

    /// Deletes a znode.
    pub fn delete(&self, neat: &mut Neat<CoordProc>, path: &str) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Delete { path: path.clone() };
        self.run(neat, Op::Delete { key: path }, |s, ctx, op_id| s.send(ctx, op_id, req))
    }

    /// Reads a znode at a specific ensemble member (local read).
    pub fn get_at(&self, neat: &mut Neat<CoordProc>, server: NodeId, path: &str) -> Outcome {
        let path = neat.key(path);
        let req = CoordReq::Get { path: path.clone() };
        self.run(neat, Op::Read { key: path }, |_, ctx, op_id| {
            ctx.send(server, CoordMsg::Req { op_id, req })
        })
    }
}
