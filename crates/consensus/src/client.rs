//! Client process and synchronous wrapper for the Raft cluster.

use std::collections::BTreeMap;

use neat::{cluster::Node, Neat, Op, Outcome};
use simnet::{Ctx, NodeId};

use crate::{
    cluster::RaftProc,
    raft::{RaftMsg, RaftReq, RaftResp},
};

/// Client-side process: sends requests and collects responses by id.
#[derive(Default)]
pub struct ClientProc {
    next_op: u64,
    results: BTreeMap<u64, RaftResp>,
}

impl ClientProc {
    /// Sends `req` to `server`, returning the operation id.
    pub fn start(&mut self, ctx: &mut Ctx<'_, RaftMsg>, server: NodeId, req: RaftReq) -> u64 {
        let op_id = (ctx.id().0 as u64) << 32 | self.next_op;
        self.next_op += 1;
        ctx.send(server, RaftMsg::ClientReq { op_id, req });
        op_id
    }

    /// Removes and returns the response for `op_id`, if present.
    pub fn take(&mut self, op_id: u64) -> Option<RaftResp> {
        self.results.remove(&op_id)
    }
}

impl Node<RaftMsg> for ClientProc {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, RaftMsg>, _from: NodeId, msg: RaftMsg) {
        if let RaftMsg::ClientResp { op_id, resp } = msg {
            self.results.insert(op_id, resp);
        }
    }
}

/// Synchronous client handle for one client node and one target server.
#[derive(Clone, Copy, Debug)]
pub struct RaftClient {
    pub node: NodeId,
    pub target: NodeId,
}

impl RaftClient {
    /// Points the handle at a different server.
    pub fn via(self, target: NodeId) -> Self {
        Self { target, ..self }
    }

    fn run(&self, neat: &mut Neat<RaftProc>, req: RaftReq, op: Op) -> Outcome {
        let Self { node, target } = *self;
        neat.recorded(node, op, |neat| {
            let resp = neat.request(
                node,
                neat.op_timeout,
                |p, ctx| p.client_mut().start(ctx, target, req),
                |p, op_id| p.client_mut().take(op_id),
            );
            match resp {
                Some(RaftResp::Ok) => Outcome::Ok(None),
                Some(RaftResp::Value(v)) => Outcome::Ok(v),
                Some(RaftResp::Fail) => Outcome::Fail,
                None => Outcome::Timeout,
            }
        })
    }

    /// Replicated write.
    pub fn put(&self, neat: &mut Neat<RaftProc>, key: &str, val: u64) -> Outcome {
        self.run(
            neat,
            RaftReq::Put {
                key: key.into(),
                val,
            },
            Op::Write {
                key: key.into(),
                val,
            },
        )
    }

    /// Leased leader read.
    pub fn get(&self, neat: &mut Neat<RaftProc>, key: &str) -> Outcome {
        self.run(
            neat,
            RaftReq::Get { key: key.into() },
            Op::Read { key: key.into() },
        )
    }

    /// Replicated delete.
    pub fn delete(&self, neat: &mut Neat<RaftProc>, key: &str) -> Outcome {
        self.run(
            neat,
            RaftReq::Delete { key: key.into() },
            Op::Delete { key: key.into() },
        )
    }

    /// Administrative membership change (the paper's "admin removing a
    /// node" event class, Table 8).
    pub fn reconfigure(&self, neat: &mut Neat<RaftProc>, members: Vec<NodeId>) -> Outcome {
        self.run(
            neat,
            RaftReq::Reconfigure {
                members: members.clone(),
            },
            Op::Other {
                label: format!("reconfigure{members:?}"),
            },
        )
    }
}
