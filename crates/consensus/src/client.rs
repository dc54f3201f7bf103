//! The client role's reply inbox and synchronous wrapper for the Raft
//! cluster.

use neat::{
    cluster::{Mailbox, Node},
    Neat, Op, Outcome,
};
use simnet::{Ctx, NodeId};

use crate::{
    cluster::RaftProc,
    raft::{RaftMsg, RaftReq, RaftResp},
};

impl Node<RaftMsg> for Mailbox<RaftResp> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, RaftMsg>, _from: NodeId, msg: RaftMsg) {
        if let RaftMsg::ClientResp { op_id, resp } = msg {
            self.put(op_id, resp);
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
                RaftProc::client_mut,
                |_, ctx, op_id| ctx.send(target, RaftMsg::ClientReq { op_id, req }),
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
