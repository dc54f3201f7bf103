//! Coordination-service wire types.
//!
//! Everything is generic over [`CoordWire`], which lets other systems (the
//! message queue crate embeds a coordination ensemble in its own world, the
//! way ActiveMQ embeds ZooKeeper) wrap these messages in their own enum.

use std::{collections::BTreeMap, sync::Arc};

use simnet::NodeId;

/// A node in the hierarchical namespace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Znode {
    pub val: u64,
    /// `Some(session)` for ephemeral nodes, deleted when the owning
    /// session expires.
    pub owner: Option<NodeId>,
}

/// The data tree.
pub type Tree = BTreeMap<String, Znode>;

/// A committed transaction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Txn {
    pub zxid: u64,
    pub kind: TxnKind,
}

/// Transaction payloads.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TxnKind {
    Create {
        path: String,
        val: u64,
        owner: Option<NodeId>,
    },
    Set {
        path: String,
        val: u64,
    },
    Delete {
        path: String,
    },
}

impl TxnKind {
    /// The path this transaction touches.
    pub fn path(&self) -> &str {
        match self {
            TxnKind::Create { path, .. } | TxnKind::Set { path, .. } | TxnKind::Delete { path } => {
                path
            }
        }
    }
}

/// Client requests. Paths are shared: a client that asks about one znode
/// over and over keeps one allocation for it, and a request sent to the
/// whole ensemble shares it across the copies. An `Arc<str>` prints
/// exactly as a `String`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoordReq {
    /// Create a znode; fails with [`CoordResp::Exists`] when present.
    /// Ephemeral creates bind the node to the requesting session.
    Create {
        path: Arc<str>,
        val: u64,
        ephemeral: bool,
    },
    Set {
        path: Arc<str>,
        val: u64,
    },
    Delete {
        path: Arc<str>,
    },
    /// Local read at whatever server receives it (ZooKeeper semantics).
    Get {
        path: Arc<str>,
    },
}

/// Client responses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoordResp {
    Ok,
    /// Create refused: the znode already exists.
    Exists,
    /// The operation failed (no quorum, unknown path for set, …).
    Fail,
    /// Read result (`None` = no such znode).
    Value(Option<u64>),
    /// This server is not the leader; retry at `hint`.
    NotLeader { hint: Option<NodeId> },
}

/// The coordination protocol messages.
#[derive(Clone, Debug)]
pub enum CoordMsg {
    Req { op_id: u64, req: CoordReq },
    Resp { op_id: u64, resp: CoordResp },
    /// Session keep-alive, broadcast by clients to every ensemble member.
    SessionHb,
    Heartbeat { term: u64, zxid: u64 },
    HeartbeatAck { term: u64 },
    RequestVote { term: u64, zxid: u64 },
    Vote { term: u64, granted: bool },
    /// Leader → follower: one transaction.
    Propose { term: u64, txn: Txn },
    ProposeAck { term: u64, zxid: u64 },
    /// Follower → leader: "I am at `zxid`, bring me up to date."
    SyncReq { zxid: u64 },
    /// In-memory-log sync: replay these transactions, then trust `to_zxid`.
    SyncLog {
        term: u64,
        txns: Vec<Txn>,
        to_zxid: u64,
    },
    /// Storage sync: replace the whole tree.
    SyncSnapshot { term: u64, tree: Tree, zxid: u64 },
    /// Chunked storage sync (throttled transfers): one piece of the tree.
    SyncChunk {
        term: u64,
        /// 0-based chunk index.
        part: u32,
        /// Total number of chunks in this transfer.
        total: u32,
        entries: Vec<(String, Znode)>,
        /// The zxid the learner reaches once the whole transfer lands.
        zxid: u64,
    },
}

/// Embeds [`CoordMsg`] in a host protocol. Implemented by [`CoordMsg`]
/// itself (identity) and by any system that hosts a coordination ensemble
/// inside its own message enum.
pub trait CoordWire: Clone + std::fmt::Debug + 'static {
    /// Wraps a coordination message.
    fn from_coord(msg: CoordMsg) -> Self;
    /// Unwraps, returning `None` for host-protocol messages.
    fn to_coord(self) -> Option<CoordMsg>;
}

impl CoordWire for CoordMsg {
    fn from_coord(msg: CoordMsg) -> Self {
        msg
    }
    fn to_coord(self) -> Option<CoordMsg> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_wire_round_trips() {
        let m = CoordMsg::SessionHb;
        let wrapped = CoordMsg::from_coord(m);
        assert!(matches!(wrapped.to_coord(), Some(CoordMsg::SessionHb)));
    }

    #[test]
    fn txn_kind_paths() {
        let t = TxnKind::Delete { path: "/a".into() };
        assert_eq!(t.path(), "/a");
        let c = TxnKind::Create {
            path: "/b".into(),
            val: 0,
            owner: None,
        };
        assert_eq!(c.path(), "/b");
    }
}
