//! Wire messages, log entries, and client request/response types.

use std::sync::Arc;

use simnet::{NodeId, Time};

/// A log entry's effect on the key-value store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EntryOp {
    /// Set the key to a value.
    Put(u64),
    /// Remove the key.
    Delete,
    /// Add to the key's numeric value (non-idempotent, used to expose
    /// double execution).
    Incr(u64),
}

/// One replicated log entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Entry {
    /// Election term under which the entry was created.
    pub term: u64,
    /// Primary-side timestamp, the `LatestTimestamp` election metric.
    pub ts: Time,
    /// Shared, so copying an entry into the next log version allocates
    /// nothing.
    pub key: Arc<str>,
    pub op: EntryOp,
}

/// One immutable version of a replicated log. The leader, every in-flight
/// [`Msg::Replicate`] / [`Msg::SyncResp`] and every follower that adopted
/// the version hold the same allocation; an append copies it once.
pub type Log = Arc<Vec<Entry>>;

/// A client request. A single-key request carries the key its history
/// record holds ([`neat::Neat::key`]), so sending it allocates nothing and
/// the leader's log entry shares the key too.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Req {
    Write { key: Arc<str>, val: u64 },
    Read { key: Arc<str> },
    Delete { key: Arc<str> },
    Incr { key: Arc<str>, by: u64 },
    /// A multi-key write the client expects to land atomically — either
    /// every `(key, val)` pair or none (the `atomic_batch` config toggle
    /// decides whether the server honours that).
    Batch { ops: Vec<(String, u64)> },
}

/// A server response to a client request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Resp {
    /// The mutation was acknowledged.
    Ok,
    /// The mutation (or routing) explicitly failed.
    Fail,
    /// A read's result (`None` = key absent).
    Value(Option<u64>),
}

/// Summary of a node's log, carried on heartbeats and vote requests so
/// voters and rival leaders can apply the election criterion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogSummary {
    pub term: u64,
    pub log_len: usize,
    pub committed: usize,
    pub last_ts: Time,
}

/// The protocol message set.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Client → server.
    ClientReq { op_id: u64, req: Req },
    /// Server → client.
    ClientResp { op_id: u64, resp: Resp },
    /// Coordinator → primary (Elasticsearch request routing).
    Forward {
        op_id: u64,
        client: NodeId,
        req: Req,
    },
    /// Primary → coordinator.
    ForwardResp {
        op_id: u64,
        client: NodeId,
        resp: Resp,
    },
    /// Leader → all servers, every heartbeat interval.
    Heartbeat { summary: LogSummary },
    /// Server → leader.
    HeartbeatAck { term: u64 },
    /// Candidate → all servers.
    RequestVote { summary: LogSummary },
    /// Voter → candidate.
    Vote { term: u64, granted: bool },
    /// A voter (notably the arbiter) tells a superseded leader to step down.
    StepDown { term: u64 },
    /// Leader → follower: full-log replication — the follower *replaces*
    /// its log, which models the consolidation step directly. The log
    /// travels by reference, so a message costs no copy however long it is.
    Replicate {
        summary: LogSummary,
        log: Log,
    },
    /// Follower → leader: acknowledged log length.
    ReplicateAck { term: u64, acked_len: usize },
    /// A deposed or divergent node asks the leader for a full copy.
    SyncReq,
    /// Full-state answer to [`Msg::SyncReq`].
    SyncResp {
        summary: LogSummary,
        log: Log,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_apply_semantics_are_distinct() {
        let put = Entry {
            term: 1,
            ts: 0,
            key: "k".into(),
            op: EntryOp::Put(5),
        };
        let incr = Entry {
            op: EntryOp::Incr(5),
            ..put.clone()
        };
        assert_ne!(put, incr);
    }

    #[test]
    fn summary_is_copyable_for_heartbeats() {
        let s = LogSummary {
            term: 2,
            log_len: 3,
            committed: 1,
            last_ts: 99,
        };
        let t = s;
        assert_eq!(s, t);
    }
}
