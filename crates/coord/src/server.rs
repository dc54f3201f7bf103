//! The coordination server: ZAB-lite broadcast, two sync paths, sessions.
//!
//! The protocol keeps ZooKeeper's essential shape: a quorum-elected leader
//! (freshest `zxid` wins), primary-order broadcast with majority
//! acknowledgement, ephemeral znodes bound to heartbeat sessions, and —
//! crucially for the paper — **two synchronization mechanisms**:
//!
//! 1. *in-memory log sync* ([`CoordMsg::SyncLog`]) replays the recent
//!    committed-transaction window, and
//! 2. *storage sync* ([`CoordMsg::SyncSnapshot`]) ships the whole tree when
//!    the learner is too far behind.
//!
//! ZOOKEEPER-2099 ([`CoordFlaws::snapshot_skips_log`]): storage sync does
//! not update the in-memory log, so a snapshot-synced node that later
//! becomes leader serves log syncs from a log with a hole, corrupting its
//! learners' trees. ZOOKEEPER-2355 ([`CoordFlaws::skip_ephemeral_cleanup`]):
//! ephemeral cleanup is abandoned when a follower is unreachable, so a dead
//! session's lock nodes survive forever.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use neat::cluster::Node;
use rand::Rng;
use simnet::{Ctx, NodeId, Time, TimerId};

use crate::msg::{CoordMsg, CoordReq, CoordResp, CoordWire, Tree, Txn, TxnKind, Znode};

const TAG_ELECTION: u64 = 11;
const TAG_TICK: u64 = 12;
const TAG_OP: u64 = 10_000;
/// Throttled chunk transmission: tag encodes the outstanding transfer.
const TAG_CHUNK: u64 = 5_000_000;

/// Flaw toggles for the coordination service.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordFlaws {
    /// ZOOKEEPER-2099: a snapshot sync leaves the in-memory transaction log
    /// (and its base) untouched.
    pub snapshot_skips_log: bool,
    /// ZOOKEEPER-2355: the leader abandons ephemeral cleanup for an expired
    /// session when any follower is currently unreachable.
    pub skip_ephemeral_cleanup: bool,
    /// redis #3899-style: during a chunked storage sync the learner clears
    /// its tree and records the target zxid on the FIRST chunk. A partition
    /// that interrupts the transfer leaves a half-empty tree that claims to
    /// be fully up to date — permanent corruption with *bounded* timing
    /// (the fault must overlap the sync, §5.2).
    pub apply_chunks_in_place: bool,
}

/// Server roles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoordRole {
    Follower,
    Candidate,
    Leader,
}

struct PendingOp {
    client: NodeId,
    op_id: u64,
    acks: BTreeSet<NodeId>,
    needed: usize,
    resp: CoordResp,
}

/// One ensemble member.
pub struct CoordServer {
    me: NodeId,
    peers: Vec<NodeId>,
    flaws: CoordFlaws,
    /// In-memory committed-log window size (ZooKeeper's `committedLog`).
    pub log_window: usize,

    // Persistent-ish state (tree and zxid survive crashes, like the disk).
    tree: Tree,
    zxid: u64,
    txnlog: VecDeque<Txn>,
    /// zxid covered up to (exclusive) by entries *before* the log window:
    /// the log holds `(log_base, …]`.
    log_base: u64,

    term: u64,
    voted_in: u64,
    role: CoordRole,
    leader_hint: Option<NodeId>,
    votes: BTreeSet<NodeId>,
    last_leader_contact: Time,
    hb_acks: BTreeSet<NodeId>,
    prev_round_full: bool,
    pending: BTreeMap<u64, PendingOp>,
    /// Outstanding chunked snapshot transfers: transfer id → (dest, chunks).
    outgoing_chunks: BTreeMap<u64, (NodeId, Vec<CoordMsg>)>,
    next_transfer: u64,
    /// Incoming chunked transfer staging (fixed mode buffers here).
    incoming_chunks: Vec<(String, Znode)>,
    incoming_expected: u32,
    /// Chunk size for storage sync; 0 disables chunking (single message).
    pub chunk_size: usize,
    /// Session table (leader-maintained): session → last heartbeat.
    sessions: BTreeMap<NodeId, Time>,
    session_timeout: Time,
    heartbeat_interval: Time,
    election_timeout: Time,
}

impl CoordServer {
    /// Creates an ensemble member.
    pub fn new(me: NodeId, peers: Vec<NodeId>, flaws: CoordFlaws) -> Self {
        Self {
            me,
            peers,
            flaws,
            log_window: 5,
            tree: Tree::new(),
            zxid: 0,
            txnlog: VecDeque::new(),
            log_base: 0,
            term: 0,
            voted_in: 0,
            role: CoordRole::Follower,
            leader_hint: None,
            votes: BTreeSet::new(),
            last_leader_contact: 0,
            hb_acks: BTreeSet::new(),
            prev_round_full: true,
            pending: BTreeMap::new(),
            outgoing_chunks: BTreeMap::new(),
            next_transfer: 0,
            incoming_chunks: Vec::new(),
            incoming_expected: 0,
            chunk_size: 0,
            sessions: BTreeMap::new(),
            session_timeout: 500,
            heartbeat_interval: 50,
            election_timeout: 300,
        }
    }

    /// Virtual ms the leader keeps a session alive without a heartbeat.
    pub fn session_timeout(&self) -> Time {
        self.session_timeout
    }

    /// Current role.
    pub fn role(&self) -> CoordRole {
        self.role
    }

    /// Highest transaction id applied.
    pub fn zxid(&self) -> u64 {
        self.zxid
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The data tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The in-memory committed-log window (tests inspect the hole).
    pub fn txnlog(&self) -> &VecDeque<Txn> {
        &self.txnlog
    }

    /// Wipes this node's storage (models disk replacement); it will
    /// re-sync from the leader.
    pub fn wipe(&mut self) {
        self.tree.clear();
        self.txnlog.clear();
        self.zxid = 0;
        self.log_base = 0;
    }

    fn majority(&self) -> usize {
        self.peers.len() / 2 + 1
    }

    fn arm_election_timer<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>) {
        let base = self.election_timeout;
        let jitter = ctx.rng().gen_range(0..=base / 2);
        ctx.set_timer(base + jitter, TAG_ELECTION);
    }

    fn send<M: CoordWire>(&self, ctx: &mut Ctx<'_, M>, to: NodeId, msg: CoordMsg) {
        ctx.send(to, M::from_coord(msg));
    }

    fn broadcast<M: CoordWire>(&self, ctx: &mut Ctx<'_, M>, msg: CoordMsg) {
        for &p in &self.peers {
            if p != self.me {
                self.send(ctx, p, msg.clone());
            }
        }
    }

    fn apply(&mut self, txn: &Txn) {
        match &txn.kind {
            TxnKind::Create { path, val, owner } => {
                self.tree.insert(
                    path.clone(),
                    Znode {
                        val: *val,
                        owner: *owner,
                    },
                );
            }
            TxnKind::Set { path, val } => {
                if let Some(z) = self.tree.get_mut(path) {
                    z.val = *val;
                }
            }
            TxnKind::Delete { path } => {
                self.tree.remove(path);
            }
        }
        self.zxid = self.zxid.max(txn.zxid);
        self.txnlog.push_back(txn.clone());
        while self.txnlog.len() > self.log_window {
            let dropped = self.txnlog.pop_front().expect("non-empty"); // lint:allow(unwrap-expect)
            self.log_base = self.log_base.max(dropped.zxid);
        }
    }

    fn start_election<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.term += 1;
        self.role = CoordRole::Candidate;
        self.voted_in = self.term;
        self.votes = std::iter::once(self.me).collect();
        self.leader_hint = None;
        ctx.note(|| format!("coord: election (term {})", self.term));
        if self.votes.len() >= self.majority() {
            self.become_leader(ctx);
            return;
        }
        let m = CoordMsg::RequestVote {
            term: self.term,
            zxid: self.zxid,
        };
        self.broadcast(ctx, m);
    }

    fn become_leader<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>) {
        self.role = CoordRole::Leader;
        self.leader_hint = Some(self.me);
        self.hb_acks = std::iter::once(self.me).collect();
        self.prev_round_full = true;
        ctx.note(|| format!("coord: leader (term {})", self.term));
        let hb = CoordMsg::Heartbeat {
            term: self.term,
            zxid: self.zxid,
        };
        self.broadcast(ctx, hb);
        ctx.set_timer(self.heartbeat_interval, TAG_TICK);
    }

    fn expire_sessions<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>) {
        let now = ctx.now();
        let timeout = self.session_timeout;
        let expired: Vec<NodeId> = self
            .sessions
            .iter()
            .filter(|(_, &last)| now.saturating_sub(last) > timeout)
            .map(|(s, _)| *s)
            .collect();
        for session in expired {
            self.sessions.remove(&session);
            let paths: Vec<String> = self
                .tree
                .iter()
                .filter(|(_, z)| z.owner == Some(session))
                .map(|(p, _)| p.clone())
                .collect();
            if paths.is_empty() {
                continue;
            }
            if self.flaws.skip_ephemeral_cleanup && !self.prev_round_full {
                // ZOOKEEPER-2355: the cleanup proposal is lost because a
                // follower is unreachable — and it is never retried.
                ctx.note(|| format!(
                    "coord: LOST ephemeral cleanup for expired session {session} (flaw)"
                ));
                continue;
            }
            ctx.note(|| format!("coord: expiring session {session}"));
            for path in paths {
                self.commit_txn(ctx, TxnKind::Delete { path }, None);
            }
        }
    }

    /// Appends, applies, and replicates a transaction. When `reply` is
    /// `Some`, the client is answered after a majority acknowledges.
    fn commit_txn<M: CoordWire>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        kind: TxnKind,
        reply: Option<(NodeId, u64, CoordResp)>,
    ) {
        let txn = Txn {
            zxid: self.zxid + 1,
            kind,
        };
        self.apply(&txn);
        if let Some((client, op_id, resp)) = reply {
            self.pending.insert(
                txn.zxid,
                PendingOp {
                    client,
                    op_id,
                    acks: std::iter::once(self.me).collect(),
                    needed: self.majority(),
                    resp,
                },
            );
            ctx.set_timer(300, TAG_OP + txn.zxid);
        }
        let term = self.term;
        self.broadcast(ctx, CoordMsg::Propose { term, txn });
    }

    /// Dispatch of one unwrapped coordination message.
    fn on_coord<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: CoordMsg) {
        match msg {
            CoordMsg::SessionHb => {
                if self.role == CoordRole::Leader {
                    self.sessions.insert(from, ctx.now());
                }
            }
            CoordMsg::Heartbeat { term, zxid } => self.on_heartbeat(ctx, from, term, zxid),
            CoordMsg::HeartbeatAck { term } => {
                if self.role == CoordRole::Leader && term == self.term {
                    self.hb_acks.insert(from);
                }
            }
            CoordMsg::RequestVote { term, zxid } => {
                // Sticky voting, no term adoption on refusal.
                if self.role != CoordRole::Leader
                    && self.leader_hint.is_some()
                    && self.leader_hint != Some(from)
                    && ctx.now().saturating_sub(self.last_leader_contact) < self.election_timeout
                {
                    self.send(
                        ctx,
                        from,
                        CoordMsg::Vote {
                            term,
                            granted: false,
                        },
                    );
                    return;
                }
                if term > self.term {
                    self.term = term;
                    if self.role == CoordRole::Leader {
                        self.role = CoordRole::Follower;
                    }
                }
                let granted = self.voted_in < term && zxid >= self.zxid;
                if granted {
                    self.voted_in = term;
                }
                self.send(ctx, from, CoordMsg::Vote { term, granted });
            }
            CoordMsg::Vote { term, granted } => {
                if self.role == CoordRole::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.majority() {
                        self.become_leader(ctx);
                    }
                }
            }
            CoordMsg::Propose { term, txn } => {
                if term < self.term {
                    return;
                }
                self.term = term;
                self.role = CoordRole::Follower;
                self.leader_hint = Some(from);
                self.last_leader_contact = ctx.now();
                if txn.zxid == self.zxid + 1 {
                    let zxid = txn.zxid;
                    self.apply(&txn);
                    self.send(ctx, from, CoordMsg::ProposeAck { term, zxid });
                } else if txn.zxid > self.zxid {
                    // Gap: ask for a sync instead of applying out of order.
                    let zxid = self.zxid;
                    self.send(ctx, from, CoordMsg::SyncReq { zxid });
                }
            }
            CoordMsg::ProposeAck { term, zxid } => {
                if self.role != CoordRole::Leader || term != self.term {
                    return;
                }
                if let Some(p) = self.pending.get_mut(&zxid) {
                    p.acks.insert(from);
                    if p.acks.len() >= p.needed {
                        let p = self.pending.remove(&zxid).expect("present"); // lint:allow(unwrap-expect)
                        self.send(
                            ctx,
                            p.client,
                            CoordMsg::Resp {
                                op_id: p.op_id,
                                resp: p.resp,
                            },
                        );
                    }
                }
            }
            CoordMsg::SyncReq { zxid } => self.on_sync_req(ctx, from, zxid),
            CoordMsg::SyncLog { term, txns, to_zxid } => {
                if term < self.term {
                    return;
                }
                self.term = term;
                self.role = CoordRole::Follower;
                self.leader_hint = Some(from);
                self.last_leader_contact = ctx.now();
                for t in &txns {
                    if t.zxid > self.zxid {
                        self.apply(t);
                    }
                }
                // Trust the leader's zxid — exactly what makes the flawed
                // log-with-a-hole sync silently corrupting.
                self.zxid = self.zxid.max(to_zxid);
                ctx.note(|| format!("coord: log-synced to zxid {}", self.zxid));
            }
            CoordMsg::SyncSnapshot { term, tree, zxid } => {
                if term < self.term {
                    return;
                }
                self.term = term;
                self.role = CoordRole::Follower;
                self.leader_hint = Some(from);
                self.last_leader_contact = ctx.now();
                self.tree = tree;
                self.zxid = zxid;
                if self.flaws.snapshot_skips_log {
                    // ZOOKEEPER-2099: storage sync updates the tree but NOT
                    // the in-memory transaction log.
                    ctx.note(|| format!(
                        "coord: SNAPSHOT-synced to zxid {zxid} (in-memory log untouched, flaw)"
                    ));
                } else {
                    self.txnlog.clear();
                    self.log_base = zxid;
                    ctx.note(|| format!("coord: snapshot-synced to zxid {zxid}"));
                }
            }
            CoordMsg::SyncChunk {
                term,
                part,
                total,
                entries,
                zxid,
            } => {
                if term < self.term {
                    return;
                }
                self.term = term;
                self.role = CoordRole::Follower;
                self.leader_hint = Some(from);
                self.last_leader_contact = ctx.now();
                if self.flaws.apply_chunks_in_place {
                    // The flawed transfer: clear the tree and claim the
                    // target zxid on the FIRST chunk. An interrupted
                    // transfer leaves a half tree that looks up to date.
                    if part == 0 {
                        ctx.note(|| format!(
                            "coord: chunked sync started; zxid jumps to {zxid} (flaw)"
                        ));
                        self.tree.clear();
                        self.zxid = zxid;
                        if !self.flaws.snapshot_skips_log {
                            self.txnlog.clear();
                            self.log_base = zxid;
                        }
                    }
                    for (k, v) in entries {
                        self.tree.insert(k, v);
                    }
                    if part + 1 == total {
                        ctx.note(|| "coord: chunked sync complete".to_string());
                    }
                } else {
                    // Fixed: stage chunks and install atomically at the end.
                    if part == 0 {
                        self.incoming_chunks.clear();
                        self.incoming_expected = total;
                    }
                    self.incoming_chunks.extend(entries);
                    if part + 1 == total && self.incoming_expected == total {
                        self.tree = std::mem::take(&mut self.incoming_chunks)
                            .into_iter()
                            .collect();
                        self.zxid = zxid;
                        self.txnlog.clear();
                        self.log_base = zxid;
                        ctx.note(|| format!("coord: chunked sync installed at zxid {zxid}"));
                    }
                }
            }
            CoordMsg::Req { op_id, req } => self.on_client(ctx, from, op_id, req),
            CoordMsg::Resp { .. } => {}
        }
    }

    fn on_heartbeat<M: CoordWire>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        term: u64,
        zxid: u64,
    ) {
        if term < self.term {
            return;
        }
        if self.role == CoordRole::Leader && term == self.term && from != self.me {
            return;
        }
        self.term = term;
        self.role = CoordRole::Follower;
        self.leader_hint = Some(from);
        self.last_leader_contact = ctx.now();
        self.send(ctx, from, CoordMsg::HeartbeatAck { term });
        if zxid > self.zxid {
            let mine = self.zxid;
            self.send(ctx, from, CoordMsg::SyncReq { zxid: mine });
        }
    }

    fn on_sync_req<M: CoordWire>(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, zxid: u64) {
        if self.role != CoordRole::Leader {
            return;
        }
        if zxid >= self.log_base {
            // The in-memory log claims to cover the learner's gap. With the
            // ZOOKEEPER-2099 flaw, `log_base` can be stale and the window
            // can have a hole the learner will never notice.
            let txns: Vec<Txn> = self
                .txnlog
                .iter()
                .filter(|t| t.zxid > zxid)
                .cloned()
                .collect();
            let m = CoordMsg::SyncLog {
                term: self.term,
                txns,
                to_zxid: self.zxid,
            };
            self.send(ctx, from, m);
        } else if self.outgoing_chunks.values().any(|(d, _)| *d == from) {
            // A transfer to this learner is already in flight.
        } else if self.chunk_size == 0 {
            let m = CoordMsg::SyncSnapshot {
                term: self.term,
                tree: self.tree.clone(),
                zxid: self.zxid,
            };
            self.send(ctx, from, m);
        } else {
            // Throttled chunked transfer: one chunk per 50 ms, so the sync
            // spans real (virtual) time — the window a partition can hit.
            let entries: Vec<(String, Znode)> = self
                .tree
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            let total = entries.chunks(self.chunk_size).count().max(1) as u32;
            let chunks: Vec<CoordMsg> = entries
                .chunks(self.chunk_size.max(1))
                .enumerate()
                .map(|(part, slice)| CoordMsg::SyncChunk {
                    term: self.term,
                    part: part as u32,
                    total,
                    entries: slice.to_vec(),
                    zxid: self.zxid,
                })
                .collect();
            let id = self.next_transfer;
            self.next_transfer += 1;
            self.outgoing_chunks.insert(id, (from, chunks));
            ctx.set_timer(1, TAG_CHUNK + id);
        }
    }

    fn on_chunk_timer(&mut self, ctx: &mut Ctx<'_, impl CoordWire>, id: u64) {
        if let Some((dest, chunks)) = self.outgoing_chunks.get_mut(&id) {
            let dest = *dest;
            if chunks.is_empty() {
                self.outgoing_chunks.remove(&id);
                return;
            }
            let msg = chunks.remove(0);
            self.send(ctx, dest, msg);
            if self.outgoing_chunks.get(&id).map(|(_, c)| c.is_empty()) == Some(false) {
                ctx.set_timer(50, TAG_CHUNK + id);
            } else {
                self.outgoing_chunks.remove(&id);
            }
        }
    }

    fn on_client<M: CoordWire>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        from: NodeId,
        op_id: u64,
        req: CoordReq,
    ) {
        // Reads are served locally by any member (ZooKeeper semantics).
        if let CoordReq::Get { path } = &req {
            let v = self.tree.get(&**path).map(|z| z.val);
            self.send(
                ctx,
                from,
                CoordMsg::Resp {
                    op_id,
                    resp: CoordResp::Value(v),
                },
            );
            return;
        }
        if self.role != CoordRole::Leader {
            let hint = self.leader_hint;
            self.send(
                ctx,
                from,
                CoordMsg::Resp {
                    op_id,
                    resp: CoordResp::NotLeader { hint },
                },
            );
            return;
        }
        // Writers implicitly keep their session alive.
        self.sessions.insert(from, ctx.now());
        match req {
            CoordReq::Create {
                path,
                val,
                ephemeral,
            } => {
                if self.tree.contains_key(&*path) {
                    self.send(
                        ctx,
                        from,
                        CoordMsg::Resp {
                            op_id,
                            resp: CoordResp::Exists,
                        },
                    );
                    return;
                }
                let owner = ephemeral.then_some(from);
                let path = path.to_string();
                self.commit_txn(
                    ctx,
                    TxnKind::Create { path, val, owner },
                    Some((from, op_id, CoordResp::Ok)),
                );
            }
            CoordReq::Set { path, val } => {
                if !self.tree.contains_key(&*path) {
                    self.send(
                        ctx,
                        from,
                        CoordMsg::Resp {
                            op_id,
                            resp: CoordResp::Fail,
                        },
                    );
                    return;
                }
                let path = path.to_string();
                self.commit_txn(ctx, TxnKind::Set { path, val }, Some((from, op_id, CoordResp::Ok)));
            }
            CoordReq::Delete { path } => {
                if !self.tree.contains_key(&*path) {
                    self.send(
                        ctx,
                        from,
                        CoordMsg::Resp {
                            op_id,
                            resp: CoordResp::Fail,
                        },
                    );
                    return;
                }
                let path = path.to_string();
                self.commit_txn(ctx, TxnKind::Delete { path }, Some((from, op_id, CoordResp::Ok)));
            }
            CoordReq::Get { .. } => unreachable!("handled above"),
        }
    }

}

impl<M: CoordWire> Node<M> for CoordServer {
    /// Boot / recovery.
    fn start(&mut self, ctx: &mut Ctx<'_, M>) {
        self.role = CoordRole::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.pending.clear();
        self.sessions.clear();
        self.last_leader_contact = ctx.now();
        self.arm_election_timer(ctx);
    }

    /// Coordination traffic is unwrapped from the host wire; anything else
    /// on that wire is the host's own protocol.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M) {
        if let Some(msg) = msg.to_coord() {
            self.on_coord(ctx, from, msg);
        }
    }

    /// Timer dispatch.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, _t: TimerId, tag: u64) {
        match tag {
            TAG_ELECTION => {
                if self.role != CoordRole::Leader
                    && ctx.now().saturating_sub(self.last_leader_contact) >= self.election_timeout
                {
                    self.start_election(ctx);
                }
                self.arm_election_timer(ctx);
            }
            TAG_TICK => {
                if self.role != CoordRole::Leader {
                    return;
                }
                self.prev_round_full = self.hb_acks.len() >= self.peers.len();
                // Back to this node alone, keeping the set's one tree node.
                self.hb_acks.retain(|n| *n == self.me);
                self.hb_acks.insert(self.me);
                let hb = CoordMsg::Heartbeat {
                    term: self.term,
                    zxid: self.zxid,
                };
                self.broadcast(ctx, hb);
                self.expire_sessions(ctx);
                ctx.set_timer(self.heartbeat_interval, TAG_TICK);
            }
            t if t >= TAG_CHUNK => {
                self.on_chunk_timer(ctx, t - TAG_CHUNK);
            }
            t if t >= TAG_OP => {
                let zxid = t - TAG_OP;
                if let Some(p) = self.pending.remove(&zxid) {
                    self.send(
                        ctx,
                        p.client,
                        CoordMsg::Resp {
                            op_id: p.op_id,
                            resp: CoordResp::Fail,
                        },
                    );
                }
            }
            _ => {}
        }
    }

    /// Crash: the tree, zxid, and log survive (disk); roles and sessions
    /// are volatile.
    fn on_crash(&mut self) {
        self.role = CoordRole::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.pending.clear();
        self.sessions.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(window: usize) -> CoordServer {
        let peers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut s = CoordServer::new(NodeId(0), peers, CoordFlaws::default());
        s.log_window = window;
        s
    }

    fn txn(zxid: u64, path: &str, val: u64) -> Txn {
        Txn {
            zxid,
            kind: TxnKind::Create {
                path: path.into(),
                val,
                owner: None,
            },
        }
    }

    #[test]
    fn apply_updates_tree_and_zxid() {
        let mut s = server(5);
        s.apply(&txn(1, "/a", 10));
        assert_eq!(s.zxid(), 1);
        assert_eq!(s.tree().get("/a").map(|z| z.val), Some(10));
        s.apply(&Txn {
            zxid: 2,
            kind: TxnKind::Set {
                path: "/a".into(),
                val: 20,
            },
        });
        assert_eq!(s.tree().get("/a").map(|z| z.val), Some(20));
        s.apply(&Txn {
            zxid: 3,
            kind: TxnKind::Delete { path: "/a".into() },
        });
        assert!(s.tree().is_empty());
        assert_eq!(s.zxid(), 3);
    }

    #[test]
    fn log_window_trims_and_tracks_base() {
        let mut s = server(3);
        for i in 1..=5u64 {
            s.apply(&txn(i, &format!("/k{i}"), i));
        }
        assert_eq!(s.txnlog().len(), 3, "window holds the last three");
        assert_eq!(s.log_base, 2, "entries (2, 5] remain");
        assert_eq!(s.txnlog().front().map(|t| t.zxid), Some(3));
    }

    #[test]
    fn wipe_clears_storage() {
        let mut s = server(5);
        s.apply(&txn(1, "/a", 1));
        s.wipe();
        assert!(s.tree().is_empty());
        assert!(s.txnlog().is_empty());
        assert_eq!(s.zxid(), 0);
        assert_eq!(s.log_base, 0);
    }

    #[test]
    fn majority_of_three_is_two() {
        let s = server(5);
        assert_eq!(s.majority(), 2);
    }

    #[test]
    fn crash_keeps_disk_state() {
        let mut s = server(5);
        s.apply(&txn(1, "/a", 1));
        s.role = CoordRole::Leader;
        s.sessions.insert(NodeId(9), 100);
        Node::<CoordMsg>::on_crash(&mut s);
        assert_eq!(s.role(), CoordRole::Follower);
        assert!(s.sessions.is_empty(), "sessions are volatile");
        assert_eq!(s.zxid(), 1, "the tree and zxid survive");
        assert_eq!(s.txnlog().len(), 1, "the on-disk log survives");
    }
}
