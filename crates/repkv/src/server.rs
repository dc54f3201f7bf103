//! The replica server: heartbeats, elections, replication, consolidation.
//!
//! The protocol is a deliberately ordinary primary-backup design — the kind
//! the paper's studied systems implement — with every documented flaw kept
//! behind a [`Config`] toggle:
//!
//! - leaders serve reads from their local copy ([`ReadPolicy::LocalPrimary`]);
//! - writes are applied locally *before* replication acknowledges
//!   (`apply_before_commit`), so a failed write can linger (Figure 2);
//! - replication timeouts produce explicit failure answers
//!   (`fail_on_repl_timeout`) even though the local apply survives;
//! - election victory criteria are pluggable (longest log, latest
//!   timestamp, lowest id) and, on consolidation, the *losing* leader
//!   truncates its log to match the winner — the data-loss mechanism of
//!   Listing 1 and ENG-10486;
//! - voters may grant votes while still connected to a live leader
//!   (issue #2488), and an arbiter that grants a vote tells the old leader
//!   to step down, producing the leadership thrashing of §4.4.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use neat::cluster::Node;
use rand::Rng;
use simnet::{Ctx, NodeId, Time, TimerId};

use crate::{
    config::{Config, ElectionPolicy, ReadPolicy, Replication},
    msg::{Entry, EntryOp, Log, LogSummary, Msg, Req, Resp},
};

/// Timer tags.
const TAG_ELECTION: u64 = 1;
const TAG_HEARTBEAT: u64 = 2;
/// Replication deadline for the pending write at log index `tag - TAG_REPL`.
const TAG_REPL: u64 = 1_000;
/// Coordinator deadline for the forwarded op `tag - TAG_COORD`.
const TAG_COORD: u64 = 2_000_000;

/// A server's replication role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    Follower,
    Candidate,
    Leader,
}

/// Where to deliver the answer for an in-flight mutation.
#[derive(Clone, Debug)]
enum ReplyTo {
    Client { client: NodeId, op_id: u64 },
    Coord { coord: NodeId, client: NodeId, op_id: u64 },
}

#[derive(Debug)]
struct Pending {
    reply: ReplyTo,
    acks: BTreeSet<NodeId>,
    needed: usize,
}

/// One replica (or arbiter) of the replicated key-value store.
pub struct Server {
    me: NodeId,
    /// All servers, including the arbiter, sorted.
    servers: Vec<NodeId>,
    /// Data replicas: everyone but the arbiter.
    data_replicas: Vec<NodeId>,
    cfg: Config,
    /// `true` for the vote-only arbiter (MongoDB §4.4).
    pub is_arbiter: bool,

    // Persistent state (survives crashes).
    term: u64,
    log: Log,
    committed: usize,
    voted_in: u64,

    // Volatile state.
    role: Role,
    leader_hint: Option<NodeId>,
    votes: BTreeSet<NodeId>,
    last_leader_contact: Time,
    lease_until: Time,
    missed_ack_rounds: u32,
    hb_acks: BTreeSet<NodeId>,
    pending: BTreeMap<usize, Pending>,
    coord_pending: BTreeMap<u64, NodeId>,
    /// Last fully-acked log length per replica (Raft's matchIndex): lets a
    /// leader commit a majority-replicated prefix even when no client ack
    /// is pending for it — e.g. tail entries inherited from the previous
    /// leadership.
    match_len: BTreeMap<NodeId, usize>,
    /// Tail of an early-acked non-atomic batch, appended one entry per
    /// replication round trip (empty when `cfg.atomic_batch`).
    batch_queue: VecDeque<(String, u64)>,
    /// The visible store: always the fold of `log[..applied]`, advanced
    /// (or, when that prefix is lost, replayed) by [`Server::rebuild_kv`].
    kv: BTreeMap<Arc<str>, u64>,
    applied: usize,
    /// Count of elections this node has won, for thrash measurements.
    pub elections_won: u64,
}

impl Server {
    /// Creates a server. `servers` must contain `me` and be the same (sorted)
    /// list on every node; `arbiter`, if any, must be one of them.
    pub fn new(me: NodeId, servers: Vec<NodeId>, arbiter: Option<NodeId>, cfg: Config) -> Self {
        let is_arbiter = arbiter == Some(me);
        let data_replicas = servers.iter().copied().filter(|s| Some(*s) != arbiter).collect();
        Self {
            me,
            servers,
            data_replicas,
            cfg,
            is_arbiter,
            term: 0,
            log: Log::default(),
            committed: 0,
            voted_in: 0,
            role: Role::Follower,
            leader_hint: None,
            votes: BTreeSet::new(),
            last_leader_contact: 0,
            lease_until: 0,
            missed_ack_rounds: 0,
            hb_acks: BTreeSet::new(),
            pending: BTreeMap::new(),
            coord_pending: BTreeMap::new(),
            match_len: BTreeMap::new(),
            batch_queue: VecDeque::new(),
            kv: BTreeMap::new(),
            applied: 0,
            elections_won: 0,
        }
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The applied key-value state (for final-state inspection).
    pub fn kv(&self) -> &BTreeMap<Arc<str>, u64> {
        &self.kv
    }

    /// The replicated log (for assertions).
    pub fn log(&self) -> &[Entry] {
        &self.log
    }

    /// Committed prefix length.
    pub fn committed(&self) -> usize {
        self.committed
    }

    /// Votes needed to win an election (majority of all servers).
    fn vote_majority(&self) -> usize {
        self.servers.len() / 2 + 1
    }

    /// Total applies (including the leader's own) needed to ack a write.
    fn needed_acks(&self) -> usize {
        let n = self.data_replicas.len();
        match self.cfg.replication {
            Replication::Async => 1,
            Replication::SyncMajority => n / 2 + 1,
            Replication::SyncAll => n,
        }
    }

    fn lease_duration(&self) -> Time {
        self.cfg.heartbeat_interval * 3
    }

    /// This node's log summary.
    pub fn summary(&self) -> LogSummary {
        LogSummary {
            term: self.term,
            log_len: self.log.len(),
            committed: self.committed,
            last_ts: self.log.last().map(|e| e.ts).unwrap_or(0),
        }
    }

    /// Applied prefix under the configured apply discipline.
    fn apply_bound(&self) -> usize {
        if self.cfg.apply_before_commit {
            self.log.len()
        } else {
            self.committed
        }
    }

    /// Brings the visible store to the fold of `log[..apply_bound()]` — the
    /// only writer of `kv` besides `on_crash`. It applies the entries past
    /// `applied`, so a write costs its delta; only a bound that moved
    /// backwards (a lower commit index, a shorter log) replays from empty.
    /// Whoever replaces `log` must keep `log[..applied]` or reset `applied`
    /// first ([`Server::adopt_log`]).
    fn rebuild_kv(&mut self) {
        let bound = self.apply_bound();
        if bound < self.applied {
            self.kv.clear();
            self.applied = 0;
        }
        for e in &self.log[self.applied..bound] {
            apply_to(&mut self.kv, e);
        }
        self.applied = bound;
        debug_assert_eq!(self.kv, replay(&self.log[..bound]));
    }

    /// Does a candidate with summary `cand` satisfy this voter's criterion?
    fn candidate_acceptable(&self, cand: &LogSummary, cand_id: NodeId) -> bool {
        let mine = self.summary();
        if let Some(p) = self.cfg.priority_node {
            // Conflicting criteria (SERVER-14885): voters veto any candidate
            // that is not the priority node; the priority node itself is
            // still subject to the freshness criterion below.
            if cand_id != self.servers[p] {
                return false;
            }
        }
        match self.cfg.election {
            ElectionPolicy::LongestLog => cand.log_len >= mine.log_len,
            ElectionPolicy::LatestTimestamp => cand.last_ts >= mine.last_ts,
            ElectionPolicy::LowestId => true,
            ElectionPolicy::MajorityFreshest => {
                (cand.committed, cand.log_len) >= (mine.committed, mine.log_len)
            }
        }
    }

    /// When two leaders meet, does `self` beat the rival with summary
    /// `other`? The loser steps down and truncates to the winner's log.
    fn consolidation_wins(&self, other: &LogSummary, other_id: NodeId) -> bool {
        let mine = self.summary();
        match self.cfg.election {
            ElectionPolicy::LongestLog => {
                (mine.log_len, other_id.0) > (other.log_len, self.me.0)
            }
            ElectionPolicy::LatestTimestamp => {
                (mine.last_ts, other_id.0) > (other.last_ts, self.me.0)
            }
            ElectionPolicy::LowestId => self.me.0 < other_id.0,
            ElectionPolicy::MajorityFreshest => {
                (mine.term, mine.committed, other_id.0) > (other.term, other.committed, self.me.0)
            }
        }
    }

    fn arm_election_timer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let base = self.cfg.election_timeout;
        let jitter = ctx.rng().gen_range(0..=base / 2);
        ctx.set_timer(base + jitter, TAG_ELECTION);
    }

    fn become_follower(&mut self, ctx: &mut Ctx<'_, Msg>, term: u64, leader: Option<NodeId>) {
        let was_leader = self.role == Role::Leader;
        self.role = Role::Follower;
        self.term = self.term.max(term);
        self.leader_hint = leader;
        self.votes.clear();
        if was_leader {
            ctx.note(|| format!("steps down (term {})", self.term));
            self.fail_all_pending(ctx);
            // The tail of an early-acked batch dies with the leadership —
            // the client was already told Ok (the torn-batch flaw).
            self.batch_queue.clear();
        }
    }

    /// Answers every pending write according to the timeout policy (used on
    /// step-down; the entries themselves stay in the log — the flaw).
    fn fail_all_pending(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let pending = std::mem::take(&mut self.pending);
        for (_, p) in pending {
            if self.cfg.fail_on_repl_timeout {
                self.reply(ctx, &p.reply, Resp::Fail);
            }
        }
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.is_arbiter {
            return;
        }
        self.term += 1;
        self.role = Role::Candidate;
        self.voted_in = self.term;
        reset_to(&mut self.votes, self.me);
        self.leader_hint = None;
        ctx.note(|| format!("starts election (term {})", self.term));
        if self.votes.len() >= self.vote_majority() {
            self.become_leader(ctx);
            return;
        }
        let summary = self.summary();
        ctx.broadcast(&self.servers, Msg::RequestVote { summary });
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.role = Role::Leader;
        self.leader_hint = Some(self.me);
        self.missed_ack_rounds = 0;
        self.match_len.clear();
        reset_to(&mut self.hb_acks, self.me);
        // A majority just voted within the last round trip; that grant is a
        // valid read lease until the first heartbeat round takes over.
        self.lease_until = ctx.now() + self.lease_duration();
        self.elections_won += 1;
        ctx.note(|| format!("becomes leader (term {})", self.term));
        self.broadcast_heartbeat(ctx);
        self.broadcast_replicate(ctx);
        ctx.set_timer(self.cfg.heartbeat_interval, TAG_HEARTBEAT);
    }

    fn broadcast_heartbeat(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let summary = self.summary();
        ctx.broadcast(&self.servers, Msg::Heartbeat { summary });
    }

    fn broadcast_replicate(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let (summary, log) = (self.summary(), Arc::clone(&self.log));
        ctx.broadcast(&self.data_replicas, Msg::Replicate { summary, log });
    }

    fn reply(&self, ctx: &mut Ctx<'_, Msg>, to: &ReplyTo, resp: Resp) {
        match to {
            ReplyTo::Client { client, op_id } => ctx.send(
                *client,
                Msg::ClientResp {
                    op_id: *op_id,
                    resp,
                },
            ),
            ReplyTo::Coord {
                coord,
                client,
                op_id,
            } => ctx.send(
                *coord,
                Msg::ForwardResp {
                    op_id: *op_id,
                    client: *client,
                    resp,
                },
            ),
        }
    }

    /// Handles one client mutation or read at the (presumed) leader.
    fn handle_request(&mut self, ctx: &mut Ctx<'_, Msg>, req: Req, reply: ReplyTo) {
        match req {
            Req::Read { key } => {
                let allowed = match self.cfg.read {
                    ReadPolicy::LocalPrimary => true,
                    ReadPolicy::LeasedPrimary => ctx.now() < self.lease_until,
                };
                let resp = if allowed {
                    Resp::Value(self.kv.get(&key).copied())
                } else {
                    Resp::Fail
                };
                self.reply(ctx, &reply, resp);
            }
            Req::Write { .. } | Req::Delete { .. } | Req::Incr { .. } => {
                let (key, op) = match req {
                    Req::Write { key, val } => (key, EntryOp::Put(val)),
                    Req::Delete { key } => (key, EntryOp::Delete),
                    Req::Incr { key, by } => (key, EntryOp::Incr(by)),
                    Req::Read { .. } | Req::Batch { .. } => unreachable!(),
                };
                self.append_entry(ctx, key, op);
                let idx = self.log.len();
                self.ack_at(ctx, idx, reply);
                self.broadcast_replicate(ctx);
            }
            Req::Batch { ops } => {
                if ops.is_empty() {
                    self.reply(ctx, &reply, Resp::Ok);
                    return;
                }
                if self.cfg.atomic_batch {
                    // Fixed: the whole batch is one log unit; the client is
                    // answered once the *last* entry commits, so either every
                    // entry is durable or the client never saw an Ok.
                    for (key, val) in ops {
                        self.append_entry(ctx, key.into(), EntryOp::Put(val));
                    }
                    let idx = self.log.len();
                    self.ack_at(ctx, idx, reply);
                } else {
                    // Flaw: acknowledge on the first entry's append and drip
                    // the tail out one entry per replication round trip — a
                    // partition mid-batch strands the unreplicated suffix.
                    let mut ops = ops.into_iter();
                    if let Some((key, val)) = ops.next() {
                        self.append_entry(ctx, key.into(), EntryOp::Put(val));
                    }
                    self.batch_queue.extend(ops);
                    self.reply(ctx, &reply, Resp::Ok);
                }
                self.broadcast_replicate(ctx);
            }
        }
    }

    /// Appends one entry under the current term, applying it immediately
    /// when the profile applies before commit.
    fn append_entry(&mut self, ctx: &mut Ctx<'_, Msg>, key: Arc<str>, op: EntryOp) {
        let entry = Entry {
            term: self.term,
            ts: ctx.now(),
            key,
            op,
        };
        // The one copy a write makes: followers and in-flight messages
        // still hold the version this one extends.
        Arc::make_mut(&mut self.log).push(entry);
        if self.cfg.apply_before_commit {
            self.rebuild_kv();
        }
    }

    /// Acknowledges the mutation at log index `idx`: immediately under
    /// asynchronous replication, else once enough replicas ack.
    fn ack_at(&mut self, ctx: &mut Ctx<'_, Msg>, idx: usize, reply: ReplyTo) {
        let needed = self.needed_acks();
        if needed <= 1 {
            // Asynchronous replication: acknowledge right away.
            self.committed = self.committed.max(idx);
            if !self.cfg.apply_before_commit {
                self.rebuild_kv();
            }
            self.reply(ctx, &reply, Resp::Ok);
        } else {
            self.pending.insert(
                idx,
                Pending {
                    reply,
                    acks: std::iter::once(self.me).collect(),
                    needed,
                },
            );
            ctx.set_timer(self.cfg.replication_timeout, TAG_REPL + idx as u64);
        }
    }

    /// Adopts another node's full log (consolidation / sync): the local log
    /// is *replaced*, which is exactly how divergent acknowledged writes
    /// get truncated away in the studied systems. The store is advanced
    /// from where it stands when the new log still carries the applied
    /// prefix (the same version, or equal entries) and replayed otherwise.
    fn adopt_log(&mut self, summary: LogSummary, log: Log) {
        let keeps_applied = Arc::ptr_eq(&self.log, &log)
            || log.get(..self.applied) == Some(&self.log[..self.applied]);
        if !keeps_applied {
            // Past every bound, so `rebuild_kv` below replays from empty.
            self.applied = usize::MAX;
        }
        self.log = log;
        self.committed = summary.committed.min(self.log.len());
        self.term = self.term.max(summary.term);
        self.rebuild_kv();
    }

    fn on_client_req(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, op_id: u64, req: Req) {
        if self.role == Role::Leader {
            self.handle_request(
                ctx,
                req,
                ReplyTo::Client {
                    client: from,
                    op_id,
                },
            );
            return;
        }
        if self.cfg.coordinator_routing {
            if let Some(leader) = self.leader_hint.filter(|l| *l != self.me) {
                self.coord_pending.insert(op_id, from);
                ctx.send(
                    leader,
                    Msg::Forward {
                        op_id,
                        client: from,
                        req,
                    },
                );
                ctx.set_timer(self.cfg.coordinator_timeout, TAG_COORD + op_id);
                return;
            }
        }
        ctx.send(
            from,
            Msg::ClientResp {
                op_id,
                resp: Resp::Fail,
            },
        );
    }

    fn on_heartbeat(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, summary: LogSummary) {
        if self.role == Role::Leader {
            if from == self.me {
                return;
            }
            // Two leaders met: the paper's consolidation moment.
            if self.consolidation_wins(&summary, from) {
                // Assert my leadership back at the rival.
                let mine = self.summary();
                ctx.send(from, Msg::Heartbeat { summary: mine });
            } else {
                ctx.note(|| format!("loses consolidation to {from}"));
                self.become_follower(ctx, summary.term, Some(from));
                self.last_leader_contact = ctx.now();
                ctx.send(from, Msg::SyncReq);
            }
            return;
        }
        let accept = summary.term >= self.term || self.cfg.followers_accept_any_leader;
        if !accept {
            return;
        }
        self.term = self.term.max(summary.term);
        self.role = Role::Follower;
        self.leader_hint = Some(from);
        self.last_leader_contact = ctx.now();
        ctx.send(from, Msg::HeartbeatAck { term: summary.term });
        // Learn commit advancement announced by the heartbeat.
        if summary.log_len == self.log.len() && summary.committed > self.committed {
            self.committed = summary.committed.min(self.log.len());
            if !self.cfg.apply_before_commit {
                self.rebuild_kv();
            }
        }
        if !self.is_arbiter && summary.log_len != self.log.len() {
            // Divergence after heal or a missed replication: pull the
            // leader's copy (truncating our own if it diverged).
            ctx.send(from, Msg::SyncReq);
        }
    }

    fn on_request_vote(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, summary: LogSummary) {
        // Leader stickiness: a voter that still hears a live leader refuses
        // the vote *without* adopting the candidate's term — otherwise a
        // partitioned node's inflating term would disrupt the healthy side
        // (the problem Raft's pre-vote extension addresses).
        let connected_veto = !self.cfg.vote_while_connected_to_leader
            && self.role != Role::Leader
            && self.leader_hint.is_some()
            && self.leader_hint != Some(from)
            && ctx.now().saturating_sub(self.last_leader_contact) < self.cfg.election_timeout;
        if connected_veto {
            ctx.send(
                from,
                Msg::Vote {
                    term: summary.term,
                    granted: false,
                },
            );
            return;
        }
        if summary.term > self.term {
            if self.role == Role::Leader {
                // A higher-term candidate exists; in the fixed profile the
                // leader steps aside (Raft behaviour). Flawed profiles keep
                // serving (they only learn via consolidation).
                if self.cfg.election == ElectionPolicy::MajorityFreshest {
                    self.become_follower(ctx, summary.term, None);
                } else {
                    self.term = summary.term;
                }
            } else {
                self.term = summary.term;
            }
        }
        let already_voted = self.voted_in >= summary.term;
        let granted = !already_voted && self.candidate_acceptable(&summary, from);
        if granted {
            self.voted_in = summary.term;
            ctx.note(|| format!("votes for {from} (term {})", summary.term));
            // The paper's arbiter informs the superseded leader (§4.4).
            if self.is_arbiter {
                if let Some(old) = self.leader_hint.filter(|l| *l != from) {
                    ctx.send(old, Msg::StepDown { term: summary.term });
                }
            }
        }
        ctx.send(
            from,
            Msg::Vote {
                term: summary.term,
                granted,
            },
        );
    }

    fn on_replicate(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        summary: LogSummary,
        log: Log,
    ) {
        if self.is_arbiter {
            return;
        }
        if self.role == Role::Leader {
            if self.consolidation_wins(&summary, from) {
                let mine = self.summary();
                ctx.send(from, Msg::Heartbeat { summary: mine });
                return;
            }
            self.become_follower(ctx, summary.term, Some(from));
        }
        let accept = summary.term >= self.term || self.cfg.followers_accept_any_leader;
        if !accept {
            return;
        }
        self.role = Role::Follower;
        self.leader_hint = Some(from);
        self.last_leader_contact = ctx.now();
        self.adopt_log(summary, log);
        ctx.send(
            from,
            Msg::ReplicateAck {
                term: summary.term,
                acked_len: self.log.len(),
            },
        );
    }

    fn on_replicate_ack(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: NodeId,
        term: u64,
        acked_len: usize,
    ) {
        if self.role != Role::Leader || term != self.term {
            return;
        }
        let ready: Vec<usize> = self
            .pending
            .iter_mut()
            .filter_map(|(idx, p)| {
                if *idx <= acked_len {
                    p.acks.insert(from);
                }
                (p.acks.len() >= p.needed).then_some(*idx)
            })
            .collect();
        for idx in ready {
            if let Some(p) = self.pending.remove(&idx) {
                self.committed = self.committed.max(idx);
                if !self.cfg.apply_before_commit {
                    self.rebuild_kv();
                }
                self.reply(ctx, &p.reply, Resp::Ok);
            }
        }
        // Raft-style commit advancement: a prefix replicated on a majority
        // is committed even when no client ack is pending for it — this is
        // how a new leader commits tail entries inherited from the previous
        // leadership instead of stranding them forever uncommitted.
        self.match_len.insert(from, acked_len.min(self.log.len()));
        let held = |r: &NodeId| {
            if *r == self.me { self.log.len() } else { self.match_len.get(r).copied().unwrap_or(0) }
        };
        // The longest prefix that `needed_acks` data replicas hold.
        let replicas = &self.data_replicas;
        let on_quorum = |len: &usize| replicas.iter().filter(|r| held(r) >= *len).count() >= self.needed_acks();
        let quorum = replicas.iter().map(held).filter(on_quorum).max().unwrap_or(0);
        if quorum > self.committed {
            self.committed = quorum;
            if !self.cfg.apply_before_commit {
                self.rebuild_kv();
            }
        }
        // Drip the next entry of an early-acked batch once the follower has
        // caught up to the log as broadcast — one entry per round trip.
        if acked_len >= self.log.len() {
            if let Some((key, val)) = self.batch_queue.pop_front() {
                self.append_entry(ctx, key.into(), EntryOp::Put(val));
                self.broadcast_replicate(ctx);
            }
        }
    }

    fn on_heartbeat_tick(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.role != Role::Leader {
            return;
        }
        let majority = self.vote_majority();
        if self.hb_acks.len() >= majority {
            self.lease_until = ctx.now() + self.lease_duration();
            self.missed_ack_rounds = 0;
        } else {
            self.missed_ack_rounds += 1;
        }
        if self.missed_ack_rounds >= self.cfg.step_down_rounds {
            ctx.note(|| "lost majority; stepping down".to_string());
            self.become_follower(ctx, self.term, None);
            return;
        }
        reset_to(&mut self.hb_acks, self.me);
        self.broadcast_heartbeat(ctx);
        ctx.set_timer(self.cfg.heartbeat_interval, TAG_HEARTBEAT);
    }
}

impl Node<Msg> for Server {
    /// Boots (or recovers) the node.
    fn start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.pending.clear();
        self.coord_pending.clear();
        self.match_len.clear();
        self.batch_queue.clear();
        self.hb_acks.clear();
        self.missed_ack_rounds = 0;
        self.lease_until = 0;
        self.last_leader_contact = ctx.now();
        self.rebuild_kv();
        self.arm_election_timer(ctx);
    }

    /// Message handler.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        match msg {
            Msg::ClientReq { op_id, req } => self.on_client_req(ctx, from, op_id, req),
            Msg::ClientResp { .. } => { /* servers never receive these */ }
            Msg::Forward {
                op_id,
                client,
                req,
            } => {
                if self.role == Role::Leader {
                    self.handle_request(
                        ctx,
                        req,
                        ReplyTo::Coord {
                            coord: from,
                            client,
                            op_id,
                        },
                    );
                } else {
                    ctx.send(
                        from,
                        Msg::ForwardResp {
                            op_id,
                            client,
                            resp: Resp::Fail,
                        },
                    );
                }
            }
            Msg::ForwardResp {
                op_id,
                client,
                resp,
            } => {
                if self.coord_pending.remove(&op_id).is_some() {
                    ctx.send(client, Msg::ClientResp { op_id, resp });
                }
            }
            Msg::Heartbeat { summary } => self.on_heartbeat(ctx, from, summary),
            Msg::HeartbeatAck { term } => {
                if self.role == Role::Leader && term == self.term {
                    self.hb_acks.insert(from);
                }
            }
            Msg::RequestVote { summary } => self.on_request_vote(ctx, from, summary),
            Msg::Vote { term, granted } => {
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.vote_majority() {
                        self.become_leader(ctx);
                    }
                }
            }
            Msg::StepDown { term } => {
                if self.role == Role::Leader && term > self.term {
                    self.become_follower(ctx, term, None);
                }
            }
            Msg::Replicate { summary, log } => self.on_replicate(ctx, from, summary, log),
            Msg::ReplicateAck { term, acked_len } => self.on_replicate_ack(ctx, from, term, acked_len),
            Msg::SyncReq => {
                if self.role == Role::Leader {
                    let (summary, log) = (self.summary(), Arc::clone(&self.log));
                    ctx.send(from, Msg::SyncResp { summary, log });
                }
            }
            Msg::SyncResp { summary, log } => {
                self.adopt_log(summary, log);
                self.role = Role::Follower;
                self.leader_hint = Some(from);
                self.last_leader_contact = ctx.now();
                ctx.note(|| format!(
                    "synced to {from}'s log ({} entries)",
                    self.log.len()
                ));
            }
        }
    }

    /// Timer handler.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, _timer: TimerId, tag: u64) {
        match tag {
            TAG_ELECTION => {
                if self.role != Role::Leader
                    && ctx.now().saturating_sub(self.last_leader_contact)
                        >= self.cfg.election_timeout
                {
                    self.start_election(ctx);
                }
                self.arm_election_timer(ctx);
            }
            TAG_HEARTBEAT => self.on_heartbeat_tick(ctx),
            t if t >= TAG_COORD => {
                let op_id = t - TAG_COORD;
                if let Some(client) = self.coord_pending.remove(&op_id) {
                    // Request routing failure (#9967): report failure even
                    // though the primary may have applied the operation.
                    ctx.send(
                        client,
                        Msg::ClientResp {
                            op_id,
                            resp: Resp::Fail,
                        },
                    );
                }
            }
            t if t >= TAG_REPL => {
                let idx = (t - TAG_REPL) as usize;
                if let Some(p) = self.pending.remove(&idx) {
                    if self.cfg.fail_on_repl_timeout {
                        // Figure 2 step 2: the write "fails", but the local
                        // apply survives in the visible store.
                        self.reply(ctx, &p.reply, Resp::Fail);
                    }
                    // Fixed profile: answer nothing (the client times out;
                    // the outcome is genuinely unknown).
                }
            }
            _ => {}
        }
    }

    /// Crash: volatile state is lost; term, vote, log, and commit index are
    /// the node's stable storage.
    fn on_crash(&mut self) {
        self.role = Role::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.pending.clear();
        self.coord_pending.clear();
        self.match_len.clear();
        self.batch_queue.clear();
        self.hb_acks.clear();
        self.kv.clear();
        self.applied = 0;
    }
}

fn apply_to(kv: &mut BTreeMap<Arc<str>, u64>, e: &Entry) {
    match &e.op {
        EntryOp::Put(v) => {
            kv.insert(e.key.clone(), *v);
        }
        EntryOp::Delete => {
            kv.remove(&e.key);
        }
        EntryOp::Incr(by) => {
            *kv.entry(e.key.clone()).or_insert(0) += by;
        }
    }
}

/// The store a log prefix folds to, from empty: what [`Server::kv`] must
/// equal after every `rebuild_kv`, however it got there.
pub fn replay(entries: &[Entry]) -> BTreeMap<Arc<str>, u64> {
    let mut kv = BTreeMap::new();
    entries.iter().for_each(|e| apply_to(&mut kv, e));
    kv
}

/// Resets an ack set to this node alone, keeping its one tree node.
fn reset_to(set: &mut BTreeSet<NodeId>, me: NodeId) {
    set.retain(|n| *n == me);
    set.insert(me);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;

    fn server_with(cfg: Config) -> Server {
        let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
        Server::new(NodeId(1), servers, None, cfg)
    }

    fn summary(term: u64, log_len: usize, committed: usize, last_ts: Time) -> LogSummary {
        LogSummary {
            term,
            log_len,
            committed,
            last_ts,
        }
    }

    fn push_entries(s: &mut Server, n: usize, base_ts: Time) {
        for i in 0..n {
            Arc::make_mut(&mut s.log).push(Entry {
                term: 1,
                ts: base_ts + i as Time,
                key: format!("k{i}").into(),
                op: EntryOp::Put(i as u64),
            });
        }
    }

    #[test]
    fn longest_log_criterion_compares_lengths() {
        let mut s = server_with(Config::voltdb());
        push_entries(&mut s, 3, 10);
        assert!(s.candidate_acceptable(&summary(2, 3, 0, 0), NodeId(0)));
        assert!(s.candidate_acceptable(&summary(2, 5, 0, 0), NodeId(0)));
        assert!(!s.candidate_acceptable(&summary(2, 2, 0, 0), NodeId(0)));
    }

    #[test]
    fn latest_timestamp_criterion_compares_timestamps() {
        let mut s = server_with(Config::mongodb());
        push_entries(&mut s, 2, 100); // last ts = 101
        assert!(s.candidate_acceptable(&summary(2, 1, 0, 101), NodeId(0)));
        assert!(s.candidate_acceptable(&summary(2, 1, 0, 500), NodeId(0)));
        assert!(!s.candidate_acceptable(&summary(2, 9, 9, 50), NodeId(0)));
    }

    #[test]
    fn lowest_id_criterion_always_grants() {
        let mut s = server_with(Config::elasticsearch());
        push_entries(&mut s, 5, 10);
        assert!(s.candidate_acceptable(&summary(2, 0, 0, 0), NodeId(2)));
    }

    #[test]
    fn majority_freshest_requires_committed_then_length() {
        let mut s = server_with(Config::fixed());
        push_entries(&mut s, 3, 10);
        s.committed = 2;
        assert!(s.candidate_acceptable(&summary(2, 3, 2, 0), NodeId(0)));
        assert!(s.candidate_acceptable(&summary(2, 4, 3, 0), NodeId(0)));
        assert!(!s.candidate_acceptable(&summary(2, 9, 1, 999), NodeId(0)));
    }

    #[test]
    fn priority_node_vetoes_other_candidates() {
        let mut s = server_with(Config::mongodb_with_priority(0));
        push_entries(&mut s, 1, 10);
        // Candidate node 2 is not the priority node: vetoed.
        assert!(!s.candidate_acceptable(&summary(2, 9, 9, 999), NodeId(2)));
        // The priority node itself passes the freshness criterion.
        assert!(s.candidate_acceptable(&summary(2, 1, 0, 10), NodeId(0)));
        // …but not when stale.
        assert!(!s.candidate_acceptable(&summary(2, 0, 0, 1), NodeId(0)));
    }

    #[test]
    fn consolidation_longest_log_wins() {
        let mut s = server_with(Config::voltdb());
        push_entries(&mut s, 4, 10);
        assert!(s.consolidation_wins(&summary(9, 2, 2, 999), NodeId(2)));
        assert!(!s.consolidation_wins(&summary(1, 6, 0, 0), NodeId(2)));
    }

    #[test]
    fn consolidation_lowest_id_wins() {
        let s = server_with(Config::elasticsearch());
        // `me` is node 1: beats node 2, loses to node 0.
        assert!(s.consolidation_wins(&summary(9, 9, 9, 999), NodeId(2)));
        assert!(!s.consolidation_wins(&summary(0, 0, 0, 0), NodeId(0)));
    }

    #[test]
    fn consolidation_fixed_prefers_higher_term_then_commit() {
        let mut s = server_with(Config::fixed());
        s.term = 3;
        push_entries(&mut s, 2, 10);
        s.committed = 2;
        assert!(s.consolidation_wins(&summary(2, 9, 9, 999), NodeId(2)));
        assert!(!s.consolidation_wins(&summary(4, 0, 0, 0), NodeId(2)));
        // Same term: more committed wins.
        assert!(s.consolidation_wins(&summary(3, 2, 1, 0), NodeId(2)));
    }

    #[test]
    fn needed_acks_per_replication_mode() {
        let mut cfg = Config::fixed();
        cfg.replication = Replication::Async;
        assert_eq!(server_with(cfg.clone()).needed_acks(), 1);
        cfg.replication = Replication::SyncMajority;
        assert_eq!(server_with(cfg.clone()).needed_acks(), 2);
        cfg.replication = Replication::SyncAll;
        assert_eq!(server_with(cfg).needed_acks(), 3);
    }

    #[test]
    fn arbiter_excluded_from_data_replicas() {
        let servers: Vec<NodeId> = (0..3).map(NodeId).collect();
        let s = Server::new(
            NodeId(0),
            servers.clone(),
            Some(NodeId(2)),
            Config::mongodb(),
        );
        assert_eq!(s.data_replicas, vec![NodeId(0), NodeId(1)]);
        assert_eq!(s.vote_majority(), 2, "the arbiter still votes");
    }

    #[test]
    fn apply_bound_tracks_commit_discipline() {
        let mut flawed = server_with(Config::voltdb());
        push_entries(&mut flawed, 3, 10);
        flawed.committed = 1;
        assert_eq!(flawed.apply_bound(), 3, "apply-before-commit sees everything");

        let mut fixed = server_with(Config::fixed());
        push_entries(&mut fixed, 3, 10);
        fixed.committed = 1;
        assert_eq!(fixed.apply_bound(), 1, "commit-before-apply sees the committed prefix");
    }

    #[test]
    fn rebuild_kv_replays_puts_deletes_incrs() {
        let mut s = server_with(Config::voltdb());
        s.log = Arc::new(vec![
            Entry { term: 1, ts: 1, key: "a".into(), op: EntryOp::Put(5) },
            Entry { term: 1, ts: 2, key: "a".into(), op: EntryOp::Incr(3) },
            Entry { term: 1, ts: 3, key: "b".into(), op: EntryOp::Put(7) },
            Entry { term: 1, ts: 4, key: "b".into(), op: EntryOp::Delete },
        ]);
        s.rebuild_kv();
        assert_eq!(s.kv().get("a"), Some(&8));
        assert_eq!(s.kv().get("b"), None);
    }
}
