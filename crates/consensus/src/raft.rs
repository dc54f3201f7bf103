//! The Raft node: elections, log replication, commitment, membership.
//!
//! This is a faithful (if compact) Raft: term-based elections with
//! log-up-to-date vote checks and leader stickiness, AppendEntries with the
//! `(prevIndex, prevTerm)` consistency check and conflict truncation,
//! commitment restricted to current-term entries, and leased leader reads.
//! Membership changes are log entries; while a change is in flight the
//! leader replicates to the *union* of old and new members (the moral
//! equivalent of joint consensus) and only notifies removed members after
//! the change commits.
//!
//! The one deliberate deviation is behind [`RaftTweaks::delete_log_on_remove`]:
//! RethinkDB's removed replicas delete their Raft log — including the very
//! configuration entry that removed them — which is how issue #5289 ends up
//! with two disjoint majorities (§4.4 of the paper).

use std::collections::{BTreeMap, BTreeSet};

use neat::cluster::Node;
use rand::Rng;
use simnet::{Ctx, NodeId, Time, TimerId};

const TAG_ELECTION: u64 = 1;
const TAG_TICK: u64 = 2;

/// Protocol tweaks (all off = proven Raft).
#[derive(Clone, Copy, Debug, Default)]
pub struct RaftTweaks {
    /// RethinkDB: a removed replica deletes its entire Raft log.
    pub delete_log_on_remove: bool,
}

/// A replicated command.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cmd {
    /// Leader no-op appended on election (commits the current term).
    Noop,
    Put { key: String, val: u64 },
    Delete { key: String },
    /// Replace the cluster membership.
    Config { members: Vec<NodeId> },
}

/// One log entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RaftEntry {
    pub term: u64,
    pub cmd: Cmd,
}

/// Client-visible requests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RaftReq {
    Put { key: String, val: u64 },
    Delete { key: String },
    Get { key: String },
    /// Administrative membership change.
    Reconfigure { members: Vec<NodeId> },
}

/// Client-visible responses.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RaftResp {
    Ok,
    Fail,
    Value(Option<u64>),
}

/// The wire protocol.
#[derive(Clone, Debug)]
pub enum RaftMsg {
    RequestVote {
        term: u64,
        last_term: u64,
        last_idx: usize,
    },
    VoteResp {
        term: u64,
        granted: bool,
    },
    Append {
        term: u64,
        prev_idx: usize,
        prev_term: u64,
        entries: Vec<RaftEntry>,
        commit: usize,
    },
    AppendResp {
        term: u64,
        success: bool,
        match_idx: usize,
    },
    /// Leader → removed member, after the removing config change commits.
    Removed,
    ClientReq {
        op_id: u64,
        req: RaftReq,
    },
    ClientResp {
        op_id: u64,
        resp: RaftResp,
    },
}

/// Raft roles.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RaftRole {
    Follower,
    Candidate,
    Leader,
}

/// One Raft server.
pub struct RaftNode {
    me: NodeId,
    initial_members: Vec<NodeId>,
    tweaks: RaftTweaks,
    election_timeout: Time,
    tick_interval: Time,

    // Persistent.
    term: u64,
    voted_for: Option<NodeId>,
    log: Vec<RaftEntry>,

    // Volatile.
    role: RaftRole,
    leader_hint: Option<NodeId>,
    commit: usize,
    applied: usize,
    kv: BTreeMap<String, u64>,
    votes: BTreeSet<NodeId>,
    next_idx: BTreeMap<NodeId, usize>,
    match_idx: BTreeMap<NodeId, usize>,
    last_leader_contact: Time,
    lease_until: Time,
    round_acks: BTreeSet<NodeId>,
    /// Peers removed by a committed config change (no longer replicated to).
    removed_peers: BTreeSet<NodeId>,
    /// In-flight client mutations, keyed by the log index they must commit.
    pending: BTreeMap<usize, (NodeId, u64)>,
    /// Set once this node has been told it was removed (and keeps its log).
    pub removed: bool,
    /// Elections won (metrics).
    pub elections_won: u64,
}

impl RaftNode {
    /// Creates a node of a cluster initially containing `members`.
    pub fn new(me: NodeId, members: Vec<NodeId>, tweaks: RaftTweaks) -> Self {
        Self {
            me,
            initial_members: members,
            tweaks,
            election_timeout: 300,
            tick_interval: 50,
            term: 0,
            voted_for: None,
            log: Vec::new(),
            role: RaftRole::Follower,
            leader_hint: None,
            commit: 0,
            applied: 0,
            kv: BTreeMap::new(),
            votes: BTreeSet::new(),
            next_idx: BTreeMap::new(),
            match_idx: BTreeMap::new(),
            last_leader_contact: 0,
            lease_until: 0,
            round_acks: BTreeSet::new(),
            removed_peers: BTreeSet::new(),
            pending: BTreeMap::new(),
            removed: false,
            elections_won: 0,
        }
    }

    /// Virtual ms a follower waits without hearing from a leader before
    /// it starts an election (jittered upwards per timer).
    pub fn election_timeout(&self) -> Time {
        self.election_timeout
    }

    /// Current role.
    pub fn role(&self) -> RaftRole {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The committed, applied key-value state.
    pub fn kv(&self) -> &BTreeMap<String, u64> {
        &self.kv
    }

    /// The full log, for assertions.
    pub fn log(&self) -> &[RaftEntry] {
        &self.log
    }

    /// Commit index.
    pub fn commit(&self) -> usize {
        self.commit
    }

    /// Effective membership: the last `Config` entry anywhere in the log,
    /// or the initial membership. A node whose log was deleted (the
    /// RethinkDB tweak) therefore reverts to the initial membership — the
    /// heart of the reproduced failure.
    pub fn members(&self) -> Vec<NodeId> {
        self.membership().to_vec()
    }

    /// [`members`](Self::members) without the copy: every heartbeat asks.
    fn membership(&self) -> &[NodeId] {
        self.log
            .iter()
            .rev()
            .find_map(|e| match &e.cmd {
                Cmd::Config { members } => Some(members.as_slice()),
                _ => None,
            })
            .unwrap_or(&self.initial_members)
    }

    fn majority(&self) -> usize {
        self.membership().len() / 2 + 1
    }

    fn last_log(&self) -> (u64, usize) {
        (self.log.last().map(|e| e.term).unwrap_or(0), self.log.len())
    }

    /// Everyone this leader replicates to: the union of old and new
    /// memberships minus peers whose removal has committed.
    /// In ascending id order, each once. Both lists hold a handful of ids,
    /// so each step rescans them for the smallest id above the last one
    /// rather than building a sorted set per heartbeat.
    fn replication_targets(&self) -> impl Iterator<Item = NodeId> + '_ {
        let members = self.membership();
        let mut last = None;
        std::iter::from_fn(move || {
            last = (self.initial_members.iter().chain(members).copied())
                .filter(|n| *n != self.me && !self.removed_peers.contains(n))
                .filter(|n| Some(*n) > last)
                .min();
            last
        })
    }

    fn arm_election_timer(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        let base = self.election_timeout;
        let jitter = ctx.rng().gen_range(0..=base / 2);
        ctx.set_timer(base + jitter, TAG_ELECTION);
    }

    fn reapply(&mut self) {
        while self.applied < self.commit {
            let e = self.log[self.applied].clone();
            match &e.cmd {
                Cmd::Put { key, val } => {
                    self.kv.insert(key.clone(), *val);
                }
                Cmd::Delete { key } => {
                    self.kv.remove(key);
                }
                Cmd::Noop | Cmd::Config { .. } => {}
            }
            self.applied += 1;
        }
    }

    fn become_follower(&mut self, term: u64, leader: Option<NodeId>) {
        self.role = RaftRole::Follower;
        if term > self.term {
            self.term = term;
            self.voted_for = None;
        }
        self.leader_hint = leader;
        self.votes.clear();
        self.pending.clear();
    }

    fn start_election(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        if self.removed && !self.tweaks.delete_log_on_remove {
            return;
        }
        if !self.membership().contains(&self.me) {
            // A server that knows it is not a member must not campaign.
            return;
        }
        self.term += 1;
        self.role = RaftRole::Candidate;
        self.voted_for = Some(self.me);
        self.votes = std::iter::once(self.me).collect();
        self.leader_hint = None;
        ctx.note(|| format!("starts election (term {})", self.term));
        if self.votes.len() >= self.majority() {
            self.become_leader(ctx);
            return;
        }
        let (last_term, last_idx) = self.last_log();
        let term = self.term;
        ctx.broadcast(
            self.membership(),
            RaftMsg::RequestVote {
                term,
                last_term,
                last_idx,
            },
        );
    }

    fn become_leader(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.role = RaftRole::Leader;
        self.leader_hint = Some(self.me);
        self.elections_won += 1;
        let len = self.log.len();
        let targets: Vec<NodeId> = self.replication_targets().collect();
        for p in targets {
            self.next_idx.insert(p, len);
            self.match_idx.insert(p, 0);
        }
        // Commit the current term by appending a no-op (Raft §5.4.2 note).
        self.log.push(RaftEntry {
            term: self.term,
            cmd: Cmd::Noop,
        });
        self.lease_until = ctx.now() + self.tick_interval * 3;
        self.round_acks.clear();
        ctx.note(|| format!("becomes leader (term {})", self.term));
        self.replicate_all(ctx);
        ctx.set_timer(self.tick_interval, TAG_TICK);
    }

    fn replicate_all(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        for p in self.replication_targets() {
            let from = *self.next_idx.get(&p).unwrap_or(&self.log.len());
            let from = from.min(self.log.len());
            let prev_idx = from;
            let prev_term = if from == 0 { 0 } else { self.log[from - 1].term };
            ctx.send(
                p,
                RaftMsg::Append {
                    term: self.term,
                    prev_idx,
                    prev_term,
                    entries: self.log[from..].to_vec(),
                    commit: self.commit,
                },
            );
        }
    }
}

impl Node<RaftMsg> for RaftNode {
    /// Boot / recovery.
    fn start(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.role = RaftRole::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.pending.clear();
        self.round_acks.clear();
        self.last_leader_contact = ctx.now();
        self.applied = 0;
        self.kv.clear();
        self.reapply();
        self.arm_election_timer(ctx);
    }

    /// Crash: volatile state lost; `term`, `voted_for`, `log` persist.
    fn on_crash(&mut self) {
        self.role = RaftRole::Follower;
        self.leader_hint = None;
        self.votes.clear();
        self.pending.clear();
        self.commit = 0; // commit index is volatile in Raft
        self.applied = 0;
        self.kv.clear();
    }

    /// Timer handler.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, RaftMsg>, _t: TimerId, tag: u64) {
        match tag {
            TAG_ELECTION => {
                if self.role != RaftRole::Leader
                    && ctx.now().saturating_sub(self.last_leader_contact) >= self.election_timeout
                {
                    self.start_election(ctx);
                }
                self.arm_election_timer(ctx);
            }
            TAG_TICK => {
                if self.role != RaftRole::Leader {
                    return;
                }
                if self.round_acks.len() + 1 >= self.majority() {
                    self.lease_until = ctx.now() + self.tick_interval * 3;
                }
                self.round_acks.clear();
                self.replicate_all(ctx);
                ctx.set_timer(self.tick_interval, TAG_TICK);
            }
            _ => {}
        }
    }

    /// Message handler.
    fn on_message(&mut self, ctx: &mut Ctx<'_, RaftMsg>, from: NodeId, msg: RaftMsg) {
        match msg {
            RaftMsg::RequestVote {
                term,
                last_term,
                last_idx,
            } => self.on_request_vote(ctx, from, term, last_term, last_idx),
            RaftMsg::VoteResp { term, granted } => {
                if self.role == RaftRole::Candidate && term == self.term && granted {
                    self.votes.insert(from);
                    if self.votes.len() >= self.majority() {
                        self.become_leader(ctx);
                    }
                }
            }
            RaftMsg::Append {
                term,
                prev_idx,
                prev_term,
                entries,
                commit,
            } => self.on_append(ctx, from, term, prev_idx, prev_term, entries, commit),
            RaftMsg::AppendResp {
                term,
                success,
                match_idx,
            } => self.on_append_resp(ctx, from, term, success, match_idx),
            RaftMsg::Removed => self.on_removed(ctx),
            RaftMsg::ClientReq { op_id, req } => self.on_client(ctx, from, op_id, req),
            RaftMsg::ClientResp { .. } => {}
        }
    }
}

impl RaftNode {
    fn on_request_vote(
        &mut self,
        ctx: &mut Ctx<'_, RaftMsg>,
        from: NodeId,
        term: u64,
        last_term: u64,
        last_idx: usize,
    ) {
        // Leader stickiness (Raft §4.2.3): ignore vote requests while we
        // believe a leader is alive; do not let the request bump our term.
        if self.role != RaftRole::Leader
            && self.leader_hint.is_some()
            && self.leader_hint != Some(from)
            && ctx.now().saturating_sub(self.last_leader_contact) < self.election_timeout
        {
            ctx.send(
                from,
                RaftMsg::VoteResp {
                    term,
                    granted: false,
                },
            );
            return;
        }
        if term > self.term {
            self.become_follower(term, None);
        }
        let (my_last_term, my_last_idx) = self.last_log();
        let up_to_date = (last_term, last_idx) >= (my_last_term, my_last_idx);
        let granted = term == self.term
            && (self.voted_for.is_none() || self.voted_for == Some(from))
            && up_to_date;
        if granted {
            self.voted_for = Some(from);
            self.last_leader_contact = ctx.now();
            ctx.note(|| format!("votes for {from} (term {term})"));
        }
        ctx.send(from, RaftMsg::VoteResp { term, granted });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_append(
        &mut self,
        ctx: &mut Ctx<'_, RaftMsg>,
        from: NodeId,
        term: u64,
        prev_idx: usize,
        prev_term: u64,
        entries: Vec<RaftEntry>,
        commit: usize,
    ) {
        if term < self.term {
            ctx.send(
                from,
                RaftMsg::AppendResp {
                    term: self.term,
                    success: false,
                    match_idx: 0,
                },
            );
            return;
        }
        self.become_follower(term, Some(from));
        self.last_leader_contact = ctx.now();

        // Consistency check.
        if prev_idx > self.log.len()
            || (prev_idx > 0 && self.log[prev_idx - 1].term != prev_term)
        {
            let hint = self.log.len().min(prev_idx.saturating_sub(1));
            if prev_idx <= self.log.len() && prev_idx > 0 {
                self.log.truncate(prev_idx - 1);
            }
            ctx.send(
                from,
                RaftMsg::AppendResp {
                    term: self.term,
                    success: false,
                    match_idx: hint,
                },
            );
            return;
        }
        // Splice entries, truncating on conflict.
        for (i, e) in entries.iter().enumerate() {
            let pos = prev_idx + i;
            if pos < self.log.len() {
                if self.log[pos].term != e.term {
                    self.log.truncate(pos);
                    self.log.push(e.clone());
                }
            } else {
                self.log.push(e.clone());
            }
        }
        let match_idx = prev_idx + entries.len();
        self.commit = self.commit.max(commit.min(self.log.len()));
        if self.applied > self.commit {
            // A truncation invalidated applied state; replay from scratch.
            self.applied = 0;
            self.kv.clear();
        }
        self.reapply();
        ctx.send(
            from,
            RaftMsg::AppendResp {
                term: self.term,
                success: true,
                match_idx,
            },
        );
    }

    fn on_append_resp(
        &mut self,
        ctx: &mut Ctx<'_, RaftMsg>,
        from: NodeId,
        term: u64,
        success: bool,
        match_idx: usize,
    ) {
        if term > self.term {
            self.become_follower(term, None);
            return;
        }
        if self.role != RaftRole::Leader || term != self.term {
            return;
        }
        if success {
            self.round_acks.insert(from);
            let m = self.match_idx.entry(from).or_insert(0);
            *m = (*m).max(match_idx);
            self.next_idx.insert(from, match_idx);
            self.advance_commit(ctx);
        } else {
            self.next_idx.insert(from, match_idx);
        }
    }

    fn advance_commit(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        let members = self.membership();
        let majority = self.majority();
        let replicated = |idx: usize| {
            let count = members
                .iter()
                .filter(|&&m| m == self.me || self.match_idx.get(&m).copied().unwrap_or(0) >= idx)
                .count();
            count >= majority
        };
        // Only current-term entries commit by counting (Raft §5.4.2).
        let Some(commit) = (self.commit + 1..=self.log.len())
            .rev()
            .find(|&idx| self.log[idx - 1].term == self.term && replicated(idx))
        else {
            return;
        };
        let old_commit = std::mem::replace(&mut self.commit, commit);
        self.reapply();
        // Answer committed client ops.
        let done: Vec<usize> = self
            .pending
            .range(..=self.commit)
            .map(|(i, _)| *i)
            .collect();
        for idx in done {
            if let Some((client, op_id)) = self.pending.remove(&idx) {
                ctx.send(
                    client,
                    RaftMsg::ClientResp {
                        op_id,
                        resp: RaftResp::Ok,
                    },
                );
            }
        }
        // Notify members removed by a config change that just committed.
        for idx in old_commit + 1..=self.commit {
            if let Cmd::Config { members: new } = &self.log[idx - 1].cmd {
                let before = self.members_before(idx);
                let new_set: BTreeSet<NodeId> = new.iter().copied().collect();
                for gone in before.into_iter().filter(|n| !new_set.contains(n)) {
                    self.removed_peers.insert(gone);
                    if gone != self.me {
                        ctx.send(gone, RaftMsg::Removed);
                    }
                }
            }
        }
    }

    /// Membership as of just before log index `idx` (1-based).
    fn members_before(&self, idx: usize) -> Vec<NodeId> {
        for e in self.log[..idx - 1].iter().rev() {
            if let Cmd::Config { members } = &e.cmd {
                return members.clone();
            }
        }
        self.initial_members.clone()
    }

    fn on_removed(&mut self, ctx: &mut Ctx<'_, RaftMsg>) {
        self.removed = true;
        if self.tweaks.delete_log_on_remove {
            // RethinkDB issue #5289: the removed replica deletes its log —
            // including the config entry recording its removal.
            ctx.note(|| "removed from cluster; DELETING raft log (tweak)".to_string());
            self.log.clear();
            self.commit = 0;
            self.applied = 0;
            self.kv.clear();
            self.voted_for = None;
            self.role = RaftRole::Follower;
            self.leader_hint = None;
            self.removed = false; // It no longer remembers being removed.
        } else {
            ctx.note(|| "removed from cluster; retiring".to_string());
            self.role = RaftRole::Follower;
        }
    }

    fn on_client(&mut self, ctx: &mut Ctx<'_, RaftMsg>, from: NodeId, op_id: u64, req: RaftReq) {
        if self.role != RaftRole::Leader {
            ctx.send(
                from,
                RaftMsg::ClientResp {
                    op_id,
                    resp: RaftResp::Fail,
                },
            );
            return;
        }
        match req {
            RaftReq::Get { key } => {
                let resp = if ctx.now() < self.lease_until {
                    RaftResp::Value(self.kv.get(&key).copied())
                } else {
                    RaftResp::Fail
                };
                ctx.send(from, RaftMsg::ClientResp { op_id, resp });
            }
            RaftReq::Put { key, val } => {
                self.append_cmd(ctx, Cmd::Put { key, val }, from, op_id);
            }
            RaftReq::Delete { key } => {
                self.append_cmd(ctx, Cmd::Delete { key }, from, op_id);
            }
            RaftReq::Reconfigure { members } => {
                self.append_cmd(ctx, Cmd::Config { members }, from, op_id);
            }
        }
    }

    fn append_cmd(&mut self, ctx: &mut Ctx<'_, RaftMsg>, cmd: Cmd, client: NodeId, op_id: u64) {
        self.log.push(RaftEntry {
            term: self.term,
            cmd,
        });
        self.pending.insert(self.log.len(), (client, op_id));
        // Single-node clusters commit immediately.
        self.advance_commit(ctx);
        self.replicate_all(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(n: usize) -> RaftNode {
        let members: Vec<NodeId> = (0..n).map(NodeId).collect();
        RaftNode::new(NodeId(0), members, RaftTweaks::default())
    }

    fn config_entry(members: &[usize]) -> RaftEntry {
        RaftEntry {
            term: 1,
            cmd: Cmd::Config {
                members: members.iter().copied().map(NodeId).collect(),
            },
        }
    }

    #[test]
    fn members_default_to_initial_membership() {
        let n = node(5);
        assert_eq!(n.members().len(), 5);
        assert_eq!(n.majority(), 3);
    }

    #[test]
    fn latest_config_entry_wins() {
        let mut n = node(5);
        n.log.push(config_entry(&[0, 1, 2]));
        n.log.push(config_entry(&[0, 1]));
        assert_eq!(n.members(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(n.majority(), 2);
    }

    #[test]
    fn members_before_sees_the_prior_config() {
        let mut n = node(5);
        n.log.push(RaftEntry {
            term: 1,
            cmd: Cmd::Noop,
        });
        n.log.push(config_entry(&[0, 1]));
        // Before index 2 (the config entry), the initial membership holds.
        assert_eq!(n.members_before(2).len(), 5);
    }

    #[test]
    fn deleted_log_reverts_to_initial_membership() {
        // The heart of the RethinkDB flaw: once the log (and its config
        // entry) is gone, the node believes the five-node world again.
        let mut n = RaftNode::new(
            NodeId(0),
            (0..5).map(NodeId).collect(),
            RaftTweaks {
                delete_log_on_remove: true,
            },
        );
        n.log.push(config_entry(&[3, 4]));
        assert_eq!(n.members().len(), 2);
        n.log.clear();
        assert_eq!(n.members().len(), 5);
    }

    #[test]
    fn replication_targets_union_old_and_new() {
        let mut n = node(5);
        n.log.push(config_entry(&[0, 1]));
        // Until removals commit, the leader still replicates to everyone.
        assert_eq!(n.replication_targets().count(), 4);
        n.removed_peers.insert(NodeId(3));
        n.removed_peers.insert(NodeId(4));
        assert_eq!(n.replication_targets().collect::<Vec<_>>(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn last_log_reports_term_and_length() {
        let mut n = node(3);
        assert_eq!(n.last_log(), (0, 0));
        n.log.push(RaftEntry {
            term: 4,
            cmd: Cmd::Noop,
        });
        assert_eq!(n.last_log(), (4, 1));
    }

    #[test]
    fn crash_preserves_persistent_state_only() {
        let mut n = node(3);
        n.term = 7;
        n.voted_for = Some(NodeId(1));
        n.log.push(RaftEntry {
            term: 7,
            cmd: Cmd::Put {
                key: "k".into(),
                val: 1,
            },
        });
        n.commit = 1;
        n.role = RaftRole::Leader;
        n.on_crash();
        assert_eq!(n.term, 7);
        assert_eq!(n.voted_for, Some(NodeId(1)));
        assert_eq!(n.log.len(), 1);
        assert_eq!(n.commit, 0, "the commit index is volatile in Raft");
        assert_eq!(n.role(), RaftRole::Follower);
        assert!(n.kv().is_empty());
    }
}
