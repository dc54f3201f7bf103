//! Grid nodes: peer membership, failure detection, and op coordination.
//!
//! The membership layer is the heart of the reproduced failures: every node
//! pings every other member, and an unreachable member is **removed from
//! the view** — on *both* sides of a partition. Each side then keeps
//! operating with its own primary (the lowest id in its view), which is
//! exactly the "assumption that an unreachable node has crashed" the paper
//! blames for the whole Ignite/Hazelcast/Terracotta failure family (§6.4).
//!
//! Toggles ([`GridFlaws`]):
//!
//! - `split_brain_protection = false` — the flawed default: a minority view
//!   keeps serving. `true` is the Hazelcast/VoltDB technique the paper
//!   describes: a node that loses the majority pauses.
//! - `reclaim_unreachable_holders` — Ignite's semaphore behaviour: permits
//!   of an unreachable client are reclaimed; the healed client's release
//!   then corrupts the semaphore.
//! - `rejoin_after_heal = false` — the flawed default: once removed, a node
//!   never rejoins (the clusters stay separate after the partition heals —
//!   lasting damage, Finding 3).

use std::{collections::BTreeMap, sync::Arc};

use neat::cluster::Node;
use simnet::{Ctx, NodeId, Time, TimerId};

use crate::state::{GridOp, GridResp, GridState};

const TAG_PING: u64 = 51;
/// Quorum-commit deadline for the pending mutation: tag is `TAG_COMMIT + seq`.
const TAG_COMMIT: u64 = 300_000;
/// Download delay before a wiped node pulls the winner's state.
const TAG_DOWNLOAD: u64 = 61;

/// Flaw toggles for the grid membership layer.
#[derive(Clone, Copy, Debug)]
pub struct GridFlaws {
    /// Pause when the view drops below a majority of the full cluster.
    pub split_brain_protection: bool,
    /// Reclaim semaphore permits held by unreachable clients.
    pub reclaim_unreachable_holders: bool,
    /// Re-admit previously removed members when they answer again.
    pub rejoin_after_heal: bool,
    /// Reject semaphore releases from non-holders (`false` = the flawed
    /// blind apply that corrupts reclaimed semaphores).
    pub strict_semaphore_release: bool,
    /// Acknowledge mutations after only the local apply (`true` = the
    /// studied behaviour). The repaired baseline replicates to a majority
    /// of the FULL cluster before acknowledging, and rolls back on timeout.
    pub ack_without_quorum: bool,
    /// Hazelcast §4.4: a node that loses a state merge *deletes its local
    /// data first* and then downloads the winner's copy. If the winner
    /// permanently fails during the download window, the data is gone.
    pub wipe_before_download: bool,
}

impl GridFlaws {
    /// The systems as studied: no protection, reclaim on, no rejoin.
    pub fn flawed() -> Self {
        Self {
            split_brain_protection: false,
            reclaim_unreachable_holders: true,
            rejoin_after_heal: false,
            strict_semaphore_release: false,
            ack_without_quorum: true,
            wipe_before_download: false,
        }
    }

    /// The repaired baseline.
    pub fn fixed() -> Self {
        Self {
            split_brain_protection: true,
            reclaim_unreachable_holders: false,
            rejoin_after_heal: true,
            strict_semaphore_release: true,
            ack_without_quorum: false,
            wipe_before_download: false,
        }
    }
}

/// Grid wire protocol.
#[derive(Clone, Debug)]
pub enum GridMsg {
    Ping,
    Pong,
    /// Client → server.
    Req { op_id: u64, op: GridOp },
    /// Server → client.
    Resp { op_id: u64, resp: GridResp },
    /// Receiving server → primary.
    Forward {
        op_id: u64,
        client: NodeId,
        op: GridOp,
    },
    /// Primary → receiving server.
    ForwardResp {
        op_id: u64,
        client: NodeId,
        resp: GridResp,
    },
    /// Primary → view members: authoritative state, shared with the
    /// sender (a node mutating a shared state copies it first, so an offer
    /// is a snapshot). `commits` counts the quorum-committed mutations on
    /// the sender's branch. Ordinary offers are adopted only when strictly
    /// newer by `(commits, seq)`; heal-time `merge` offers additionally
    /// break exact ties by origin id so two equally ranked divergent
    /// branches still converge.
    StateSync {
        seq: u64,
        commits: u64,
        merge: bool,
        state: Arc<GridState>,
    },
    /// Member → primary: adopted the state at `seq` (quorum-ack mode).
    StateSyncAck { seq: u64 },
    /// Pull-sync mode: "send me your full state".
    Pull,
}

/// One grid server.
pub struct GridNode {
    me: NodeId,
    all_servers: Vec<NodeId>,
    flaws: GridFlaws,
    /// Current membership view (servers only).
    view: Vec<NodeId>,
    state: Arc<GridState>,
    state_seq: u64,
    /// Mutations that achieved a replication quorum on this state's branch.
    commit_count: u64,
    /// The node whose branch produced the current state (merge tiebreak).
    state_origin: NodeId,
    last_seen: BTreeMap<NodeId, Time>,
    /// Clients currently holding permits, for the reclaim flaw.
    tracked_holders: BTreeMap<NodeId, Time>,
    /// Quorum-ack mode: the one in-flight mutation awaiting replication.
    pending: Option<PendingMutation>,
    /// Pull-sync mode: the node we wiped for and will download from.
    downloading_from: Option<NodeId>,
    ping_interval: Time,
    suspect_after: Time,
}

/// A mutation applied locally but not yet acknowledged by a majority.
struct PendingMutation {
    seq: u64,
    reply: ReplyRoute,
    resp: GridResp,
    acks: usize,
    needed: usize,
}

/// Where the pending mutation's answer goes.
enum ReplyRoute {
    Client { client: NodeId, op_id: u64 },
    Forwarded { via: NodeId, client: NodeId, op_id: u64 },
}

impl GridNode {
    /// Creates a grid node.
    pub fn new(me: NodeId, all_servers: Vec<NodeId>, flaws: GridFlaws) -> Self {
        Self {
            me,
            view: all_servers.clone(),
            all_servers,
            flaws,
            state: Arc::default(),
            state_seq: 0,
            commit_count: 0,
            state_origin: me,
            last_seen: BTreeMap::new(),
            tracked_holders: BTreeMap::new(),
            pending: None,
            downloading_from: None,
            ping_interval: 100,
            suspect_after: 400,
        }
    }

    /// The current membership view.
    pub fn view(&self) -> &[NodeId] {
        &self.view
    }

    /// Virtual ms without a ping before a member is suspected.
    pub fn suspect_after(&self) -> Time {
        self.suspect_after
    }

    /// The grid state at this node.
    pub fn state(&self) -> &GridState {
        &self.state
    }

    /// The primary for every structure: the lowest id in this node's view.
    pub fn primary(&self) -> NodeId {
        self.view.iter().copied().min().unwrap_or(self.me)
    }

    /// `true` when split-brain protection has paused this node.
    pub fn paused(&self) -> bool {
        self.flaws.split_brain_protection && self.view.len() < self.all_servers.len() / 2 + 1
    }

    fn mark_alive(&mut self, ctx: &mut Ctx<'_, GridMsg>, from: NodeId) {
        self.last_seen.insert(from, ctx.now());
        if self.tracked_holders.contains_key(&from) {
            self.tracked_holders.insert(from, ctx.now());
        }
        let is_server = self.all_servers.contains(&from);
        if is_server && !self.view.contains(&from) && self.flaws.rejoin_after_heal {
            ctx.note(|| format!("re-admits {from} to the view"));
            self.view.push(from);
            self.view.sort();
            // Converge after a merge: everyone re-offers its state at its
            // CURRENT sequence (no bump — sequence counts applied ops, so
            // the side that actually served writes wins the merge; exact
            // ties fall to the lower origin).
            self.push_state_no_bump(ctx, true);
        }
    }

    fn push_state(&mut self, ctx: &mut Ctx<'_, GridMsg>) {
        self.state_seq += 1;
        self.push_state_no_bump(ctx, false);
    }

    /// Re-offers the current state at the current sequence (anti-entropy);
    /// receivers ignore it unless it outranks what they hold. `merge`
    /// offers may additionally win exact-rank ties (heal-time convergence).
    fn push_state_no_bump(&mut self, ctx: &mut Ctx<'_, GridMsg>, merge: bool) {
        let seq = self.state_seq;
        let commits = self.commit_count;
        let state = Arc::clone(&self.state);
        // Quorum mode offers to every server (a quorum may span nodes the
        // view has dropped); flawed mode only reaches its own view — the
        // studied behaviour.
        let peers = if self.flaws.ack_without_quorum {
            &self.view
        } else {
            &self.all_servers
        };
        ctx.broadcast(
            peers,
            GridMsg::StateSync {
                seq,
                commits,
                merge,
                state,
            },
        );
    }

    /// Sends the answer along the route it arrived by.
    fn answer(&self, ctx: &mut Ctx<'_, GridMsg>, route: &ReplyRoute, resp: GridResp) {
        match route {
            ReplyRoute::Client { client, op_id } => ctx.send(
                *client,
                GridMsg::Resp {
                    op_id: *op_id,
                    resp,
                },
            ),
            ReplyRoute::Forwarded { via, client, op_id } => ctx.send(
                *via,
                GridMsg::ForwardResp {
                    op_id: *op_id,
                    client: *client,
                    resp,
                },
            ),
        }
    }

    /// Applies one operation at the primary and answers per the ack mode.
    fn handle_op(
        &mut self,
        ctx: &mut Ctx<'_, GridMsg>,
        route: ReplyRoute,
        client: NodeId,
        op: &GridOp,
    ) {
        if !self.flaws.ack_without_quorum && self.pending.is_some() {
            // One quorum round at a time; refuse rather than reorder.
            self.answer(ctx, &route, GridResp::Fail);
            return;
        }
        let before = Arc::clone(&self.state);
        let resp =
            Arc::make_mut(&mut self.state).apply(client, op, self.flaws.strict_semaphore_release);
        if matches!(op, GridOp::SemAcquire { .. }) && resp == GridResp::Ok {
            self.tracked_holders.insert(client, ctx.now());
        }
        if self.state == before {
            // Reads and refused mutations need no replication.
            self.answer(ctx, &route, resp);
            return;
        }
        self.state_seq += 1;
        self.state_origin = self.me;
        if self.flaws.ack_without_quorum {
            // The studied behaviour: acknowledge on the local apply.
            self.push_state_no_bump(ctx, false);
            self.answer(ctx, &route, resp);
        } else {
            let needed = self.all_servers.len() / 2;
            let seq = self.state_seq;
            self.pending = Some(PendingMutation {
                seq,
                reply: route,
                resp,
                acks: 0,
                needed,
            });
            self.push_state_no_bump(ctx, false);
            ctx.set_timer(400, TAG_COMMIT + seq);
        }
    }
}

impl Node<GridMsg> for GridNode {
    /// Boot.
    fn start(&mut self, ctx: &mut Ctx<'_, GridMsg>) {
        self.view = self.all_servers.clone();
        let now = ctx.now();
        for &s in &self.all_servers {
            self.last_seen.insert(s, now);
        }
        ctx.set_timer(self.ping_interval, TAG_PING);
    }

    /// Message dispatch.
    fn on_message(&mut self, ctx: &mut Ctx<'_, GridMsg>, from: NodeId, msg: GridMsg) {
        match msg {
            GridMsg::Ping => {
                self.mark_alive(ctx, from);
                ctx.send(from, GridMsg::Pong);
            }
            GridMsg::Pong => self.mark_alive(ctx, from),
            GridMsg::Req { op_id, op } => {
                if self.paused() {
                    ctx.send(
                        from,
                        GridMsg::Resp {
                            op_id,
                            resp: GridResp::Fail,
                        },
                    );
                    return;
                }
                let primary = self.primary();
                if primary == self.me {
                    let route = ReplyRoute::Client { client: from, op_id };
                    self.handle_op(ctx, route, from, &op);
                } else {
                    ctx.send(
                        primary,
                        GridMsg::Forward {
                            op_id,
                            client: from,
                            op,
                        },
                    );
                }
            }
            GridMsg::Forward { op_id, client, op } => {
                if self.paused() || self.primary() != self.me {
                    ctx.send(
                        from,
                        GridMsg::ForwardResp {
                            op_id,
                            client,
                            resp: GridResp::Fail,
                        },
                    );
                    return;
                }
                let route = ReplyRoute::Forwarded {
                    via: from,
                    client,
                    op_id,
                };
                self.handle_op(ctx, route, client, &op);
            }
            GridMsg::ForwardResp { op_id, client, resp } => {
                ctx.send(client, GridMsg::Resp { op_id, resp });
            }
            GridMsg::StateSync {
                seq,
                commits,
                merge,
                state,
            } => {
                // Branch order: committed work dominates, then applied-op
                // count. Exact ties between divergent branches are broken
                // by origin id — but ONLY for heal-time merge offers: an
                // ordinary quorum offer must never displace an equal-rank
                // branch, or an acker could discard work it already
                // acknowledged.
                let strictly_newer =
                    (commits, seq) > (self.commit_count, self.state_seq);
                let tie_break = merge
                    && (commits, seq) == (self.commit_count, self.state_seq)
                    && from.0 < self.state_origin.0;
                if self.flaws.wipe_before_download && self.downloading_from.is_some() {
                    // Mid-download: the wiped node ignores pushed states and
                    // waits for its own download to come back (or not).
                    return;
                }
                if strictly_newer || tie_break {
                    if self.flaws.wipe_before_download && self.downloading_from.is_none() {
                        // Hazelcast §4.4: step down, DELETE the local copy,
                        // and only then start downloading the winner's.
                        ctx.note(|| format!(
                            "WIPES local data, will download from {from} (flaw)"
                        ));
                        self.state = Arc::default();
                        self.state_seq = 0;
                        self.commit_count = 0;
                        self.state_origin = self.me;
                        self.downloading_from = Some(from);
                        ctx.set_timer(300, TAG_DOWNLOAD);
                        return;
                    }
                    self.state_seq = seq;
                    self.commit_count = commits;
                    self.state_origin = from;
                    self.state = state;
                    self.downloading_from = None;
                    if !self.flaws.ack_without_quorum {
                        ctx.send(from, GridMsg::StateSyncAck { seq });
                    }
                }
            }
            GridMsg::Pull => {
                let seq = self.state_seq;
                let commits = self.commit_count;
                let state = Arc::clone(&self.state);
                ctx.send(
                    from,
                    GridMsg::StateSync {
                        seq,
                        commits,
                        merge: true,
                        state,
                    },
                );
            }
            GridMsg::StateSyncAck { seq } => {
                let done = match &mut self.pending {
                    Some(p) if p.seq == seq => {
                        p.acks += 1;
                        p.acks >= p.needed
                    }
                    _ => false,
                };
                if done {
                    let p = self.pending.take().expect("checked"); // lint:allow(unwrap-expect)
                    self.commit_count += 1;
                    self.answer(ctx, &p.reply, p.resp);
                }
            }
            GridMsg::Resp { .. } => {}
        }
    }

    /// Timer dispatch.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, GridMsg>, _t: TimerId, tag: u64) {
        if tag >= TAG_COMMIT {
            let seq = tag - TAG_COMMIT;
            if self.pending.as_ref().is_some_and(|p| p.seq == seq) {
                // No quorum: answer nothing. The outcome is genuinely
                // unknown — the mutation may still survive the merge if no
                // committed branch outranks it — so the client sees a
                // timeout, never a false failure (the repaired answer to
                // the paper's ack-then-fail pattern).
                self.pending = None;
                ctx.note(|| "mutation unacknowledged: no replication quorum".to_string());
            }
            return;
        }
        if tag == TAG_DOWNLOAD {
            if let Some(src) = self.downloading_from.take() {
                ctx.note(|| format!("downloading state from {src}"));
                ctx.send(src, GridMsg::Pull);
            }
            return;
        }
        if tag != TAG_PING {
            return;
        }
        let now = ctx.now();
        // Suspect and remove unreachable members (both sides do this!).
        self.view.retain(|&s| {
            let seen = self.last_seen.get(&s).copied().unwrap_or(0);
            let unreachable = s != self.me && now.saturating_sub(seen) > self.suspect_after;
            if unreachable {
                ctx.note(|| format!("removes unreachable {s} from the view"));
            }
            !unreachable
        });
        // Reclaim permits of unreachable client holders (Ignite flaw).
        if self.flaws.reclaim_unreachable_holders && self.primary() == self.me {
            let dead: Vec<NodeId> = self
                .tracked_holders
                .iter()
                .filter(|(_, &t)| now.saturating_sub(t) > self.suspect_after)
                .map(|(c, _)| *c)
                .collect();
            for c in dead {
                let n = Arc::make_mut(&mut self.state).reclaim_permits(c);
                if n > 0 {
                    ctx.note(|| format!("RECLAIMS {n} permit(s) from unreachable client {c}"));
                    self.push_state(ctx);
                }
                self.tracked_holders.remove(&c);
            }
        }
        // Anti-entropy: the primary periodically re-offers its state so a
        // member that missed a sync (e.g., during a short glitch) catches
        // up; receivers only adopt strictly newer states.
        if self.primary() == self.me {
            self.push_state_no_bump(ctx, false);
        }
        // Ping everyone we should know about.
        let targets = if self.flaws.rejoin_after_heal {
            &self.all_servers
        } else {
            &self.view
        };
        ctx.broadcast(targets, GridMsg::Ping);
        for &c in self.tracked_holders.keys() {
            ctx.send(c, GridMsg::Ping);
        }
        ctx.set_timer(self.ping_interval, TAG_PING);
    }

    /// Crash loses the in-memory grid.
    fn on_crash(&mut self) {
        self.state = Arc::default();
        self.view.clear();
        self.tracked_holders.clear();
    }
}
