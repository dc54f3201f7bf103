//! The DKron-like job scheduler (dkron #379, found by NEAT).
//!
//! The leader executes a job *locally*, then reports its status. With the
//! flaw, the status path requires acknowledgement from the other scheduler
//! nodes: under a partial partition that isolates the leader from its
//! peers — but not from the client — the job executes successfully, yet
//! DKron reports it as failed. A client that trusts the status and
//! resubmits gets the job executed twice.

use std::collections::{BTreeMap, BTreeSet};

use neat::{
    cluster::{boot, Mailbox, Node},
    Violation, ViolationKind,
};
use simnet::{Ctx, NodeId, TimerId};

const TAG_STATUS_TIMEOUT: u64 = 2_000_000;

/// Flaw toggle.
#[derive(Clone, Copy, Debug)]
pub struct DkFlaws {
    /// Report the job failed when peer acknowledgement is unavailable,
    /// even though the local execution succeeded.
    pub status_requires_peer_ack: bool,
}

/// Wire protocol.
#[derive(Clone, Debug)]
pub enum DkMsg {
    /// Client → leader.
    RunJob { op_id: u64, job: u64 },
    /// Leader → client.
    JobStatus { op_id: u64, job: u64, ok: bool },
    /// Leader → followers: record the execution.
    SyncExec { job: u64, op_id: u64 },
    /// Follower → leader.
    SyncAck { job: u64, op_id: u64 },
}

/// A scheduler node.
pub struct DkNode {
    me: NodeId,
    peers: Vec<NodeId>,
    flaws: DkFlaws,
    is_leader: bool,
    /// Every local execution (the job's side effect): `(job, count)`.
    pub executions: BTreeMap<u64, u32>,
    /// Pending status reports awaiting peer acks: op → (client, job, acks).
    pending: BTreeMap<u64, (NodeId, u64, BTreeSet<NodeId>)>,
}

impl DkNode {
    fn new(me: NodeId, peers: Vec<NodeId>, leader: bool, flaws: DkFlaws) -> Self {
        Self {
            me,
            peers,
            flaws,
            is_leader: leader,
            executions: BTreeMap::new(),
            pending: BTreeMap::new(),
        }
    }
}

impl Node<DkMsg> for DkNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, DkMsg>, from: NodeId, msg: DkMsg) {
        match msg {
            DkMsg::RunJob { op_id, job } => {
                if !self.is_leader {
                    ctx.send(from, DkMsg::JobStatus { op_id, job, ok: false });
                    return;
                }
                // The job executes locally — the side effect happens NOW.
                *self.executions.entry(job).or_default() += 1;
                ctx.note(|| format!("leader executed job {job}"));
                if self.flaws.status_requires_peer_ack {
                    let mut others: Vec<NodeId> =
                        self.peers.iter().copied().filter(|&p| p != self.me).collect();
                    others.sort();
                    self.pending.insert(op_id, (from, job, BTreeSet::new()));
                    ctx.broadcast(&others, DkMsg::SyncExec { job, op_id });
                    ctx.set_timer(400, TAG_STATUS_TIMEOUT + op_id);
                } else {
                    // Fixed: the status reflects the local execution result.
                    ctx.send(from, DkMsg::JobStatus { op_id, job, ok: true });
                }
            }
            DkMsg::SyncExec { job, op_id } => {
                ctx.send(from, DkMsg::SyncAck { job, op_id });
            }
            DkMsg::SyncAck { op_id, .. } => {
                let done = match self.pending.get_mut(&op_id) {
                    Some((_, _, acks)) => {
                        acks.insert(from);
                        acks.len() >= self.peers.len() - 1
                    }
                    None => false,
                };
                if done {
                    let (client, job, _) = self.pending.remove(&op_id).expect("present"); // lint:allow(unwrap-expect)
                    ctx.send(client, DkMsg::JobStatus { op_id, job, ok: true });
                }
            }
            DkMsg::JobStatus { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DkMsg>, _t: TimerId, tag: u64) {
        if tag >= TAG_STATUS_TIMEOUT {
            let op_id = tag - TAG_STATUS_TIMEOUT;
            if let Some((client, job, _)) = self.pending.remove(&op_id) {
                // dkron #379: the execution happened, but the user is told
                // it failed.
                ctx.note(|| format!("reporting job {job} as FAILED despite local success"));
                ctx.send(client, DkMsg::JobStatus { op_id, job, ok: false });
            }
        }
    }
}

/// The client role: reported job statuses by op id.
impl Node<DkMsg> for Mailbox<bool> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, DkMsg>, _from: NodeId, msg: DkMsg) {
        if let DkMsg::JobStatus { op_id, ok, .. } = msg {
            self.put(op_id, ok);
        }
    }
}

neat::roles! {
    /// A node of the scheduler deployment.
    pub enum DkProc: DkMsg {
        Node(DkNode) => node / node_mut,
        Client(Mailbox<bool>) => client / client_mut,
    }
}

/// The scheduler deployment: leader, two followers, one client.
pub struct DkCluster {
    pub neat: neat::Neat<DkProc>,
    pub leader: NodeId,
    pub followers: Vec<NodeId>,
    pub client: NodeId,
}

impl DkCluster {
    /// Builds the deployment.
    pub fn build(flaws: DkFlaws, seed: u64, record: bool) -> Self {
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let client = NodeId(3);
        let neat = boot(seed, record, 4, |id| {
            if id.0 < 3 {
                DkProc::Node(DkNode::new(id, nodes.clone(), id.0 == 0, flaws))
            } else {
                DkProc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            leader: nodes[0],
            followers: nodes[1..].to_vec(),
            client,
        }
    }

    /// Runs `job` synchronously, returning the reported status
    /// (`None` = no answer).
    pub fn run_job(&mut self, job: u64) -> Option<bool> {
        let leader = self.leader;
        self.neat.request(
            self.client,
            self.neat.op_timeout,
            DkProc::client_mut,
            |_, ctx, op_id| ctx.send(leader, DkMsg::RunJob { op_id, job }),
        )
    }

    /// How many times `job`'s side effect ran on the leader.
    pub fn executions(&self, job: u64) -> u32 {
        let leader = self.neat.world.app(self.leader).node();
        leader.executions.get(&job).copied().unwrap_or(0)
    }
}

/// dkron #379: partial partition leader | followers (client bridges); the
/// job runs but is reported failed; the client's retry runs it twice.
pub fn misleading_status(flaws: DkFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = DkCluster::build(flaws, seed, record);
    cluster.neat.sleep(50);

    let followers = cluster.followers.clone();
    let leader = cluster.leader;
    let p = cluster.neat.partition_partial(&[leader], &followers);

    let first = cluster.run_job(9);
    // The user trusts the status: a failure means "retry".
    let mut violations = Vec::new();
    if first == Some(false) {
        let _ = cluster.run_job(9);
    }
    cluster.neat.heal(&p);
    cluster.neat.sleep(300);

    let execs = cluster.executions(9);
    if first == Some(false) && execs >= 1 {
        violations.push(Violation::new(
            ViolationKind::DataCorruption,
            format!(
                "job reported FAILED but executed {execs} time(s) — misleading status \
                 caused re-execution"
            ),
        ));
    }
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_runs_and_reports_ok_without_faults() {
        let mut c = DkCluster::build(
            DkFlaws {
                status_requires_peer_ack: true,
            },
            1,
            false,
        );
        c.neat.sleep(50);
        assert_eq!(c.run_job(1), Some(true));
        assert_eq!(c.executions(1), 1);
    }

    #[test]
    fn misleading_status_with_the_flaw() {
        let violations = misleading_status(
            DkFlaws {
                status_requires_peer_ack: true,
            },
            91,
            false,
        ).violations;
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::DataCorruption),
            "{violations:?}"
        );
    }

    #[test]
    fn truthful_status_when_fixed() {
        let violations = misleading_status(
            DkFlaws {
                status_requires_peer_ack: false,
            },
            91,
            false,
        ).violations;
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn non_leader_refuses_jobs() {
        let mut c = DkCluster::build(
            DkFlaws {
                status_requires_peer_ack: false,
            },
            2,
            false,
        );
        c.neat.sleep(50);
        let follower = c.followers[0];
        c.leader = follower; // aim the client at a follower
        assert_eq!(c.run_job(5), Some(false));
        assert_eq!(c.executions(5), 0);
    }
}
