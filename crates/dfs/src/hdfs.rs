//! The HDFS-like file system: NameNode, rack-organized DataNodes, and the
//! two paper failures that only a network partition can trigger.
//!
//! - **HDFS-1384** — a partial partition separates the *client* from one
//!   rack while the NameNode still reaches it. The rack-aware placement
//!   policy keeps suggesting nodes from that same rack; the client retries
//!   five times and gives up ([`HdfsFlaws::ignore_excluded_rack`]).
//! - **HDFS-577** — a *simplex* partition lets a DataNode's heartbeats out
//!   but drops everything inbound. A heartbeat-only health model keeps
//!   considering it alive and keeps routing clients to it
//!   ([`HdfsFlaws::heartbeat_only_health`]); the fixed NameNode requires a
//!   request/response probe round trip.

use std::collections::BTreeMap;

use neat::{
    cluster::{boot, Mailbox, Node},
    Violation, ViolationKind,
};
use simnet::{Ctx, NodeId, Time, TimerId};

const TAG_DN_HB: u64 = 81;
const TAG_NN_PROBE: u64 = 82;

/// Flaw toggles.
#[derive(Clone, Copy, Debug)]
pub struct HdfsFlaws {
    /// HDFS-1384: when the client excludes a node, still allocate from the
    /// same rack.
    pub ignore_excluded_rack: bool,
    /// HDFS-577: judge DataNode health by received heartbeats alone.
    pub heartbeat_only_health: bool,
}

/// Wire protocol.
#[derive(Clone, Debug)]
pub enum HdfsMsg {
    /// Client → NameNode: where should block `block` go? `excluded` lists
    /// nodes previous attempts could not reach.
    Alloc {
        op_id: u64,
        block: u64,
        excluded: Vec<NodeId>,
    },
    /// NameNode → client (`None` = no node available).
    AllocResp { op_id: u64, dn: Option<NodeId> },
    /// Client → DataNode.
    WriteBlock { op_id: u64, block: u64 },
    /// DataNode → client.
    WriteAck { op_id: u64 },
    /// Client → NameNode: who serves `block`? `excluded` as above.
    Locate {
        op_id: u64,
        block: u64,
        excluded: Vec<NodeId>,
    },
    LocateResp { op_id: u64, dn: Option<NodeId> },
    /// Client → DataNode.
    ReadBlock { op_id: u64, block: u64 },
    ReadResp { op_id: u64, found: bool },
    /// DataNode → NameNode (one-way liveness signal).
    Heartbeat,
    /// NameNode → DataNode: round-trip health probe (the fixed model).
    Probe,
    ProbeAck,
    /// NameNode → DataNode: replicate a block (used to seed scenarios).
    SeedBlock { block: u64 },
}

/// The NameNode.
pub struct NameNode {
    /// DataNodes grouped by rack (rack index = position in the outer vec).
    racks: Vec<Vec<NodeId>>,
    flaws: HdfsFlaws,
    /// Block → DataNodes holding it.
    pub blocks: BTreeMap<u64, Vec<NodeId>>,
    last_heartbeat: BTreeMap<NodeId, Time>,
    last_probe_ack: BTreeMap<NodeId, Time>,
    dead_after: Time,
}

impl NameNode {
    fn new(racks: Vec<Vec<NodeId>>, flaws: HdfsFlaws) -> Self {
        Self {
            racks,
            flaws,
            blocks: BTreeMap::new(),
            last_heartbeat: BTreeMap::new(),
            last_probe_ack: BTreeMap::new(),
            dead_after: 500,
        }
    }

    fn rack_of(&self, dn: NodeId) -> usize {
        self.racks
            .iter()
            .position(|r| r.contains(&dn))
            .expect("every DataNode is racked") // lint:allow(unwrap-expect)
    }

    fn alive(&self, dn: NodeId, now: Time) -> bool {
        let source = if self.flaws.heartbeat_only_health {
            &self.last_heartbeat
        } else {
            &self.last_probe_ack
        };
        now.saturating_sub(source.get(&dn).copied().unwrap_or(0)) <= self.dead_after
    }

    /// Placement: rack-local first. The flawed policy only skips the
    /// excluded *nodes*; the fixed policy skips their whole *racks*.
    fn pick(&self, excluded: &[NodeId], now: Time) -> Option<NodeId> {
        let excluded_racks: Vec<usize> =
            excluded.iter().map(|&d| self.rack_of(d)).collect();
        for rack in &self.racks {
            for &dn in rack {
                if excluded.contains(&dn) || !self.alive(dn, now) {
                    continue;
                }
                if !self.flaws.ignore_excluded_rack
                    && excluded_racks.contains(&self.rack_of(dn))
                {
                    continue;
                }
                return Some(dn);
            }
        }
        None
    }
}

impl Node<HdfsMsg> for NameNode {
    fn start(&mut self, ctx: &mut Ctx<'_, HdfsMsg>) {
        ctx.set_timer(200, TAG_NN_PROBE);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, HdfsMsg>, from: NodeId, msg: HdfsMsg) {
        match msg {
            HdfsMsg::Heartbeat => {
                self.last_heartbeat.insert(from, ctx.now());
            }
            HdfsMsg::ProbeAck => {
                self.last_probe_ack.insert(from, ctx.now());
            }
            HdfsMsg::Alloc {
                op_id,
                block,
                excluded,
            } => {
                let dn = self.pick(&excluded, ctx.now());
                if let Some(d) = dn {
                    self.blocks.entry(block).or_default().push(d);
                }
                ctx.send(from, HdfsMsg::AllocResp { op_id, dn });
            }
            HdfsMsg::Locate {
                op_id,
                block,
                excluded,
            } => {
                let now = ctx.now();
                let dn = self
                    .blocks
                    .get(&block)
                    .and_then(|holders| {
                        holders
                            .iter()
                            .copied()
                            .find(|d| !excluded.contains(d) && self.alive(*d, now))
                    });
                ctx.send(from, HdfsMsg::LocateResp { op_id, dn });
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, HdfsMsg>, _t: TimerId, tag: u64) {
        if tag != TAG_NN_PROBE {
            return;
        }
        for rack in self.racks.clone() {
            for dn in rack {
                ctx.send(dn, HdfsMsg::Probe);
            }
        }
        ctx.set_timer(200, TAG_NN_PROBE);
    }
}

/// A DataNode.
pub struct DataNode {
    /// Blocks stored here.
    pub blocks: Vec<u64>,
    /// The NameNode this DataNode heartbeats to.
    nn: NodeId,
}

impl Node<HdfsMsg> for DataNode {
    fn start(&mut self, ctx: &mut Ctx<'_, HdfsMsg>) {
        ctx.set_timer(100, TAG_DN_HB);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, HdfsMsg>, from: NodeId, msg: HdfsMsg) {
        match msg {
            HdfsMsg::WriteBlock { op_id, block } => {
                self.blocks.push(block);
                ctx.send(from, HdfsMsg::WriteAck { op_id });
            }
            HdfsMsg::ReadBlock { op_id, block } => {
                let found = self.blocks.contains(&block);
                ctx.send(from, HdfsMsg::ReadResp { op_id, found });
            }
            HdfsMsg::Probe => ctx.send(from, HdfsMsg::ProbeAck),
            HdfsMsg::SeedBlock { block } => self.blocks.push(block),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, HdfsMsg>, _t: TimerId, tag: u64) {
        if tag == TAG_DN_HB {
            ctx.send(self.nn, HdfsMsg::Heartbeat);
            ctx.set_timer(100, TAG_DN_HB);
        }
    }
}

/// The HDFS client role: every reply, kept whole until its op is taken.
impl Node<HdfsMsg> for Mailbox<HdfsMsg> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, HdfsMsg>, _from: NodeId, msg: HdfsMsg) {
        match msg {
            HdfsMsg::AllocResp { op_id, .. }
            | HdfsMsg::WriteAck { op_id }
            | HdfsMsg::LocateResp { op_id, .. }
            | HdfsMsg::ReadResp { op_id, .. } => self.put(op_id, msg),
            _ => {}
        }
    }
}

neat::roles! {
    /// A node of the HDFS deployment.
    pub enum HdfsProc: HdfsMsg {
        Nn(NameNode) => nn / nn_mut,
        Dn(DataNode) => dn / dn_mut,
        Client(Mailbox<HdfsMsg>) => client / client_mut,
    }
}

/// The HDFS deployment: one NameNode, two racks of DataNodes, one client.
pub struct HdfsCluster {
    pub neat: neat::Neat<HdfsProc>,
    pub nn: NodeId,
    pub racks: Vec<Vec<NodeId>>,
    pub client: NodeId,
}

impl HdfsCluster {
    /// Builds the deployment: rack 0 with five DataNodes (so the flawed
    /// placement can burn all five client attempts, as in HDFS-1384) and
    /// rack 1 with two.
    pub fn build(flaws: HdfsFlaws, seed: u64, record: bool) -> Self {
        let nn = NodeId(0);
        let racks = vec![
            (1..=5).map(NodeId).collect::<Vec<_>>(),
            vec![NodeId(6), NodeId(7)],
        ];
        let client = NodeId(8);
        let neat = boot(seed, record, 9, |id| {
            if id == nn {
                HdfsProc::Nn(NameNode::new(racks.clone(), flaws))
            } else if id.0 <= 7 {
                HdfsProc::Dn(DataNode {
                    blocks: Vec::new(),
                    nn,
                })
            } else {
                HdfsProc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            nn,
            racks,
            client,
        }
    }

    /// One client round trip: sends `msg(op_id)` to `to` and waits up to
    /// `timeout` for the reply.
    fn ask(
        &mut self,
        timeout: u64,
        to: NodeId,
        msg: impl FnOnce(u64) -> HdfsMsg,
    ) -> Option<HdfsMsg> {
        self.neat.request(
            self.client,
            timeout,
            HdfsProc::client_mut,
            |_, ctx, op_id| ctx.send(to, msg(op_id)),
        )
    }

    /// One pipeline-write attempt: allocate, then write. Returns the
    /// DataNode used on success.
    fn write_attempt(&mut self, block: u64, excluded: &[NodeId]) -> Option<NodeId> {
        let alloc = |op_id| HdfsMsg::Alloc {
            op_id,
            block,
            excluded: excluded.to_vec(),
        };
        let Some(HdfsMsg::AllocResp { dn: Some(dn), .. }) =
            self.ask(self.neat.op_timeout, self.nn, alloc)
        else {
            return None;
        };
        // Write to the allocated node with a short attempt timeout.
        let write = |op_id| HdfsMsg::WriteBlock { op_id, block };
        let acked = self.ask(300, dn, write);
        acked.map(|_| dn)
    }

    /// The full client write protocol: up to five attempts, excluding every
    /// node that failed (HDFS-1384's retry loop). Returns the attempts made
    /// and whether the write finally succeeded.
    pub fn write_block(&mut self, block: u64) -> (usize, bool) {
        let mut excluded = Vec::new();
        for attempt in 1..=5 {
            match self.write_attempt(block, &excluded) {
                Some(_) => return (attempt, true),
                None => {
                    // Exclude whatever the NameNode suggested last. We need
                    // to ask it again; the failed allocation recorded the
                    // holder in `blocks`, so look there.
                    let nn = self.neat.world.app(self.nn).nn();
                    let holders = nn.blocks.get(&block).cloned().unwrap_or_default();
                    for h in holders {
                        if !excluded.contains(&h) {
                            excluded.push(h);
                        }
                    }
                }
            }
        }
        (5, false)
    }

    /// Reads `block`, retrying once with exclusion; returns `(attempts,
    /// success)`.
    pub fn read_block(&mut self, block: u64) -> (usize, bool) {
        let mut excluded: Vec<NodeId> = Vec::new();
        for attempt in 1..=3 {
            let locate = |op_id| HdfsMsg::Locate {
                op_id,
                block,
                excluded: excluded.clone(),
            };
            let located = self.ask(self.neat.op_timeout, self.nn, locate);
            let Some(HdfsMsg::LocateResp { dn: Some(dn), .. }) = located else {
                continue;
            };
            let read = |op_id| HdfsMsg::ReadBlock { op_id, block };
            match self.ask(300, dn, read) {
                Some(HdfsMsg::ReadResp { found: true, .. }) => return (attempt, true),
                _ => excluded.push(dn),
            }
        }
        (3, false)
    }

    /// Seeds `block` onto specific DataNodes (test setup).
    pub fn seed(&mut self, block: u64, dns: &[NodeId]) {
        for &dn in dns {
            self.neat
                .world
                .call(dn, |p, _| p.dn_mut().blocks.push(block))
                .expect("dn alive"); // lint:allow(unwrap-expect)
        }
        let nn = self.neat.world.app_mut(self.nn).nn_mut();
        nn.blocks.insert(block, dns.to_vec());
    }
}

/// HDFS-1384: the client cannot reach rack 0, but the NameNode can; the
/// flawed placement keeps suggesting rack-0 nodes until the client gives up.
pub fn rack_placement_retry(flaws: HdfsFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = HdfsCluster::build(flaws, seed, record);
    cluster.neat.sleep(300);

    // Partial partition: client | rack 0. NameNode and rack 1 bridge.
    let rack0 = cluster.racks[0].clone();
    let client = cluster.client;
    let p = cluster.neat.partition_partial(&[client], &rack0);

    let (attempts, ok) = cluster.write_block(42);
    cluster.neat.heal(&p);

    let mut violations = Vec::new();
    if !ok {
        violations.push(Violation::new(
            ViolationKind::DataUnavailability,
            format!(
                "write failed after {attempts} placement attempts, all from the \
                 unreachable rack, although a healthy rack existed"
            ),
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// HDFS-577: a simplex partition leaves a DataNode able to heartbeat but
/// unable to receive; the heartbeat-only health model keeps routing reads
/// to it.
pub fn simplex_healthy_node(flaws: HdfsFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = HdfsCluster::build(flaws, seed, record);
    cluster.neat.sleep(300);
    let dn_bad = cluster.racks[0][0];
    let dn_good = cluster.racks[1][0];
    cluster.seed(7, &[dn_bad, dn_good]);

    // Simplex: nothing gets IN to dn_bad; its heartbeats still get OUT.
    let everyone = neat::rest_of(&cluster.neat.world.node_ids(), &[dn_bad]);
    let p = cluster.neat.partition_simplex(&everyone, &[dn_bad]);
    cluster.neat.sleep(1000); // let health state converge

    let (attempts, ok) = cluster.read_block(7);
    cluster.neat.heal(&p);

    let mut violations = Vec::new();
    if !ok {
        violations.push(Violation::new(
            ViolationKind::DataUnavailability,
            "read never succeeded: the NameNode kept the unreachable node healthy",
        ));
    } else if attempts > 1 {
        violations.push(Violation::new(
            ViolationKind::Other,
            format!(
                "read needed {attempts} attempts because the heartbeat-only health \
                 model routed it to the half-dead node first (performance degradation)"
            ),
        ));
    }
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flawed() -> HdfsFlaws {
        HdfsFlaws {
            ignore_excluded_rack: true,
            heartbeat_only_health: true,
        }
    }
    fn fixed() -> HdfsFlaws {
        HdfsFlaws {
            ignore_excluded_rack: false,
            heartbeat_only_health: false,
        }
    }

    #[test]
    fn write_and_read_without_faults() {
        let mut c = HdfsCluster::build(fixed(), 1, false);
        c.neat.sleep(300);
        let (attempts, ok) = c.write_block(1);
        assert!(ok);
        assert_eq!(attempts, 1);
        let (rattempts, rok) = c.read_block(1);
        assert!(rok);
        assert_eq!(rattempts, 1);
    }

    #[test]
    fn hdfs1384_rack_retry_fails_with_the_flaw() {
        let violations = rack_placement_retry(flawed(), 101, false).violations;
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::DataUnavailability),
            "{violations:?}"
        );
    }

    #[test]
    fn hdfs1384_write_succeeds_when_fixed() {
        let violations = rack_placement_retry(fixed(), 101, false).violations;
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn hdfs577_degraded_reads_with_the_flaw() {
        let violations = simplex_healthy_node(flawed(), 103, false).violations;
        assert!(!violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn hdfs577_clean_reads_when_fixed() {
        let violations = simplex_healthy_node(fixed(), 103, false).violations;
        assert!(violations.is_empty(), "{violations:?}");
    }
}
