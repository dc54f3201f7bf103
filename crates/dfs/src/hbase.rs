//! The HBase-like region layer: HMaster, RegionServers, a shared log store
//! (the HDFS stand-in), and clients — reproducing HBASE-2312.
//!
//! Region servers append client writes to a write-ahead log in the shared
//! store and roll to a new log when the current one fills. The HMaster
//! learns each server's logs from its heartbeats. When a *partial
//! partition* separates a region server from the HMaster — but not from
//! the store — the master declares it dead and replays the logs **it knows
//! about** onto another server. The old server, still alive and still able
//! to reach the store, keeps acknowledging writes into a *newly rolled log
//! the master never hears about*: every operation in that log is lost
//! (HBASE-2312, Finding 5's one-side-only client access).
//!
//! The fix is fencing: during the takeover the master fences the dead
//! server at the store, so the zombie's appends fail and no client write
//! is acknowledged into an orphaned log ([`HbFlaws::fence_on_split`]).

use std::collections::BTreeMap;

use neat::{
    checkers::{check_register, RegisterSemantics},
    cluster::{boot, Mailbox, Node},
};
use simnet::{Ctx, NodeId, TimerId};

const TAG_RS_HB: u64 = 131;
const TAG_MASTER_CHECK: u64 = 132;

/// Flaw toggle.
#[derive(Clone, Copy, Debug)]
pub struct HbFlaws {
    /// `true` = the fixed behaviour: the master fences a presumed-dead
    /// region server at the log store before replaying its logs.
    pub fence_on_split: bool,
}

/// One WAL entry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalEntry {
    pub key: String,
    pub val: u64,
}

/// Wire protocol.
#[derive(Clone, Debug)]
pub enum HbMsg {
    /// Client → region server.
    Put { op_id: u64, key: String, val: u64 },
    PutResp { op_id: u64, ok: bool },
    /// Region server → store: append to `(rs, log)`.
    Append {
        seq: u64,
        log: u64,
        entry: WalEntry,
    },
    AppendResp { seq: u64, ok: bool },
    /// Region server → master: liveness + the logs it has created.
    RsHeartbeat { logs: Vec<u64> },
    /// Master → store: reject all future appends from `rs`.
    Fence { rs: NodeId },
    /// Master → store: read back the entries of `(rs, log)`.
    ReadLog { rs: NodeId, log: u64 },
    LogContents {
        rs: NodeId,
        log: u64,
        entries: Vec<WalEntry>,
    },
    /// Master → region server: you now serve the region; apply these
    /// replayed entries.
    AssignRegion { entries: Vec<WalEntry> },
    /// Master → old region server (after heal): you were fenced.
    ZombieFence,
}

/// The shared log store (HDFS stand-in).
#[derive(Default)]
pub struct LogStore {
    logs: BTreeMap<(NodeId, u64), Vec<WalEntry>>,
    fenced: Vec<NodeId>,
}

impl Node<HbMsg> for LogStore {
    fn on_message(&mut self, ctx: &mut Ctx<'_, HbMsg>, from: NodeId, msg: HbMsg) {
        match msg {
            HbMsg::Append { seq, log, entry } => {
                if self.fenced.contains(&from) {
                    ctx.send(from, HbMsg::AppendResp { seq, ok: false });
                    return;
                }
                self.logs.entry((from, log)).or_default().push(entry);
                ctx.send(from, HbMsg::AppendResp { seq, ok: true });
            }
            HbMsg::Fence { rs }
                if !self.fenced.contains(&rs) => {
                    self.fenced.push(rs);
                }
            HbMsg::ReadLog { rs, log } => {
                let entries = self.logs.get(&(rs, log)).cloned().unwrap_or_default();
                ctx.send(from, HbMsg::LogContents { rs, log, entries });
            }
            _ => {}
        }
    }
}

/// The HMaster.
pub struct HMaster {
    region_servers: Vec<NodeId>,
    store: NodeId,
    flaws: HbFlaws,
    /// Logs each region server reported via heartbeats.
    known_logs: BTreeMap<NodeId, Vec<u64>>,
    last_hb: BTreeMap<NodeId, u64>,
    /// The server currently assigned the region.
    pub serving: NodeId,
    /// Split in progress: logs awaiting replay and entries gathered so far.
    pending_split: Option<(NodeId, Vec<u64>, Vec<WalEntry>)>,
    dead_after: u64,
}

impl Node<HbMsg> for HMaster {
    fn start(&mut self, ctx: &mut Ctx<'_, HbMsg>) {
        ctx.set_timer(100, TAG_MASTER_CHECK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, HbMsg>, from: NodeId, msg: HbMsg) {
        match msg {
            HbMsg::RsHeartbeat { logs } => {
                self.last_hb.insert(from, ctx.now());
                self.known_logs.insert(from, logs);
            }
            HbMsg::LogContents { rs, log, entries } => {
                let done = match &mut self.pending_split {
                    Some((dead, awaiting, gathered)) if *dead == rs => {
                        awaiting.retain(|&l| l != log);
                        gathered.extend(entries);
                        awaiting.is_empty()
                    }
                    _ => false,
                };
                if done {
                    let (dead, _, gathered) =
                        self.pending_split.take().expect("split in progress"); // lint:allow(unwrap-expect)
                    let new_rs = self
                        .region_servers
                        .iter()
                        .copied()
                        .find(|&s| s != dead)
                        .expect("another region server exists"); // lint:allow(unwrap-expect)
                    ctx.note(|| format!(
                        "master reassigns region to {new_rs}, replaying {} entries",
                        gathered.len()
                    ));
                    self.serving = new_rs;
                    ctx.send(new_rs, HbMsg::AssignRegion { entries: gathered });
                    ctx.send(dead, HbMsg::ZombieFence);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, HbMsg>, _t: TimerId, tag: u64) {
        if tag != TAG_MASTER_CHECK {
            return;
        }
        let now = ctx.now();
        if self.pending_split.is_none() {
            let rs = self.serving;
            let stale = now.saturating_sub(self.last_hb.get(&rs).copied().unwrap_or(0))
                > self.dead_after;
            if stale {
                ctx.note(|| format!("master presumes {rs} dead; splitting its logs"));
                if self.flaws.fence_on_split {
                    ctx.send(self.store, HbMsg::Fence { rs });
                }
                let logs = self.known_logs.get(&rs).cloned().unwrap_or_default();
                if logs.is_empty() {
                    // Nothing to replay: reassign immediately.
                    let new_rs = self
                        .region_servers
                        .iter()
                        .copied()
                        .find(|&s| s != rs)
                        .expect("another region server exists"); // lint:allow(unwrap-expect)
                    self.serving = new_rs;
                    ctx.send(new_rs, HbMsg::AssignRegion { entries: Vec::new() });
                } else {
                    for &log in &logs {
                        ctx.send(self.store, HbMsg::ReadLog { rs, log });
                    }
                    self.pending_split = Some((rs, logs, Vec::new()));
                }
            }
        }
        ctx.set_timer(100, TAG_MASTER_CHECK);
    }
}

struct PendingPut {
    client: NodeId,
    op_id: u64,
    key: String,
    val: u64,
}

/// A region server.
pub struct RegionServer {
    me: NodeId,
    master: NodeId,
    store: NodeId,
    /// Entries per rolled log (what this server believes it wrote).
    logs: Vec<u64>,
    current_log: u64,
    entries_in_log: u32,
    log_roll_at: u32,
    /// The serving region's memstore.
    pub region: BTreeMap<String, u64>,
    serving: bool,
    seq: u64,
    pending: BTreeMap<u64, PendingPut>,
    fenced: bool,
}

impl RegionServer {
    fn new(me: NodeId, master: NodeId, store: NodeId, serving: bool) -> Self {
        Self {
            me,
            master,
            store,
            logs: vec![0],
            current_log: 0,
            entries_in_log: 0,
            log_roll_at: 2,
            region: BTreeMap::new(),
            serving,
            seq: 0,
            pending: BTreeMap::new(),
            fenced: false,
        }
    }
}

impl Node<HbMsg> for RegionServer {
    fn start(&mut self, ctx: &mut Ctx<'_, HbMsg>) {
        ctx.set_timer(100, TAG_RS_HB);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, HbMsg>, from: NodeId, msg: HbMsg) {
        match msg {
            HbMsg::Put { op_id, key, val } => {
                if !self.serving || self.fenced {
                    ctx.send(from, HbMsg::PutResp { op_id, ok: false });
                    return;
                }
                // Roll the log when full — the moment HBASE-2312 hinges on.
                if self.entries_in_log >= self.log_roll_at {
                    self.current_log += 1;
                    self.logs.push(self.current_log);
                    self.entries_in_log = 0;
                    ctx.note(|| format!("{} rolls to log {}", self.me, self.current_log));
                }
                self.entries_in_log += 1;
                self.seq += 1;
                let seq = self.seq;
                self.pending.insert(
                    seq,
                    PendingPut {
                        client: from,
                        op_id,
                        key: key.clone(),
                        val,
                    },
                );
                ctx.send(
                    self.store,
                    HbMsg::Append {
                        seq,
                        log: self.current_log,
                        entry: WalEntry { key, val },
                    },
                );
            }
            HbMsg::AppendResp { seq, ok } => {
                if let Some(p) = self.pending.remove(&seq) {
                    if ok {
                        self.region.insert(p.key, p.val);
                    }
                    ctx.send(p.client, HbMsg::PutResp { op_id: p.op_id, ok });
                }
            }
            HbMsg::AssignRegion { entries } => {
                ctx.note(|| format!("{} takes over the region", self.me));
                self.serving = true;
                for e in entries {
                    self.region.insert(e.key, e.val);
                }
            }
            HbMsg::ZombieFence => {
                ctx.note(|| format!("{} learns it was fenced; dropping the region", self.me));
                self.serving = false;
                self.fenced = true;
            }
            _ => {
                let _ = from;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, HbMsg>, _t: TimerId, tag: u64) {
        if tag == TAG_RS_HB {
            let logs = self.logs.clone();
            ctx.send(self.master, HbMsg::RsHeartbeat { logs });
            ctx.set_timer(100, TAG_RS_HB);
        }
    }
}

/// The client role: put acknowledgements by op id.
impl Node<HbMsg> for Mailbox<bool> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, HbMsg>, _from: NodeId, msg: HbMsg) {
        if let HbMsg::PutResp { op_id, ok } = msg {
            self.put(op_id, ok);
        }
    }
}

neat::roles! {
    /// A node of the HBase deployment.
    pub enum HbProc: HbMsg {
        Master(HMaster) => master / master_mut,
        Rs(RegionServer) => rs / rs_mut,
        Store(LogStore) => store / store_mut,
        Client(Mailbox<bool>) => client / client_mut,
    }
}

/// The deployment: master, two region servers, the log store, one client.
pub struct HbCluster {
    pub neat: neat::Neat<HbProc>,
    pub master: NodeId,
    pub region_servers: Vec<NodeId>,
    pub store: NodeId,
    pub client: NodeId,
}

impl HbCluster {
    /// Builds and boots the deployment; RS 1 initially serves the region.
    pub fn build(flaws: HbFlaws, seed: u64, record: bool) -> Self {
        let master = NodeId(0);
        let region_servers = vec![NodeId(1), NodeId(2)];
        let store = NodeId(3);
        let client = NodeId(4);
        let neat = boot(seed, record, 5, |id| {
            if id == master {
                HbProc::Master(HMaster {
                    region_servers: region_servers.clone(),
                    store,
                    flaws,
                    known_logs: BTreeMap::new(),
                    last_hb: BTreeMap::new(),
                    serving: region_servers[0],
                    pending_split: None,
                    dead_after: 400,
                })
            } else if id.0 <= 2 {
                HbProc::Rs(RegionServer::new(id, master, store, id.0 == 1))
            } else if id == store {
                HbProc::Store(LogStore::default())
            } else {
                HbProc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            master,
            region_servers,
            store,
            client,
        }
    }

    /// Synchronous put through the client at `rs`.
    pub fn put(&mut self, rs: NodeId, key: &str, val: u64) -> neat::Outcome {
        let client = self.client;
        let op = neat::Op::Write { key: key.into(), val };
        self.neat.recorded(client, op, |neat| {
            let key = key.to_string();
            let acked = neat.request(
                client,
                neat.op_timeout,
                HbProc::client_mut,
                |_, ctx, op_id| ctx.send(rs, HbMsg::Put { op_id, key, val }),
            );
            match acked {
                Some(true) => neat::Outcome::Ok(None),
                Some(false) => neat::Outcome::Fail,
                None => neat::Outcome::Timeout,
            }
        })
    }

    /// The region contents at whichever server the master considers serving.
    pub fn serving_region(&self) -> BTreeMap<String, u64> {
        let serving = self.neat.world.app(self.master).master().serving;
        self.neat.world.app(serving).rs().region.clone()
    }
}

/// HBASE-2312: a partial partition separates the serving region server from
/// the HMaster but not from the log store; writes acknowledged into a
/// freshly rolled log are lost when the master's split misses that log.
pub fn log_roll_data_loss(flaws: HbFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = HbCluster::build(flaws, seed, record);
    cluster.neat.sleep(300);
    let rs1 = cluster.region_servers[0];

    // Two writes fill log 0 (the roll threshold) and are known everywhere.
    cluster.put(rs1, "a", 1);
    cluster.put(rs1, "b", 2);
    cluster.neat.sleep(200);

    // Partial partition: rs1 | master. Store and client still reach rs1.
    let master = cluster.master;
    let p = cluster.neat.partition_partial(&[rs1], &[master]);

    // The master declares rs1 dead and replays log 0 onto rs2. Meanwhile
    // rs1 keeps serving: the next put rolls to log 1 — which the master
    // will never learn about.
    cluster.neat.sleep(600);
    cluster.put(rs1, "c", 3);
    cluster.put(rs1, "d", 4);
    cluster.neat.sleep(400);

    cluster.neat.heal(&p);
    cluster.neat.sleep(600);

    let region = cluster.serving_region();
    let final_state: std::collections::BTreeMap<String, Option<u64>> =
        ["a", "b", "c", "d"]
            .iter()
            .map(|k| (k.to_string(), region.get(*k).copied()))
            .collect();
    let violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::ViolationKind;

    #[test]
    fn puts_and_takeover_work_without_faults() {
        let mut c = HbCluster::build(HbFlaws { fence_on_split: true }, 1, false);
        c.neat.sleep(300);
        let rs1 = c.region_servers[0];
        assert!(c.put(rs1, "x", 9).is_ok());
        // Crash the serving server; the master replays its log onto rs2.
        c.neat.crash(&[rs1]);
        c.neat.sleep(1500);
        assert_eq!(c.serving_region().get("x"), Some(&9));
    }

    #[test]
    fn hbase2312_rolled_log_lost_with_the_flaw() {
        let violations = log_roll_data_loss(
            HbFlaws {
                fence_on_split: false,
            },
            141,
            false,
        )
        .violations;
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::DataLoss),
            "{violations:?}"
        );
    }

    #[test]
    fn hbase2312_fencing_prevents_acked_loss() {
        let violations = log_roll_data_loss(
            HbFlaws {
                fence_on_split: true,
            },
            141,
            false,
        )
        .violations;
        assert!(violations.is_empty(), "{violations:?}");
    }
}
