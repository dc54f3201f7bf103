//! The Ceph-like object store: a monitor, three OSDs, and clients.
//!
//! NEAT found (ceph #24193) that a partial partition produces data loss and
//! data corruption while users receive timeout errors for operations that
//! actually succeeded. The mechanism modelled here is recovery-copy
//! selection: writes and deletes commit on a majority of OSDs, but after
//! the partition heals the flawed recovery picks the *lowest-numbered*
//! OSD's copy as authoritative, ignoring versions and tombstones
//! ([`ObjFlaws::naive_recovery`]). A stale isolated OSD then resurrects
//! deleted objects and rolls back acknowledged writes. The fixed recovery
//! is version- and tombstone-aware.

use std::collections::BTreeMap;

use neat::{
    checkers::{check_register, RegisterSemantics},
    cluster::{boot, Mailbox, Node},
};
use simnet::{Ctx, NodeId, TimerId};

const TAG_RECOVER: u64 = 91;

/// Flaw toggle.
#[derive(Clone, Copy, Debug)]
pub struct ObjFlaws {
    /// Recovery takes the lowest-id OSD's copy verbatim, ignoring versions
    /// and tombstones.
    pub naive_recovery: bool,
}

/// One object replica: value plus version; `None` value = tombstone.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObjVersion {
    pub val: Option<u64>,
    pub version: u64,
}

/// Wire protocol.
#[derive(Clone, Debug)]
pub enum ObjMsg {
    /// Client → primary OSD.
    Write { op_id: u64, key: String, val: u64 },
    Delete { op_id: u64, key: String },
    Read { op_id: u64, key: String },
    /// Primary → replicas.
    Repl {
        seq: u64,
        key: String,
        obj: ObjVersion,
    },
    ReplAck { seq: u64 },
    /// OSD ↔ OSD: state exchange during recovery.
    RecoverPull,
    RecoverPush { objects: BTreeMap<String, ObjVersion> },
    /// OSD → client.
    Resp {
        op_id: u64,
        ok: bool,
        val: Option<u64>,
    },
}

struct PendingRepl {
    client: NodeId,
    op_id: u64,
    acks: usize,
    needed: usize,
}

/// One OSD.
pub struct Osd {
    me: NodeId,
    osds: Vec<NodeId>,
    flaws: ObjFlaws,
    pub objects: BTreeMap<String, ObjVersion>,
    seq: u64,
    pending: BTreeMap<u64, PendingRepl>,
}

impl Osd {
    fn is_primary(&self) -> bool {
        self.osds.first() == Some(&self.me)
    }

    fn mutate(
        &mut self,
        ctx: &mut Ctx<'_, ObjMsg>,
        from: NodeId,
        op_id: u64,
        key: String,
        val: Option<u64>,
    ) {
        let version = self.objects.get(&key).map(|o| o.version).unwrap_or(0) + 1;
        let obj = ObjVersion { val, version };
        self.objects.insert(key.clone(), obj);
        self.seq += 1;
        let seq = self.seq;
        // Majority commit: self + acks.
        let needed = self.osds.len() / 2 + 1 - 1;
        self.pending.insert(
            seq,
            PendingRepl {
                client: from,
                op_id,
                acks: 0,
                needed,
            },
        );
        let peers: Vec<NodeId> = self.osds.iter().copied().filter(|&o| o != self.me).collect();
        ctx.broadcast(&peers, ObjMsg::Repl { seq, key, obj });
    }
}

impl Node<ObjMsg> for Osd {
    fn start(&mut self, ctx: &mut Ctx<'_, ObjMsg>) {
        ctx.set_timer(300, TAG_RECOVER);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ObjMsg>, from: NodeId, msg: ObjMsg) {
        match msg {
            ObjMsg::Write { op_id, key, val } => {
                if self.is_primary() {
                    self.mutate(ctx, from, op_id, key, Some(val));
                } else {
                    ctx.send(from, ObjMsg::Resp { op_id, ok: false, val: None });
                }
            }
            ObjMsg::Delete { op_id, key } => {
                if self.is_primary() {
                    self.mutate(ctx, from, op_id, key, None);
                } else {
                    ctx.send(from, ObjMsg::Resp { op_id, ok: false, val: None });
                }
            }
            ObjMsg::Read { op_id, key } => {
                let val = self.objects.get(&key).and_then(|o| o.val);
                ctx.send(from, ObjMsg::Resp { op_id, ok: true, val });
            }
            ObjMsg::Repl { seq, key, obj } => {
                // Replicas apply newer versions.
                let apply = self
                    .objects
                    .get(&key)
                    .map(|cur| obj.version > cur.version)
                    .unwrap_or(true);
                if apply {
                    self.objects.insert(key, obj);
                }
                ctx.send(from, ObjMsg::ReplAck { seq });
            }
            ObjMsg::ReplAck { seq } => {
                let done = match self.pending.get_mut(&seq) {
                    Some(p) => {
                        p.acks += 1;
                        p.acks >= p.needed
                    }
                    None => false,
                };
                if done {
                    let p = self.pending.remove(&seq).expect("present"); // lint:allow(unwrap-expect)
                    ctx.send(
                        p.client,
                        ObjMsg::Resp {
                            op_id: p.op_id,
                            ok: true,
                            val: None,
                        },
                    );
                }
            }
            ObjMsg::RecoverPull => {
                let objects = self.objects.clone();
                ctx.send(from, ObjMsg::RecoverPush { objects });
            }
            ObjMsg::RecoverPush { objects } => {
                for (key, theirs) in objects {
                    match self.objects.get(&key) {
                        Some(mine) => {
                            let adopt = if self.flaws.naive_recovery {
                                // The lowest OSD's copy is authoritative —
                                // regardless of versions or tombstones.
                                from < self.me
                            } else {
                                theirs.version > mine.version
                            };
                            if adopt {
                                self.objects.insert(key, theirs);
                            }
                        }
                        None => {
                            // Unknown object: naive recovery resurrects it;
                            // fixed recovery also adopts (a genuinely new
                            // object looks the same), but version-aware
                            // tombstones above prevent the harmful case.
                            self.objects.insert(key, theirs);
                        }
                    }
                }
            }
            ObjMsg::Resp { .. } => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ObjMsg>, _t: TimerId, tag: u64) {
        if tag != TAG_RECOVER {
            return;
        }
        // Periodic peer recovery: pull copies from every other OSD.
        let peers: Vec<NodeId> = self.osds.iter().copied().filter(|&o| o != self.me).collect();
        ctx.broadcast(&peers, ObjMsg::RecoverPull);
        ctx.set_timer(300, TAG_RECOVER);
    }
}

/// The client role: each answer's `(ok, value)` by op id.
impl Node<ObjMsg> for Mailbox<(bool, Option<u64>)> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, ObjMsg>, _from: NodeId, msg: ObjMsg) {
        if let ObjMsg::Resp { op_id, ok, val } = msg {
            self.put(op_id, (ok, val));
        }
    }
}

neat::roles! {
    /// A node of the object-store deployment.
    pub enum ObjProc: ObjMsg {
        Osd(Osd) => osd / osd_mut,
        Client(Mailbox<(bool, Option<u64>)>) => client / client_mut,
    }
}

/// The deployment: three OSDs (OSD 0 is the primary) and two clients.
pub struct ObjCluster {
    pub neat: neat::Neat<ObjProc>,
    pub osds: Vec<NodeId>,
    pub clients: Vec<NodeId>,
}

/// The outcome of a write or delete the primary answered.
fn acked(ok: bool, _val: Option<u64>) -> neat::Outcome {
    if ok {
        neat::Outcome::Ok(None)
    } else {
        neat::Outcome::Fail
    }
}

impl ObjCluster {
    /// Builds the deployment.
    pub fn build(flaws: ObjFlaws, seed: u64, record: bool) -> Self {
        let osds: Vec<NodeId> = (0..3).map(NodeId).collect();
        let clients: Vec<NodeId> = (3..5).map(NodeId).collect();
        let neat = boot(seed, record, 5, |id| {
            if id.0 < 3 {
                ObjProc::Osd(Osd {
                    me: id,
                    osds: osds.clone(),
                    flaws,
                    objects: BTreeMap::new(),
                    seq: 0,
                    pending: BTreeMap::new(),
                })
            } else {
                ObjProc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            osds,
            clients,
        }
    }

    /// One recorded round trip from client `i` to the primary; `answer`
    /// turns the OSD's `(ok, value)` reply into the outcome.
    fn run(
        &mut self,
        i: usize,
        op: neat::Op,
        msg: impl FnOnce(u64) -> ObjMsg,
        answer: impl FnOnce(bool, Option<u64>) -> neat::Outcome,
    ) -> neat::Outcome {
        let (client, primary) = (self.clients[i], self.osds[0]);
        self.neat.recorded(client, op, |neat| {
            let reply = neat.request(
                client,
                neat.op_timeout,
                ObjProc::client_mut,
                |_, ctx, op_id| ctx.send(primary, msg(op_id)),
            );
            reply.map_or(neat::Outcome::Timeout, |(ok, val)| answer(ok, val))
        })
    }

    /// A recorded write through client `i`.
    pub fn write(&mut self, i: usize, key: &str, val: u64) -> neat::Outcome {
        let op = neat::Op::Write { key: key.into(), val };
        let key = key.to_string();
        self.run(i, op, |op_id| ObjMsg::Write { op_id, key, val }, acked)
    }

    /// A recorded delete through client `i`.
    pub fn delete(&mut self, i: usize, key: &str) -> neat::Outcome {
        let op = neat::Op::Delete { key: key.into() };
        let key = key.to_string();
        self.run(i, op, |op_id| ObjMsg::Delete { op_id, key }, acked)
    }

    /// A recorded read through client `i` at the primary.
    pub fn read(&mut self, i: usize, key: &str) -> neat::Outcome {
        let op = neat::Op::Read { key: key.into() };
        let key = key.to_string();
        self.run(i, op, |op_id| ObjMsg::Read { op_id, key }, |_, val| neat::Outcome::Ok(val))
    }

    /// The primary's view of `key` after quiescing.
    pub fn final_value(&self, key: &str) -> Option<u64> {
        let primary = self.neat.world.app(self.osds[0]).osd();
        primary.objects.get(key).and_then(|v| v.val)
    }
}

/// ceph #24193 (modelled): a partial partition isolates the lowest OSD;
/// acknowledged writes and deletes commit on the majority; the flawed
/// recovery then takes the stale OSD's copies as authoritative.
pub fn recovery_resurrection(flaws: ObjFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = ObjCluster::build(flaws, seed, record);
    cluster.neat.sleep(50);

    // Baseline objects, fully replicated across all three OSDs.
    cluster.write(0, "a", 1);
    cluster.write(0, "d", 9);
    cluster.neat.sleep(200);

    // Isolate the primary OSD 0 (it keeps the stale copies).
    let osd0 = cluster.osds[0];
    let p = cluster.neat.partition_partial(&[osd0], &[cluster.osds[1], cluster.osds[2]]);

    // The monitor (which reaches everyone) promotes OSD 1 to acting
    // primary for the surviving majority — modelled as a direct
    // configuration change on the reachable OSDs.
    let acting = cluster.osds[1];
    for osd in [acting, cluster.osds[2]] {
        cluster.neat.world.app_mut(osd).osd_mut().osds = vec![acting, cluster.osds[2]];
    }
    // Acknowledged mutations on the majority: overwrite "a", delete "d".
    let primary_backup = cluster.osds[0];
    cluster.osds[0] = acting;
    cluster.write(1, "a", 2);
    cluster.delete(1, "d");
    cluster.osds[0] = primary_backup;

    cluster.neat.heal(&p);
    // Restore the full OSD set and let recovery run.
    for osd in [acting, cluster.osds[2]] {
        cluster.neat.world.app_mut(osd).osd_mut().osds = cluster.osds.clone();
    }
    cluster.neat.sleep(1500);

    // Final reads at the (restored) primary.
    cluster.read(1, "a");
    cluster.read(1, "d");

    let final_state: BTreeMap<String, Option<u64>> = [
        ("a".to_string(), cluster.final_value("a")),
        ("d".to_string(), cluster.final_value("d")),
    ]
    .into_iter()
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
    fn write_read_delete_without_faults() {
        let mut c = ObjCluster::build(ObjFlaws { naive_recovery: false }, 1, false);
        c.neat.sleep(50);
        assert!(c.write(0, "x", 5).is_ok());
        assert_eq!(c.read(1, "x"), neat::Outcome::Ok(Some(5)));
        assert!(c.delete(0, "x").is_ok());
        assert_eq!(c.read(1, "x"), neat::Outcome::Ok(None));
    }

    #[test]
    fn ceph24193_resurrection_and_rollback_with_the_flaw() {
        let violations = recovery_resurrection(
            ObjFlaws {
                naive_recovery: true,
            },
            121,
            false,
        )
        .violations;
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::DataLoss
                    || v.kind == ViolationKind::StaleRead),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::ReappearanceOfDeletedData),
            "{violations:?}"
        );
    }

    #[test]
    fn ceph24193_clean_with_versioned_recovery() {
        let violations =
            recovery_resurrection(ObjFlaws { naive_recovery: false }, 121, false).violations;
        assert!(violations.is_empty(), "{violations:?}");
    }
}
