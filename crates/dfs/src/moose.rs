//! The MooseFS-like file system: one master, chunkservers, a client.
//!
//! NEAT findings (Table 15):
//!
//! - **moosefs #132** — a partial partition separates the client from a
//!   chunkserver while the master still reaches it; the master keeps
//!   pointing the client at that chunkserver and the client hangs forever
//!   ([`MooseFlaws::never_offer_alternative`]).
//! - **moosefs #131** — the master records new-file metadata before the
//!   chunk write is confirmed; when the partition kills the chunk write,
//!   the file exists in metadata with no data — an inconsistent file
//!   system ([`MooseFlaws::metadata_before_data`]).

use std::collections::BTreeMap;

use neat::{
    cluster::{boot, Mailbox, Node},
    Violation, ViolationKind,
};
use simnet::{Ctx, NodeId};

/// Flaw toggles.
#[derive(Clone, Copy, Debug)]
pub struct MooseFlaws {
    /// #132: keep directing the client to the same chunkserver forever.
    pub never_offer_alternative: bool,
    /// #131: commit metadata before the chunk data is confirmed.
    pub metadata_before_data: bool,
}

/// Wire protocol.
#[derive(Clone, Debug)]
pub enum MooseMsg {
    /// Client → master: create `file`, get a chunkserver to write to.
    Create {
        op_id: u64,
        file: u64,
        excluded: Vec<NodeId>,
    },
    CreateResp { op_id: u64, cs: Option<NodeId> },
    /// Client → chunkserver.
    WriteChunk { op_id: u64, file: u64 },
    WriteChunkAck { op_id: u64 },
    /// Client → master: confirm the chunk was written (fixed mode commits
    /// metadata here).
    Confirm { op_id: u64, file: u64 },
    ConfirmAck { op_id: u64 },
    /// Client → master: does `file` exist, and where is its data?
    Stat { op_id: u64, file: u64 },
    StatResp {
        op_id: u64,
        exists: bool,
        cs: Option<NodeId>,
    },
    /// Client → chunkserver.
    ReadChunk { op_id: u64, file: u64 },
    ReadChunkResp { op_id: u64, found: bool },
}

/// Master metadata per file.
#[derive(Clone, Copy, Debug)]
struct FileMeta {
    cs: NodeId,
    confirmed: bool,
}

/// The master server.
pub struct Master {
    chunkservers: Vec<NodeId>,
    flaws: MooseFlaws,
    files: BTreeMap<u64, FileMeta>,
}

impl Node<MooseMsg> for Master {
    fn on_message(&mut self, ctx: &mut Ctx<'_, MooseMsg>, from: NodeId, msg: MooseMsg) {
        match msg {
            MooseMsg::Create {
                op_id,
                file,
                excluded,
            } => {
                let cs = if self.flaws.never_offer_alternative {
                    // #132: the placement decision is sticky.
                    Some(self.chunkservers[file as usize % self.chunkservers.len()])
                } else {
                    self.chunkservers
                        .iter()
                        .copied()
                        .find(|c| !excluded.contains(c))
                };
                if let Some(cs) = cs {
                    if self.flaws.metadata_before_data {
                        // #131: the file exists as soon as it is created.
                        self.files.insert(file, FileMeta { cs, confirmed: true });
                    } else {
                        self.files.insert(file, FileMeta { cs, confirmed: false });
                    }
                }
                ctx.send(from, MooseMsg::CreateResp { op_id, cs });
            }
            MooseMsg::Confirm { op_id, file } => {
                if let Some(m) = self.files.get_mut(&file) {
                    m.confirmed = true;
                }
                ctx.send(from, MooseMsg::ConfirmAck { op_id });
            }
            MooseMsg::Stat { op_id, file } => {
                let meta = self.files.get(&file).filter(|m| m.confirmed);
                ctx.send(
                    from,
                    MooseMsg::StatResp {
                        op_id,
                        exists: meta.is_some(),
                        cs: meta.map(|m| m.cs),
                    },
                );
            }
            _ => {}
        }
    }
}

/// A chunkserver.
#[derive(Default)]
pub struct ChunkServer {
    pub chunks: Vec<u64>,
}

impl Node<MooseMsg> for ChunkServer {
    fn on_message(&mut self, ctx: &mut Ctx<'_, MooseMsg>, from: NodeId, msg: MooseMsg) {
        match msg {
            MooseMsg::WriteChunk { op_id, file } => {
                self.chunks.push(file);
                ctx.send(from, MooseMsg::WriteChunkAck { op_id });
            }
            MooseMsg::ReadChunk { op_id, file } => {
                let found = self.chunks.contains(&file);
                ctx.send(from, MooseMsg::ReadChunkResp { op_id, found });
            }
            _ => {}
        }
    }
}

/// The client role: every reply, kept whole until its op is taken.
impl Node<MooseMsg> for Mailbox<MooseMsg> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, MooseMsg>, _from: NodeId, msg: MooseMsg) {
        match msg {
            MooseMsg::CreateResp { op_id, .. }
            | MooseMsg::WriteChunkAck { op_id }
            | MooseMsg::ConfirmAck { op_id }
            | MooseMsg::StatResp { op_id, .. }
            | MooseMsg::ReadChunkResp { op_id, .. } => self.put(op_id, msg),
            _ => {}
        }
    }
}

neat::roles! {
    /// A node of the MooseFS deployment.
    pub enum MooseProc: MooseMsg {
        Master(Master) => master / master_mut,
        Cs(ChunkServer) => cs / cs_mut,
        Client(Mailbox<MooseMsg>) => client / client_mut,
    }
}

/// The deployment: master, three chunkservers, one client.
pub struct MooseCluster {
    pub neat: neat::Neat<MooseProc>,
    pub master: NodeId,
    pub chunkservers: Vec<NodeId>,
    pub client: NodeId,
}

impl MooseCluster {
    /// Builds the deployment.
    pub fn build(flaws: MooseFlaws, seed: u64, record: bool) -> Self {
        let master = NodeId(0);
        let chunkservers: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let client = NodeId(4);
        let neat = boot(seed, record, 5, |id| {
            if id == master {
                MooseProc::Master(Master {
                    chunkservers: chunkservers.clone(),
                    flaws,
                    files: BTreeMap::new(),
                })
            } else if id.0 <= 3 {
                MooseProc::Cs(ChunkServer::default())
            } else {
                MooseProc::Client(Mailbox::default())
            }
        });
        Self {
            neat,
            master,
            chunkservers,
            client,
        }
    }

    /// One client round trip: sends `msg(op_id)` to `to` and waits up to
    /// `timeout` for the reply.
    fn ask(
        &mut self,
        timeout: u64,
        to: NodeId,
        msg: impl FnOnce(u64) -> MooseMsg,
    ) -> Option<MooseMsg> {
        self.neat.request(
            self.client,
            timeout,
            MooseProc::client_mut,
            |_, ctx, op_id| ctx.send(to, msg(op_id)),
        )
    }

    /// The client write protocol: create (placement), write chunk, confirm.
    /// Retries with exclusions up to three times. Returns `(attempts, ok)`.
    pub fn write_file(&mut self, file: u64) -> (usize, bool) {
        let master = self.master;
        let mut excluded = Vec::new();
        for attempt in 1..=3 {
            let create = |op_id| MooseMsg::Create {
                op_id,
                file,
                excluded: excluded.clone(),
            };
            let Some(MooseMsg::CreateResp { cs: Some(cs), .. }) = self.ask(500, master, create)
            else {
                continue;
            };
            let write = |op_id| MooseMsg::WriteChunk { op_id, file };
            if self.ask(400, cs, write).is_some() {
                let confirm = |op_id| MooseMsg::Confirm { op_id, file };
                let _ = self.ask(400, master, confirm);
                return (attempt, true);
            }
            excluded.push(cs);
        }
        (3, false)
    }

    /// Client read: stat at the master, then read the chunk.
    /// Returns `(exists_in_metadata, data_found)`.
    pub fn read_file(&mut self, file: u64) -> (bool, bool) {
        let stat = |op_id| MooseMsg::Stat { op_id, file };
        let Some(MooseMsg::StatResp { exists, cs, .. }) = self.ask(500, self.master, stat) else {
            return (false, false);
        };
        let Some(cs) = cs else {
            return (exists, false);
        };
        let read = |op_id| MooseMsg::ReadChunk { op_id, file };
        let found = self.ask(400, cs, read);
        (exists, matches!(found, Some(MooseMsg::ReadChunkResp { found: true, .. })))
    }
}

/// moosefs #132: the client cannot reach the chunkserver the master keeps
/// suggesting; with the sticky placement the write never completes.
pub fn client_hang(flaws: MooseFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = MooseCluster::build(flaws, seed, record);
    cluster.neat.sleep(50);

    // File 0 maps to chunkserver[0] under the sticky policy.
    let sticky_cs = cluster.chunkservers[0];
    let client = cluster.client;
    let p = cluster.neat.partition_partial(&[client], &[sticky_cs]);

    let (_attempts, ok) = cluster.write_file(0);
    cluster.neat.heal(&p);

    let mut violations = Vec::new();
    if !ok {
        violations.push(Violation::new(
            ViolationKind::SystemHang,
            "the master kept suggesting the unreachable chunkserver; the client \
             write never completed although two healthy chunkservers existed",
        ));
    }
    cluster.neat.outcome(violations, ())
}

/// moosefs #131: the partition interrupts the chunk write after the master
/// recorded the file; the file system is left inconsistent (metadata with
/// no data).
pub fn inconsistent_metadata(flaws: MooseFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = MooseCluster::build(flaws, seed, record);
    cluster.neat.sleep(50);

    let sticky_cs = cluster.chunkservers[0];
    let client = cluster.client;
    let p = cluster.neat.partition_partial(&[client], &[sticky_cs]);

    // With the sticky flaw off but metadata_before_data on, the retry may
    // eventually succeed elsewhere; the damage is the first attempt's
    // metadata. Use a single attempt shape: file 0 → chunkserver 0.
    let (_, _ok) = cluster.write_file(0);
    cluster.neat.heal(&p);
    cluster.neat.sleep(200);

    let (exists, found) = cluster.read_file(0);
    let mut violations = Vec::new();
    if exists && !found {
        violations.push(Violation::new(
            ViolationKind::DataCorruption,
            "file exists in master metadata but its chunk was never written — \
             inconsistent file-system state",
        ));
    }
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flawed() -> MooseFlaws {
        MooseFlaws {
            never_offer_alternative: true,
            metadata_before_data: true,
        }
    }
    fn fixed() -> MooseFlaws {
        MooseFlaws {
            never_offer_alternative: false,
            metadata_before_data: false,
        }
    }

    #[test]
    fn write_read_without_faults() {
        let mut c = MooseCluster::build(fixed(), 1, false);
        c.neat.sleep(50);
        let (attempts, ok) = c.write_file(0);
        assert!(ok);
        assert_eq!(attempts, 1);
        assert_eq!(c.read_file(0), (true, true));
    }

    #[test]
    fn moosefs132_hang_with_the_flaw() {
        let violations = client_hang(flawed(), 111, false).violations;
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::SystemHang),
            "{violations:?}"
        );
    }

    #[test]
    fn moosefs132_retry_succeeds_when_fixed() {
        let violations = client_hang(fixed(), 111, false).violations;
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn moosefs131_inconsistent_metadata_with_the_flaw() {
        let violations = inconsistent_metadata(flawed(), 113, false).violations;
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::DataCorruption),
            "{violations:?}"
        );
    }

    #[test]
    fn moosefs131_consistent_when_fixed() {
        let violations = inconsistent_metadata(fixed(), 113, false).violations;
        assert!(violations.is_empty(), "{violations:?}");
    }
}
