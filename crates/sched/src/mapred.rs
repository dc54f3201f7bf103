//! The MapReduce-like pipeline: ResourceManager, NodeManagers hosting
//! AppMasters and task containers, an output store, and a client.
//!
//! Figure 3 / MAPREDUCE-4819: a partial partition isolates the AppMaster's
//! node from the ResourceManager while both still reach the rest of the
//! cluster. The old AppMaster keeps executing and delivers results; the
//! ResourceManager assumes it died and launches a second AppMaster, which
//! executes the job *again* — double execution and duplicated output, with
//! **no client access after the partition** (Finding 5's
//! "no client access necessary" class).
//!
//! The flaw toggle [`MrFlaws::relaunch_without_checking`] mirrors the real
//! patch: the fixed ResourceManager first checks the output store for a
//! committed result before launching a new attempt.

use std::collections::BTreeMap;

use neat::{
    cluster::{boot, Node},
    Violation, ViolationKind,
};
use simnet::{Ctx, NodeId, TimerId};

const TAG_RM_CHECK: u64 = 71;
const TAG_AM_HB: u64 = 72;
/// AM-side re-run of unfinished tasks: tag is `TAG_AM_RETRY + job`.
const TAG_AM_RETRY: u64 = 500_000;
/// Task work duration: tag is `TAG_TASK + job * 1000 + task`.
const TAG_TASK: u64 = 1_000_000;

/// Flaw toggles for the MapReduce model.
#[derive(Clone, Copy, Debug)]
pub struct MrFlaws {
    /// Launch a replacement AppMaster without consulting the output store.
    pub relaunch_without_checking: bool,
}

/// Wire protocol.
#[derive(Clone, Debug)]
pub enum MrMsg {
    /// Client → ResourceManager.
    Submit { job: u64 },
    /// AppMaster → client: final results.
    Result { job: u64, attempt: u32 },
    /// ResourceManager → NodeManager: host an AppMaster.
    StartAm { job: u64, attempt: u32, tasks: u32 },
    /// AppMaster → ResourceManager.
    AmHeartbeat { job: u64, attempt: u32 },
    /// AppMaster → ResourceManager: the job committed.
    JobDone { job: u64, attempt: u32 },
    /// AppMaster → NodeManager: run one task container.
    RunTask { job: u64, attempt: u32, task: u32 },
    /// Container → AppMaster.
    TaskDone { job: u64, attempt: u32, task: u32 },
    /// AppMaster → store: commit the job output.
    CommitOutput { job: u64, attempt: u32 },
    /// ResourceManager → store: is this job already committed?
    CheckDone { job: u64 },
    /// Store → ResourceManager.
    DoneResp { job: u64, committed: bool },
}

/// ResourceManager bookkeeping per job.
#[derive(Debug)]
struct JobState {
    attempt: u32,
    /// Where the current AppMaster attempt runs (shown in traces).
    #[allow(dead_code)]
    am_node: NodeId,
    last_hb: u64,
    finished: bool,
    /// Pending failover decision while the store is consulted.
    awaiting_check: bool,
}

/// The ResourceManager.
pub struct Rm {
    nms: Vec<NodeId>,
    store: NodeId,
    flaws: MrFlaws,
    jobs: BTreeMap<u64, JobState>,
    tasks_per_job: u32,
    am_timeout: u64,
}

impl Rm {
    fn new(nms: Vec<NodeId>, store: NodeId, flaws: MrFlaws) -> Self {
        Self {
            nms,
            store,
            flaws,
            jobs: BTreeMap::new(),
            tasks_per_job: 2,
            am_timeout: 400,
        }
    }

    fn start_attempt(&mut self, ctx: &mut Ctx<'_, MrMsg>, job: u64, attempt: u32) {
        // Round-robin AppMaster placement.
        let am_node = self.nms[(attempt as usize - 1) % self.nms.len()];
        ctx.note(|| format!("RM starts AM attempt {attempt} for job {job} on {am_node}"));
        self.jobs.insert(
            job,
            JobState {
                attempt,
                am_node,
                last_hb: ctx.now(),
                finished: false,
                awaiting_check: false,
            },
        );
        ctx.send(
            am_node,
            MrMsg::StartAm {
                job,
                attempt,
                tasks: self.tasks_per_job,
            },
        );
    }
}

impl Node<MrMsg> for Rm {
    fn start(&mut self, ctx: &mut Ctx<'_, MrMsg>) {
        ctx.set_timer(100, TAG_RM_CHECK);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MrMsg>, _from: NodeId, msg: MrMsg) {
        match msg {
            MrMsg::Submit { job }
                if !self.jobs.contains_key(&job) => {
                    self.start_attempt(ctx, job, 1);
                }
            MrMsg::AmHeartbeat { job, attempt } => {
                if let Some(j) = self.jobs.get_mut(&job) {
                    if attempt == j.attempt {
                        j.last_hb = ctx.now();
                    }
                }
            }
            MrMsg::JobDone { job, .. } => {
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.finished = true;
                }
            }
            MrMsg::DoneResp { job, committed } => {
                let next = match self.jobs.get_mut(&job) {
                    Some(j) if j.awaiting_check => {
                        j.awaiting_check = false;
                        if committed {
                            j.finished = true;
                            ctx.note(|| format!(
                                "RM: job {job} already committed; NOT relaunching"
                            ));
                            None
                        } else {
                            Some(j.attempt + 1)
                        }
                    }
                    _ => None,
                };
                if let Some(a) = next {
                    self.start_attempt(ctx, job, a);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MrMsg>, _t: TimerId, tag: u64) {
        if tag != TAG_RM_CHECK {
            return;
        }
        let now = ctx.now();
        let stale: Vec<(u64, u32)> = self
            .jobs
            .iter()
            .filter(|(_, j)| !j.finished && !j.awaiting_check)
            .filter(|(_, j)| now.saturating_sub(j.last_hb) > self.am_timeout)
            .map(|(job, j)| (*job, j.attempt))
            .collect();
        for (job, attempt) in stale {
            ctx.note(|| format!("RM: AM attempt {attempt} of job {job} presumed dead"));
            if self.flaws.relaunch_without_checking {
                self.start_attempt(ctx, job, attempt + 1);
            } else {
                if let Some(j) = self.jobs.get_mut(&job) {
                    j.awaiting_check = true;
                }
                ctx.send(self.store, MrMsg::CheckDone { job });
            }
        }
        ctx.set_timer(100, TAG_RM_CHECK);
    }
}

/// One in-flight AppMaster on a NodeManager.
#[derive(Debug)]
struct AmState {
    attempt: u32,
    tasks_total: u32,
    done: std::collections::BTreeSet<u32>,
    committed: bool,
    retries: u32,
}

/// A NodeManager: hosts AppMasters and executes task containers.
pub struct Nm {
    me: NodeId,
    nms: Vec<NodeId>,
    rm: NodeId,
    store: NodeId,
    client: NodeId,
    ams: BTreeMap<u64, AmState>,
}

impl Nm {
    fn new(me: NodeId, nms: Vec<NodeId>, rm: NodeId, store: NodeId, client: NodeId) -> Self {
        Self {
            me,
            nms,
            rm,
            store,
            client,
            ams: BTreeMap::new(),
        }
    }

    /// Sends `RunTask` for every unfinished task, rotating hosts by retry
    /// count so a dead container host is eventually routed around.
    fn launch_tasks(&mut self, ctx: &mut Ctx<'_, MrMsg>, job: u64) {
        let Some(am) = self.ams.get(&job) else {
            return;
        };
        let attempt = am.attempt;
        let retries = am.retries as usize;
        let pending: Vec<u32> = (0..am.tasks_total).filter(|t| !am.done.contains(t)).collect();
        for t in pending {
            let host = self.nms[(self.me.0 + 1 + retries + t as usize) % self.nms.len()];
            ctx.send(host, MrMsg::RunTask { job, attempt, task: t });
        }
    }
}

impl Node<MrMsg> for Nm {
    fn on_message(&mut self, ctx: &mut Ctx<'_, MrMsg>, from: NodeId, msg: MrMsg) {
        // Tasks report with a placeholder attempt; rewrite it with the
        // hosted AM's attempt so accounting stays simple.
        let msg = match msg {
            MrMsg::TaskDone { job, task, .. } => {
                let attempt = self.ams.get(&job).map(|a| a.attempt).unwrap_or(0);
                MrMsg::TaskDone { job, attempt, task }
            }
            other => other,
        };
        match msg {
            MrMsg::StartAm { job, attempt, tasks } => {
                ctx.note(|| format!("AM attempt {attempt} for job {job} starting {tasks} tasks"));
                self.ams.insert(
                    job,
                    AmState {
                        attempt,
                        tasks_total: tasks,
                        done: std::collections::BTreeSet::new(),
                        committed: false,
                        retries: 0,
                    },
                );
                ctx.send(self.rm, MrMsg::AmHeartbeat { job, attempt });
                ctx.set_timer(100, TAG_AM_HB + job);
                ctx.set_timer(600, TAG_AM_RETRY + job);
                self.launch_tasks(ctx, job);
            }
            MrMsg::RunTask { job, attempt, task } => {
                // Simulate the container's work with a timer.
                let _ = (from, attempt);
                ctx.set_timer(200, TAG_TASK + job * 1000 + u64::from(task));
            }
            MrMsg::TaskDone { job, attempt, task } => {
                let done = match self.ams.get_mut(&job) {
                    Some(am) if am.attempt == attempt && !am.committed => {
                        am.done.insert(task);
                        am.done.len() as u32 >= am.tasks_total
                    }
                    _ => false,
                };
                if done {
                    let am = self.ams.get_mut(&job).expect("present"); // lint:allow(unwrap-expect)
                    am.committed = true;
                    let attempt = am.attempt;
                    ctx.note(|| format!("AM attempt {attempt} commits job {job} output"));
                    ctx.send(self.store, MrMsg::CommitOutput { job, attempt });
                    ctx.send(self.client, MrMsg::Result { job, attempt });
                    ctx.send(self.rm, MrMsg::JobDone { job, attempt });
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MrMsg>, _t: TimerId, tag: u64) {
        if tag >= TAG_TASK {
            // Task finished: report to the AppMaster. The container knows
            // its AM from the RunTask sender; for simplicity tasks report to
            // every NodeManager, and only the hosting AM counts it.
            let job = (tag - TAG_TASK) / 1000;
            let task = ((tag - TAG_TASK) % 1000) as u32;
            for &nm in &self.nms.clone() {
                let attempt = 0; // Filled by receiver by matching job.
                let _ = attempt;
                ctx.send(
                    nm,
                    MrMsg::TaskDone {
                        job,
                        attempt: u32::MAX,
                        task,
                    },
                );
            }
        } else if tag >= TAG_AM_RETRY {
            let job = tag - TAG_AM_RETRY;
            let needs_retry = match self.ams.get_mut(&job) {
                Some(am) if !am.committed => {
                    am.retries += 1;
                    true
                }
                _ => false,
            };
            if needs_retry {
                self.launch_tasks(ctx, job);
                ctx.set_timer(600, TAG_AM_RETRY + job);
            }
        } else if tag > TAG_AM_HB && tag - TAG_AM_HB < 1000 {
            let job = tag - TAG_AM_HB;
            if let Some(am) = self.ams.get(&job) {
                if !am.committed {
                    let attempt = am.attempt;
                    ctx.send(self.rm, MrMsg::AmHeartbeat { job, attempt });
                    ctx.set_timer(100, TAG_AM_HB + job);
                }
            }
        }
    }

    /// AppMaster and container state is volatile; the store's outputs and
    /// the client's received results survive.
    fn on_crash(&mut self) {
        self.ams.clear();
    }
}

/// The output store (an HDFS stand-in): records every committed output.
#[derive(Default)]
pub struct Store {
    /// `(job, attempt)` for every commit accepted.
    pub outputs: Vec<(u64, u32)>,
}

impl Node<MrMsg> for Store {
    fn on_message(&mut self, ctx: &mut Ctx<'_, MrMsg>, from: NodeId, msg: MrMsg) {
        match msg {
            MrMsg::CommitOutput { job, attempt } => {
                self.outputs.push((job, attempt));
                ctx.note(|| format!("store: output of job {job} attempt {attempt} written"));
            }
            MrMsg::CheckDone { job } => {
                let committed = self.outputs.iter().any(|(j, _)| *j == job);
                ctx.send(from, MrMsg::DoneResp { job, committed });
            }
            _ => {}
        }
    }
}

/// The client: collects result deliveries per job.
#[derive(Default)]
pub struct MrClient {
    /// Attempts whose results reached the user, per job.
    pub results: BTreeMap<u64, Vec<u32>>,
}

impl Node<MrMsg> for MrClient {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, MrMsg>, _from: NodeId, msg: MrMsg) {
        if let MrMsg::Result { job, attempt } = msg {
            self.results.entry(job).or_default().push(attempt);
        }
    }
}

neat::roles! {
    /// A node of the MapReduce deployment.
    pub enum MrProc: MrMsg {
        Rm(Rm) => rm / rm_mut,
        Nm(Nm) => nm / nm_mut,
        Store(Store) => store / store_mut,
        Client(MrClient) => client / client_mut,
    }
}

/// Node layout of the MapReduce deployment.
pub struct MrCluster {
    pub neat: neat::Neat<MrProc>,
    pub rm: NodeId,
    pub nms: Vec<NodeId>,
    pub store: NodeId,
    pub client: NodeId,
}

impl MrCluster {
    /// RM + 3 NodeManagers + store + client.
    pub fn build(flaws: MrFlaws, seed: u64, record: bool) -> Self {
        let rm = NodeId(0);
        let nms: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let store = NodeId(4);
        let client = NodeId(5);
        let neat = boot(seed, record, 6, |id| {
            if id == rm {
                MrProc::Rm(Rm::new(nms.clone(), store, flaws))
            } else if id.0 <= 3 {
                MrProc::Nm(Nm::new(id, nms.clone(), rm, store, client))
            } else if id == store {
                MrProc::Store(Store::default())
            } else {
                MrProc::Client(MrClient::default())
            }
        });
        Self {
            neat,
            rm,
            nms,
            store,
            client,
        }
    }

    /// Submits `job` from the client node; a client that is down submits
    /// nothing.
    pub fn submit(&mut self, job: u64) {
        let rm = self.rm;
        let _ = self
            .neat
            .world
            .call(self.client, |_, ctx| ctx.send(rm, MrMsg::Submit { job }));
    }

    /// Results delivered to the user for `job`.
    pub fn results_for(&self, job: u64) -> Vec<u32> {
        let client = self.neat.world.app(self.client).client();
        client.results.get(&job).cloned().unwrap_or_default()
    }

    /// Store outputs for `job`.
    pub fn outputs_for(&self, job: u64) -> Vec<u32> {
        let store = self.neat.world.app(self.store).store();
        store
            .outputs
            .iter()
            .filter(|(j, _)| *j == job)
            .map(|(_, a)| *a)
            .collect()
    }
}

/// Figure 3: submit a job, partially partition the AppMaster's node from
/// the ResourceManager mid-run, and count how many times the job executed.
pub fn double_execution(flaws: MrFlaws, seed: u64, record: bool) -> neat::RunOutcome {
    let mut cluster = MrCluster::build(flaws, seed, record);
    cluster.submit(7);
    cluster.neat.sleep(150); // the AM is placed and running

    // The AM of attempt 1 runs on nms[0]; partially partition it from the
    // RM only (it still reaches the other NodeManagers, store, client).
    let am_node = cluster.nms[0];
    let rm = cluster.rm;
    let p = cluster.neat.partition_partial(&[am_node], &[rm]);

    cluster.neat.sleep(3000);
    cluster.neat.heal(&p);
    cluster.neat.sleep(500);

    let results = cluster.results_for(7);
    let outputs = cluster.outputs_for(7);
    let mut violations = Vec::new();
    if results.len() > 1 {
        violations.push(Violation::new(
            ViolationKind::DoubleExecution,
            format!("the user received {} results for one job: attempts {results:?}", results.len()),
        ));
    }
    if outputs.len() > 1 {
        violations.push(Violation::new(
            ViolationKind::DataCorruption,
            format!("job output written {} times: attempts {outputs:?}", outputs.len()),
        ));
    }
    if results.is_empty() {
        violations.push(Violation::new(
            ViolationKind::DataUnavailability,
            "the job never produced a result",
        ));
    }
    cluster.neat.outcome(violations, ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_completes_once_without_faults() {
        let mut c = MrCluster::build(
            MrFlaws {
                relaunch_without_checking: true,
            },
            1,
            false,
        );
        c.submit(1);
        c.neat.sleep(2000);
        assert_eq!(c.results_for(1).len(), 1);
        assert_eq!(c.outputs_for(1), vec![1]);
    }

    #[test]
    fn fig3_double_execution_with_the_flaw() {
        let violations = double_execution(
            MrFlaws {
                relaunch_without_checking: true,
            },
            81,
            false,
        ).violations;
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::DoubleExecution),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.kind == ViolationKind::DataCorruption),
            "{violations:?}"
        );
    }

    #[test]
    fn fig3_single_execution_when_fixed() {
        let violations = double_execution(
            MrFlaws {
                relaunch_without_checking: false,
            },
            81,
            false,
        ).violations;
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn am_crash_still_recovers_when_fixed() {
        // The fixed RM must still relaunch when the job truly died.
        let mut c = MrCluster::build(
            MrFlaws {
                relaunch_without_checking: false,
            },
            3,
            false,
        );
        c.submit(2);
        c.neat.sleep(120);
        let am_node = c.nms[0];
        c.neat.crash(&[am_node]);
        c.neat.sleep(3000);
        c.neat.restart(&[am_node]);
        c.neat.sleep(1000);
        let results = c.results_for(2);
        assert_eq!(results.len(), 1, "exactly one result expected: {results:?}");
        assert!(results[0] >= 2, "a relaunched attempt should have finished");
    }
}
