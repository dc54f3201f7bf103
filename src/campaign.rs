//! The NEAT test campaign: every reproduced failure, run end to end.
//!
//! [`registry`] is the single source of truth for the campaign: a static
//! table with one row per scenario in the workspace — its labels, its
//! scenario function, and the two configurations it runs under (the flawed
//! as-studied one and the repaired baseline).
//! [`run_all_scenarios`] executes each and collects the checker verdicts;
//! [`scenario_fingerprints`] renders each run as a full execution
//! fingerprint for the trace-divergence auditor (`cargo run -p fleet --
//! --audit`) and the seed-stability regression tests. [`table15`] then maps
//! the scenario results onto the paper's Table 15 (the 32 failures NEAT
//! found in seven systems), and [`render`] prints the same summary the
//! paper reports in §6.4: how many failures were found and how many are
//! catastrophic.

use consensus::{scenarios as raft, RaftTweaks};
use coord::{scenarios as zk, CoordFlaws};
use dfs::{hbase, hdfs, moose, objstore};
use gridstore::{scenarios as grid, GridFlaws, GridTarget};
use mqueue::{explorer::MqTarget, scenarios as mq, AcFlaws, BrokerFlaws};
use neat::explore::{
    plan_at_leader, run_schedule, EventChoice, SchedulePlan, ScheduleStep, TestTarget,
};
use neat::{simnet::NodeId, PartitionKind, PartitionSpec, RunOutcome, Violation, ViolationKind};
use repkv::{load as kv_load, scenarios as kv, Config, RepkvTarget};
use sched::{dkron, mapred};

/// One scenario executed under both configurations.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Scenario identifier (also used by Table 15 rows to reference it).
    pub name: &'static str,
    /// The studied system the scenario models.
    pub system: &'static str,
    /// The failure report it reproduces.
    pub reference: &'static str,
    /// Partition type injected.
    pub partition: &'static str,
    /// Violations under the flawed configuration.
    pub flawed: Vec<ViolationKind>,
    /// Violations under the repaired baseline.
    pub fixed: Vec<ViolationKind>,
}

impl ScenarioResult {
    /// The scenario reproduced its failure and the fix eliminates it.
    pub fn reproduced_and_fixed(&self) -> bool {
        !self.flawed.is_empty() && self.fixed.is_empty()
    }
}

fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
    let mut ks: Vec<ViolationKind> = vs.iter().map(|v| v.kind).collect();
    ks.sort();
    ks.dedup();
    ks
}

/// One arm's run with the family's `detail` type-erased, so every
/// registry arm has one signature. A `Box` prints its contents unchanged
/// through `Debug` (and `Box<()>` does not allocate), so the fingerprint —
/// the compact `Debug` rendering of this whole value — is the family's own
/// [`RunOutcome`]'s.
pub type ArmOutcome = RunOutcome<Box<dyn std::fmt::Debug>>;

fn erase<D: std::fmt::Debug + 'static>(o: RunOutcome<D>) -> ArmOutcome {
    RunOutcome {
        violations: o.violations,
        timeline: o.timeline,
        detail: Box::new(o.detail),
    }
}

/// What [`run_arm`] records and fingerprints.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RunMode {
    /// Checker verdicts only: recording off, no fingerprint.
    Quick,
    /// Recording on (timeline and application notes); the fingerprint is
    /// folded into an FNV-1a hash as `Debug` emits it, never materialized.
    /// [`render_arm`] re-runs an arm for the rendered bytes.
    Hash,
}

/// One arm execution's fingerprint hash, taken in [`RunMode::Hash`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fingerprint(Option<u64>);

impl Fingerprint {
    /// The FNV-1a hash of the fingerprint byte stream (`None` in
    /// [`RunMode::Quick`]); equal to `neat::audit::trace_hash` of
    /// [`render_arm`]'s bytes.
    pub fn hash(&self) -> Option<u64> {
        self.0
    }
}

/// What one run of one scenario arm produced: the checker verdicts plus
/// the execution fingerprint the [`RunMode`] asked for.
pub struct RunArtifacts {
    pub violations: Vec<Violation>,
    pub fingerprint: Fingerprint,
    /// Typed observability timeline of the run (empty when not recording).
    pub timeline: neat::obs::Timeline,
}

/// What kind of fault a scenario injects — the one reading of a row
/// (its [`Replay`], else its `partition` label) every report, lint pass
/// and test filters by.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScenarioClass {
    /// A severed link: complete, partial or simplex partition.
    Partition,
    /// A degraded link (`gray-*`, `flapping`): lossy, slow, duplicating.
    Gray,
    /// A fault under `workload::Driver` traffic (`load-*`).
    Load,
    /// A replayed, delta-minimized explorer schedule: a row with a
    /// [`Replay`], labelled `explored-*`.
    Explored,
}

/// One campaign scenario: metadata plus the flawed and repaired arms, each
/// a plain function of `(seed, record)`.
pub struct ScenarioSpec {
    pub name: &'static str,
    pub system: &'static str,
    pub reference: &'static str,
    pub partition: &'static str,
    pub flawed: fn(u64, bool) -> ArmOutcome,
    /// `None` when the repaired arm is asserted by unit tests instead.
    pub fixed: Option<fn(u64, bool) -> ArmOutcome>,
    /// The mined schedule both arms replay, for an explored regression.
    pub replay: Option<Replay>,
}

impl ScenarioSpec {
    /// The scenario's class: [`ScenarioClass::Explored`] when it replays a
    /// mined schedule, otherwise read off its partition label.
    pub fn class(&self) -> ScenarioClass {
        let p = self.partition;
        if self.replay.is_some() {
            ScenarioClass::Explored
        } else if p.starts_with("load") {
            ScenarioClass::Load
        } else if p.starts_with("gray") || p == "flapping" {
            ScenarioClass::Gray
        } else {
            ScenarioClass::Partition
        }
    }
}

/// A delta-minimized explorer regression: a schedule the coverage-guided
/// explorer (`neat::explore`) mined against a flawed target, shrunk to a
/// 1-minimal nemesis sequence by ddmin for one violation kind, and baked
/// with its victim generalized to the leader elected at the replay seed
/// and its client op seeds kept verbatim.
#[derive(Clone, Copy)]
pub struct Replay {
    /// A fresh target under the flawed configuration, the one ddmin ran on.
    pub target: fn() -> Box<dyn TestTarget>,
    /// Index into the target's servers of the victim when no leader is
    /// visible.
    pub fallback: usize,
    /// The schedule, aimed at `(servers, leader)`.
    pub plan: fn(&[NodeId], NodeId) -> SchedulePlan,
    /// The violation ddmin kept the schedule reproducing.
    pub kind: ViolationKind,
}

impl Replay {
    /// Runs the schedule against `target` at `seed`: its verdicts and the
    /// trial's timeline, which like every explorer trial's records no
    /// verdict events.
    fn run(&self, target: &mut dyn TestTarget, seed: u64, record: bool) -> RunOutcome {
        let plan = plan_at_leader(target, seed, record, self.fallback, self.plan);
        RunOutcome {
            violations: run_schedule(target, &plan),
            timeline: target.timeline(),
            detail: (),
        }
    }
}

/// One row of [`REGISTRY`]: the four labels, then the scenario function and
/// the configuration of its flawed arm and (unless the repaired arm lives
/// in unit tests) its fixed arm. Every scenario function has the shape
/// `fn(config, seed, record) -> outcome`.
macro_rules! scenario {
    ($name:literal, $system:literal, $reference:literal, $partition:literal,
     $run:path, $flawed:expr $(, $fixed:expr)?) => {
        ScenarioSpec {
            name: $name,
            system: $system,
            reference: $reference,
            partition: $partition,
            flawed: |seed, rec| erase($run($flawed, seed, rec)),
            fixed: scenario!(@fixed $run $(, $fixed)?),
            replay: None,
        }
    };
    (@fixed $run:path, $fixed:expr) => {
        Some(|seed, rec| erase($run($fixed, seed, rec)))
    };
    (@fixed $run:path) => {
        None
    };
}

/// One explored-regression row of [`REGISTRY`]: the four labels, the
/// target constructor with its flawed and fixed configurations, then the
/// [`Replay`]'s fallback server, violation kind and plan builder. Both
/// arms replay that plan on a target built from their configuration.
macro_rules! explored {
    ($name:literal, $system:literal, $reference:literal, $partition:literal,
     $target:path, $flawed:expr, $fixed:expr, $fallback:literal, $kind:ident, $plan:expr) => {{
        const REPLAY: Replay = Replay {
            target: || Box::new($target($flawed)),
            fallback: $fallback,
            plan: $plan,
            kind: ViolationKind::$kind,
        };
        ScenarioSpec {
            name: $name,
            system: $system,
            reference: $reference,
            partition: $partition,
            flawed: |seed, rec| erase(REPLAY.run(&mut $target($flawed), seed, rec)),
            fixed: Some(|seed, rec| erase(REPLAY.run(&mut $target($fixed), seed, rec))),
            replay: Some(REPLAY),
        }
    }};
}

fn coord_flawed() -> CoordFlaws {
    CoordFlaws {
        snapshot_skips_log: true,
        skip_ephemeral_cleanup: true,
        apply_chunks_in_place: false,
    }
}

fn hdfs_flaws(flawed: bool) -> hdfs::HdfsFlaws {
    hdfs::HdfsFlaws {
        ignore_excluded_rack: flawed,
        heartbeat_only_health: flawed,
    }
}

fn moose_flaws(flawed: bool) -> moose::MooseFlaws {
    moose::MooseFlaws {
        never_offer_alternative: flawed,
        metadata_before_data: flawed,
    }
}

#[rustfmt::skip]
static REGISTRY: &[ScenarioSpec] = &[
    // --- Primary-backup KV family (repkv) --------------------------------
    scenario!("dirty_and_stale_read", "VoltDB", "ENG-10389 / Figure 2", "complete",
        kv::dirty_and_stale_read, Config::voltdb(), Config::fixed()),
    scenario!("longest_log_data_loss", "VoltDB", "ENG-10486", "complete",
        kv::longest_log_data_loss, Config::voltdb(), Config::fixed()),
    scenario!("listing1_data_loss", "Elasticsearch", "#2488 / Listing 1", "partial",
        kv::listing1_data_loss, Config::elasticsearch(), Config::fixed()),
    scenario!("coordinator_double_execution", "Elasticsearch", "#9967", "simplex",
        kv::coordinator_double_execution, Config::elasticsearch(), Config::fixed()),
    scenario!("async_replication_data_loss", "Redis", "Jepsen: Redis", "complete",
        kv::async_replication_data_loss, Config::redis(), Config::fixed()),
    scenario!("timestamp_consolidation_reappearance", "Aerospike", "forum [140] (LWW merge)", "complete",
        kv::timestamp_consolidation_reappearance, Config::mongodb(), Config::fixed()),
    scenario!("priority_livelock", "MongoDB", "SERVER-14885", "complete",
        kv::priority_livelock, Config::mongodb_with_priority(0), Config::mongodb()),
    // The fixed variant is asserted in the unit tests.
    scenario!("arbiter_thrashing", "MongoDB", "§4.4 arbiter", "partial",
        kv::arbiter_thrashing, Config::mongodb()),
    // --- Consensus (RethinkDB tweak) --------------------------------------
    scenario!("rethinkdb_reconfig_split_brain", "RethinkDB", "#5289", "partial",
        raft::rethinkdb_reconfig_split_brain,
        RaftTweaks { delete_log_on_remove: true }, RaftTweaks::default()),
    // --- Coordination service (ZooKeeper) --------------------------------
    scenario!("txnlog_sync_corruption", "ZooKeeper", "ZOOKEEPER-2099", "complete",
        zk::txnlog_sync_corruption, coord_flawed(), CoordFlaws::default()),
    scenario!("sync_interrupted_corruption", "Redis", "#3899 (PSYNC2), bounded timing", "complete",
        zk::sync_interrupted_corruption,
        CoordFlaws { apply_chunks_in_place: true, ..CoordFlaws::default() }, CoordFlaws::default()),
    scenario!("ephemeral_never_deleted", "ZooKeeper", "ZOOKEEPER-2355", "partial",
        zk::ephemeral_never_deleted, coord_flawed(), CoordFlaws::default()),
    // --- Message queues ----------------------------------------------------
    scenario!("fig6_hang", "ActiveMQ", "AMQ-7064 / Figure 6", "partial",
        mq::fig6_hang, BrokerFlaws::flawed(), BrokerFlaws::fixed()),
    scenario!("listing2_double_dequeue", "ActiveMQ", "AMQ-6978 / Listing 2", "complete",
        mq::listing2_double_dequeue, BrokerFlaws::flawed(), BrokerFlaws::fixed()),
    scenario!("deadlock_on_demotion", "RabbitMQ", "#714", "complete",
        mq::deadlock_on_demotion, BrokerFlaws::flawed(), BrokerFlaws::fixed()),
    scenario!("kafka_acked_message_loss", "Kafka", "Jepsen: Kafka (acks=1)", "complete",
        mq::kafka_acked_message_loss, BrokerFlaws::kafka_acks_one(), BrokerFlaws::fixed()),
    scenario!("autocluster_split", "RabbitMQ", "#1455", "complete",
        mq::autocluster_split,
        AcFlaws { form_own_cluster_on_silence: true }, AcFlaws { form_own_cluster_on_silence: false }),
    // --- Data grid (Ignite / Hazelcast / Terracotta) ----------------------
    scenario!("semaphore_double_lock", "Ignite", "IGNITE-8882 / Figure 5", "complete",
        grid::semaphore_double_lock, GridFlaws::flawed(), GridFlaws::fixed()),
    scenario!("semaphore_reclaim_corruption", "Ignite", "IGNITE-8883", "complete",
        grid::semaphore_reclaim_corruption, GridFlaws::flawed(), GridFlaws::fixed()),
    scenario!("broken_atomics", "Ignite", "IGNITE-9768", "complete",
        grid::broken_atomics, GridFlaws::flawed(), GridFlaws::fixed()),
    scenario!("cache_stale_read", "Ignite", "IGNITE-9762", "complete",
        grid::cache_stale_read, GridFlaws::flawed(), GridFlaws::fixed()),
    scenario!("queue_double_dequeue", "Ignite", "IGNITE-9765", "complete",
        grid::queue_double_dequeue, GridFlaws::flawed(), GridFlaws::fixed()),
    scenario!("set_loss_and_reappearance", "Terracotta", "#905 / #906", "complete",
        grid::set_loss_and_reappearance, GridFlaws::flawed(), GridFlaws::fixed()),
    scenario!("hazelcast_demotion_wipe", "Hazelcast", "§4.4 configuration change", "partial",
        grid::demotion_wipe_data_loss,
        GridFlaws { wipe_before_download: true, ..GridFlaws::flawed() }, GridFlaws::flawed()),
    scenario!("lasting_split", "Ignite", "Finding 3", "complete",
        grid::lasting_split, GridFlaws::flawed(), GridFlaws::fixed()),
    // --- Schedulers --------------------------------------------------------
    scenario!("mapreduce_double_execution", "MapReduce", "MAPREDUCE-4819 / Figure 3", "partial",
        mapred::double_execution,
        mapred::MrFlaws { relaunch_without_checking: true },
        mapred::MrFlaws { relaunch_without_checking: false }),
    scenario!("dkron_misleading_status", "DKron", "#379", "partial",
        dkron::misleading_status,
        dkron::DkFlaws { status_requires_peer_ack: true },
        dkron::DkFlaws { status_requires_peer_ack: false }),
    // --- Storage ------------------------------------------------------------
    scenario!("hdfs_rack_placement_retry", "HDFS", "HDFS-1384", "partial",
        hdfs::rack_placement_retry, hdfs_flaws(true), hdfs_flaws(false)),
    scenario!("hdfs_simplex_healthy_node", "HDFS", "HDFS-577", "simplex",
        hdfs::simplex_healthy_node, hdfs_flaws(true), hdfs_flaws(false)),
    scenario!("moosefs_client_hang", "MooseFS", "#132", "partial",
        moose::client_hang, moose_flaws(true), moose_flaws(false)),
    scenario!("moosefs_inconsistent_metadata", "MooseFS", "#131", "partial",
        moose::inconsistent_metadata, moose_flaws(true), moose_flaws(false)),
    scenario!("hbase_log_roll_data_loss", "HBase", "HBASE-2312", "partial",
        hbase::log_roll_data_loss,
        hbase::HbFlaws { fence_on_split: false }, hbase::HbFlaws { fence_on_split: true }),
    scenario!("ceph_recovery_resurrection", "Ceph", "#24193", "partial",
        objstore::recovery_resurrection,
        objstore::ObjFlaws { naive_recovery: true }, objstore::ObjFlaws { naive_recovery: false }),
    // --- Gray failures (§2.1 flaky links, degraded not severed) -----------
    // The boolean is the client's retry policy: which value is the flaw
    // depends on whether retrying helps (loss) or hurts (non-idempotent op).
    scenario!("gray_lossy_client_writes", "RepKV", "§2.1 flaky link", "flapping",
        kv::gray_lossy_client_writes, false, true),
    scenario!("gray_simplex_retry_double_incr", "RepKV", "§2.1 retry / Table 6", "gray-simplex",
        kv::gray_simplex_retry_double_incr, true, false),
    scenario!("gray_duplicating_link_incr", "RepKV", "§2.1 duplication", "gray-simplex",
        kv::gray_duplicating_link_incr, false, true),
    scenario!("gray_slow_replication_dirty_read", "VoltDB", "ENG-10389 under latency", "gray-simplex",
        kv::gray_slow_replication_dirty_read, Config::voltdb(), Config::fixed()),
    scenario!("lossy_leader_link", "Raft", "§2.1 flaky link", "gray-partial",
        raft::lossy_leader_link, true, false),
    scenario!("flapping_link_hang", "ActiveMQ", "AMQ-7064, flapping link", "flapping",
        mq::flapping_link_hang, BrokerFlaws::flawed(), BrokerFlaws::fixed()),
    // --- Load-driven failures (workload::Driver traffic; §2.1 / Table 6) --
    scenario!("load_retry_storm_gray_loss", "RepKV", "§2.1 retry storm under load", "load-gray-loss",
        kv_load::load_retry_storm_gray_loss, true, false),
    scenario!("load_overload_during_heal", "VoltDB", "ENG-10389 under overload", "load-heal",
        kv_load::load_overload_during_heal, Config::voltdb(), Config::fixed()),
    scenario!("load_hot_key_partition", "Elasticsearch", "#2488 hot key under load", "load-hot-key",
        kv_load::load_hot_key_partition, Config::elasticsearch(), Config::fixed()),
    scenario!("load_batched_write_atomicity", "VoltDB", "Table 6 torn batch", "load-batch-simplex",
        kv_load::load_batched_write_atomicity, Config::voltdb(), Config::fixed()),
    scenario!("load_backlog_leader_flap", "ActiveMQ", "AMQ-7064 under traffic", "load-flapping",
        mqueue::load::load_backlog_leader_flap, BrokerFlaws::flawed(), BrokerFlaws::fixed()),
    // --- Delta-minimized explorer regressions (§5.4; neat::explore) ------
    // Client op seeds are verbatim from the mined trials; the victim is
    // the leader elected at the replay seed (`servers[fallback]` when none
    // is visible). `BENCH_explore.json` re-proves each plan 1-minimal.
    //
    // Followers cannot reach the leader, which still reaches them and
    // keeps accepting the write while the deposed majority elects a rival.
    explored!("explored_simplex_leader_write", "VoltDB", "ddmin of explored trial", "explored-simplex",
        RepkvTarget::new, Config::voltdb(), Config::fixed(), 0, DataCorruption,
        |servers, leader| SchedulePlan { steps: vec![
            ScheduleStep::Partition(PartitionSpec::isolating(PartitionKind::Simplex, leader, servers)),
            ScheduleStep::Client(EventChoice::Write, 10_492_150_018_496_043_109),
        ] }),
    // The heal is part of the repro: the increment lands on the primary
    // after it rejoins, having missed the membership churn while deaf.
    explored!("explored_simplex_heal_write", "Ignite", "ddmin of explored trial", "explored-simplex-heal",
        GridTarget::new, GridFlaws::flawed(), GridFlaws::fixed(), 0, DataLoss,
        |servers, primary| SchedulePlan { steps: vec![
            ScheduleStep::Partition(PartitionSpec::isolating(PartitionKind::Simplex, primary, servers)),
            ScheduleStep::Heal,
            ScheduleStep::Client(EventChoice::Write, 18_007_421_219_739_211_395),
        ] }),
    // Listing 2 rediscovered: the deposed master acks a dequeue it never
    // replicates. `servers` leads with the coordinator, so the fallback is
    // the first broker.
    explored!("explored_partition_double_dequeue", "ActiveMQ", "ddmin of explored trial", "explored-complete",
        MqTarget::new, BrokerFlaws::flawed(), BrokerFlaws::fixed(), 1, DoubleDequeue,
        |servers, master| SchedulePlan { steps: vec![
            ScheduleStep::Client(EventChoice::Enqueue, 15_489_676_053_933_019_214),
            ScheduleStep::Partition(PartitionSpec::isolating(PartitionKind::Complete, master, servers)),
            ScheduleStep::Client(EventChoice::Dequeue, 15_581_098_189_771_731_905),
            ScheduleStep::Client(EventChoice::Enqueue, 15_259_824_729_178_401_601),
        ] }),
];

/// Every scenario in the workspace — the single source of truth shared by
/// [`run_all_scenarios`], [`scenario_fingerprints`], and the
/// trace-divergence auditor. A static table: nothing is built per call.
pub fn registry() -> &'static [ScenarioSpec] {
    REGISTRY
}

/// The registry's scenarios of one class, in registry order.
pub fn scenarios_of(class: ScenarioClass) -> impl Iterator<Item = &'static ScenarioSpec> {
    REGISTRY.iter().filter(move |s| s.class() == class)
}

fn result_of(s: &ScenarioSpec, seed: u64) -> ScenarioResult {
    ScenarioResult {
        name: s.name,
        system: s.system,
        reference: s.reference,
        partition: s.partition,
        flawed: kinds(&(s.flawed)(seed, false).violations),
        fixed: s
            .fixed
            .map(|f| kinds(&f(seed, false).violations))
            .unwrap_or_default(),
    }
}

/// Runs every scenario in the workspace, flawed and fixed.
pub fn run_all_scenarios(seed: u64) -> Vec<ScenarioResult> {
    registry().iter().map(|s| result_of(s, seed)).collect()
}

/// Number of scenarios in [`registry`].
pub fn scenario_count() -> usize {
    registry().len()
}

/// Runs the scenario at `index` (registry order), both arms, at `seed` —
/// the fleet's unit of work. Panics if `index` is out of range.
pub fn run_scenario_at(index: usize, seed: u64) -> ScenarioResult {
    result_of(&registry()[index], seed)
}

/// Stable address of one runnable arm of the registry.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArmId {
    /// Index into [`registry`].
    pub scenario: usize,
    /// `false` = the flawed arm, `true` = the repaired baseline.
    pub fixed: bool,
    /// Display name, `<scenario>/<flawed|fixed>` — the key the auditor
    /// and the fingerprint tests report under.
    pub name: String,
}

/// Every runnable arm, flattened in registry order (flawed then fixed per
/// scenario) — the auditor's and the fingerprint sweep's work list.
pub fn arm_ids() -> Vec<ArmId> {
    let mut arms = Vec::new();
    for (i, s) in registry().iter().enumerate() {
        arms.push(ArmId {
            scenario: i,
            fixed: false,
            name: format!("{}/flawed", s.name),
        });
        if s.fixed.is_some() {
            arms.push(ArmId {
                scenario: i,
                fixed: true,
                name: format!("{}/fixed", s.name),
            });
        }
    }
    arms
}

/// Runs one arm by address, recording when `record`, and returns its whole
/// outcome. Panics if the arm does not exist (callers enumerate via
/// [`arm_ids`], which only yields real arms).
pub fn arm_outcome(arm: &ArmId, seed: u64, record: bool) -> ArmOutcome {
    let spec = &registry()[arm.scenario];
    if arm.fixed {
        match spec.fixed {
            Some(fixed) => fixed(seed, record),
            None => panic!("{} has no fixed arm", spec.name),
        }
    } else {
        (spec.flawed)(seed, record)
    }
}

/// Runs one arm by address and packages what `mode` asked for.
pub fn run_arm(arm: &ArmId, seed: u64, mode: RunMode) -> RunArtifacts {
    let o = arm_outcome(arm, seed, mode == RunMode::Hash);
    let hash = (mode == RunMode::Hash).then(|| neat::audit::stream_hash(&o));
    RunArtifacts {
        violations: o.violations,
        fingerprint: Fingerprint(hash),
        timeline: o.timeline,
    }
}

/// One arm's execution fingerprint, rendered: [`neat::audit::fingerprint`]
/// of its recorded [`ArmOutcome`] — the bytes [`RunMode::Hash`] hashes.
pub fn render_arm(arm: &ArmId, seed: u64) -> String {
    neat::audit::fingerprint(&arm_outcome(arm, seed, true))
}

/// Runs the *flawed* arm of the scenario at `index` (registry order) with
/// trace recording on and packages the run as a forensic report: registry
/// metadata, checker verdicts, and the typed event timeline. This is the
/// fleet's forensics work item.
pub fn forensic_at(index: usize, seed: u64) -> neat::obs::ForensicReport {
    let s = &registry()[index];
    let run = (s.flawed)(seed, true);
    neat::obs::ForensicReport {
        scenario: s.name.to_string(),
        system: s.system.to_string(),
        reference: s.reference.to_string(),
        partition: s.partition.to_string(),
        seed,
        violations: run
            .violations
            .iter()
            .map(|v| (v.kind.to_string(), v.details.clone()))
            .collect(),
        timeline: run.timeline,
    }
}

/// Every scenario's forensic report at `seed`, in registry order — the
/// serial counterpart of the fleet's sharded forensics sweep.
pub fn forensic_reports(seed: u64) -> Vec<neat::obs::ForensicReport> {
    (0..scenario_count()).map(|i| forensic_at(i, seed)).collect()
}

/// Renders the campaign-wide forensics narrative: a header, one
/// Listing-1/2-style block per scenario, and the aggregate simulation
/// counters. Takes pre-computed reports so the serial and fleet-sharded
/// paths assemble byte-identical output from the same blocks.
pub fn render_forensics(seed: u64, reports: &[neat::obs::ForensicReport]) -> String {
    let detected = reports.iter().filter(|r| r.detected()).count();
    let mut out = format!(
        "== NEAT failure forensics ==\nseed {seed}: {} scenarios, {detected} with a detected violation\n",
        reports.len()
    );
    let mut total = neat::obs::Counters::default();
    for r in reports {
        out.push('\n');
        out.push_str(&r.render());
        total.merge(&r.timeline.counters);
    }
    out.push_str(&format!("\naggregate counters: {}\n", total.render()));
    out
}

/// The machine-readable export of the same reports: one JSONL stream,
/// each report as a `report` header line followed by its timeline events.
pub fn forensics_jsonl(reports: &[neat::obs::ForensicReport]) -> String {
    let mut out = String::new();
    for r in reports {
        r.write_jsonl(&mut out);
    }
    out
}

/// One arm's block of the verdict oracle (`verdicts.txt`): the arm and
/// seed, the timeline counters, every violation and every timeline event,
/// one per line and each through its `Display`. The block says what the run
/// observed, not how any outcome type is shaped, so it survives renaming
/// and reshaping the outcome structs that the audit hashes cover.
pub fn render_arm_verdicts(
    arm: &str,
    seed: u64,
    violations: &[Violation],
    timeline: &neat::obs::Timeline,
) -> String {
    let mut out = format!("== {arm} seed {seed}\ncounters {}\n", timeline.counters.render());
    for v in violations {
        out.push_str(&format!("violation {v}\n"));
    }
    out.push_str(&timeline.render());
    out
}

/// The verdict oracle at `seed`: [`render_arm_verdicts`] of every arm,
/// recorded, in [`arm_ids`] order. `verdicts.txt` is this at seeds 8 and 42.
pub fn render_verdicts(seed: u64) -> String {
    arm_ids()
        .iter()
        .map(|arm| {
            let o = arm_outcome(arm, seed, true);
            render_arm_verdicts(&arm.name, seed, &o.violations, &o.timeline)
        })
        .collect()
}

/// Runs every registered scenario arm with trace recording on and returns
/// `(arm-name, fingerprint)` pairs — the auditor's and the seed-stability
/// tests' view of the campaign.
pub fn scenario_fingerprints(seed: u64) -> Vec<(String, String)> {
    arm_ids()
        .into_iter()
        .map(|arm| {
            let fingerprint = render_arm(&arm, seed);
            (arm.name, fingerprint)
        })
        .collect()
}

/// One row of the regenerated Table 15.
#[derive(Debug)]
pub struct Table15Row {
    pub system: &'static str,
    pub reference: &'static str,
    pub paper_impact: &'static str,
    pub partition: &'static str,
    /// The scenario that reproduces this row (`None` = not modelled).
    pub scenario: Option<&'static str>,
    /// Whether the scenario's flawed run detected a violation.
    pub detected: bool,
}

/// Maps scenario results onto the 32 rows of the paper's Table 15.
pub fn table15(results: &[ScenarioResult]) -> Vec<Table15Row> {
    let detected = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .map(|r| !r.flawed.is_empty())
            .unwrap_or(false)
    };
    let row = |system, reference, paper_impact, partition, scenario: Option<&'static str>| {
        Table15Row {
            system,
            reference,
            paper_impact,
            partition,
            scenario,
            detected: scenario.map(detected).unwrap_or(false),
        }
    };
    vec![
        row("Ceph", "[184]", "Data loss", "partial", Some("ceph_recovery_resurrection")),
        row("Ceph", "[184]", "Data corruption", "partial", Some("ceph_recovery_resurrection")),
        row("ActiveMQ", "[185]", "System hang", "partial", Some("fig6_hang")),
        row("ActiveMQ", "[186]", "Double dequeueing", "complete", Some("listing2_double_dequeue")),
        row("Terracotta", "[187]", "Stale read", "complete", Some("cache_stale_read")),
        row("Terracotta", "[188]", "Broken locks", "complete", Some("semaphore_double_lock")),
        row("Terracotta", "[189]", "Data loss", "complete", Some("broken_atomics")),
        row("Terracotta", "[190]", "Data loss (list)", "complete", Some("set_loss_and_reappearance")),
        row("Terracotta", "[190]", "Data loss (set)", "complete", Some("set_loss_and_reappearance")),
        row("Terracotta", "[190]", "Data loss (queue)", "complete", Some("queue_double_dequeue")),
        row("Terracotta", "[191]", "Reappearance (list)", "complete", Some("set_loss_and_reappearance")),
        row("Terracotta", "[191]", "Reappearance (set)", "complete", Some("set_loss_and_reappearance")),
        row("Terracotta", "[191]", "Reappearance (queue)", "complete", Some("queue_double_dequeue")),
        row("Ignite", "[192]", "Cache - stale read", "complete", Some("cache_stale_read")),
        row("Ignite", "[193]", "Queue - data unavailability", "complete", Some("lasting_split")),
        row("Ignite", "[192]", "Cache - data unavailability", "complete", Some("lasting_split")),
        row("Ignite", "[193]", "Double dequeueing", "complete", Some("queue_double_dequeue")),
        row("Ignite", "[194]", "Data unavailability", "complete", Some("lasting_split")),
        row("Ignite", "[195]", "Broken AtomicSequence", "complete", Some("broken_atomics")),
        row("Ignite", "[195]", "Broken AtomicLong", "complete", Some("broken_atomics")),
        row("Ignite", "[195]", "Broken AtomicRef", "complete", Some("broken_atomics")),
        row("Ignite", "[195]", "Broken counters", "complete", Some("broken_atomics")),
        row("Ignite", "[195]", "Data loss", "complete", Some("broken_atomics")),
        row("Ignite", "[196]", "Broken locks", "complete", Some("semaphore_double_lock")),
        row("Ignite", "[197]", "Broken locks", "complete", Some("semaphore_reclaim_corruption")),
        row("Ignite", "[198]", "Broken locks", "complete", Some("semaphore_reclaim_corruption")),
        row("Ignite", "[199]", "System hang", "complete", None),
        row("Ignite", "[200]", "Broken status API", "complete", None),
        row("Infinispan", "[201]", "Dirty read", "complete", Some("dirty_and_stale_read")),
        row("DKron", "[202]", "Data corruption", "partial", Some("dkron_misleading_status")),
        row("MooseFS", "[203]", "Data unavailability", "partial", Some("moosefs_inconsistent_metadata")),
        row("MooseFS", "[204]", "System hang", "partial", Some("moosefs_client_hang")),
    ]
}

/// Maps catalog citation keys (Appendix A/B reference tags) to the
/// scenario that reproduces them, tying the failure study to the live
/// campaign. A catalog row appears here only when a scenario reproduces
/// its *mechanism*, not merely the same impact in the same system.
pub fn catalog_coverage() -> Vec<(&'static str, &'static str)> {
    vec![
        // Appendix A (issue trackers and Jepsen).
        ("[65]", "dirty_and_stale_read"),
        ("[70]", "dirty_and_stale_read"),
        ("[132]", "longest_log_data_loss"),
        ("[72]", "rethinkdb_reconfig_split_brain"),
        ("[80]", "listing1_data_loss"),
        ("[75]", "coordinator_double_execution"),
        ("[144]", "async_replication_data_loss"),
        ("[82]", "sync_interrupted_corruption"),
        ("[73]", "priority_livelock"),
        ("[128]", "arbiter_thrashing"),
        ("[74]", "txnlog_sync_corruption"),
        ("[149]", "ephemeral_never_deleted"),
        ("[169]", "kafka_acked_message_loss"),
        ("[69]", "autocluster_split"),
        ("[83]", "deadlock_on_demotion"),
        ("[78]", "mapreduce_double_execution"),
        ("[79]", "hdfs_rack_placement_retry"),
        ("[164]", "hdfs_simplex_healthy_node"),
        ("[76]", "hbase_log_roll_data_loss"),
        ("[140]", "timestamp_consolidation_reappearance"),
        ("[81]", "hazelcast_demotion_wipe"),
        ("[118]", "semaphore_double_lock"),
        // Appendix B (the NEAT-found failures).
        ("[184]", "ceph_recovery_resurrection"),
        ("[185]", "fig6_hang"),
        ("[186]", "listing2_double_dequeue"),
        ("[187]", "cache_stale_read"),
        ("[188]", "semaphore_double_lock"),
        ("[189]", "broken_atomics"),
        ("[190]", "set_loss_and_reappearance"),
        ("[191]", "set_loss_and_reappearance"),
        ("[192]", "cache_stale_read"),
        ("[193]", "queue_double_dequeue"),
        ("[194]", "lasting_split"),
        ("[195]", "broken_atomics"),
        ("[196]", "semaphore_double_lock"),
        ("[197]", "semaphore_reclaim_corruption"),
        ("[198]", "semaphore_reclaim_corruption"),
        ("[201]", "dirty_and_stale_read"),
        ("[202]", "dkron_misleading_status"),
        ("[203]", "moosefs_inconsistent_metadata"),
        ("[204]", "moosefs_client_hang"),
    ]
}

/// Renders the campaign summary in the style of the paper's §6.4.
pub fn render(results: &[ScenarioResult]) -> String {
    let mut out = String::new();
    out.push_str("NEAT campaign: every scenario, flawed configuration vs repaired baseline\n");
    out.push_str(&format!(
        "  {:<30} {:<14} {:<24} {:>9} {:>7}\n",
        "scenario", "system", "reference", "flawed", "fixed"
    ));
    for r in results {
        out.push_str(&format!(
            "  {:<30} {:<14} {:<24} {:>9} {:>7}\n",
            r.name,
            r.system,
            r.reference,
            r.flawed.len(),
            r.fixed.len()
        ));
    }
    let reproduced = results.iter().filter(|r| !r.flawed.is_empty()).count();
    let fixed_clean = results.iter().filter(|r| r.reproduced_and_fixed()).count();
    out.push_str(&format!(
        "\n  scenarios reproducing their failure: {reproduced}/{}\n",
        results.len()
    ));
    out.push_str(&format!(
        "  scenarios clean under the repaired baseline: {fixed_clean}/{reproduced}\n"
    ));

    // Live coverage of the catalog: how many of the 136 studied failures
    // have an executable reproduction.
    let coverage = catalog_coverage();
    let refs: std::collections::BTreeSet<&str> =
        coverage.iter().map(|(r, _)| *r).collect();
    let covered = study::catalog()
        .iter()
        .filter(|f| refs.contains(f.reference))
        .count();
    out.push_str(&format!(
        "  catalog failures with an executable reproduction: {covered}/136\n"
    ));

    let t15 = table15(results);
    let found = t15.iter().filter(|r| r.detected).count();
    // Finding 12's shape: almost everything reproduces on three servers.
    let five_node: Vec<&str> = results
        .iter()
        .filter(|r| r.name == "rethinkdb_reconfig_split_brain")
        .map(|r| r.name)
        .collect();
    out.push_str(&format!(
        "  scenarios needing five servers: {} of {} (the rest run on three; \
         paper: 83% on three)\n",
        five_node.len(),
        results.len()
    ));
    out.push_str(&format!(
        "\nTable 15: {found}/32 NEAT-found failures reproduced (paper: 32 found, 30 catastrophic)\n"
    ));
    for r in &t15 {
        out.push_str(&format!(
            "  {:<12} {:<7} {:<30} {:<9} {}\n",
            r.system,
            r.reference,
            r.paper_impact,
            r.partition,
            if r.detected {
                "REPRODUCED"
            } else if r.scenario.is_some() {
                "not detected"
            } else {
                "not modelled"
            }
        ));
    }
    out
}

// --- Multi-seed sweeps (§5.4 / Table 11, live) ---------------------------

/// Timing class of a scenario observed across a seed sweep — the live
/// analogue of the paper's Table 11 timing-constraint taxonomy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum TimingClass {
    /// Detected at every swept seed: no timing constraint stands between
    /// the partition and the failure (paper: "no timing constraints").
    Deterministic,
    /// Detected at some seeds only: the failure needs the fault to land
    /// in a timing window that only some schedules produce (paper: "has
    /// timing constraints" / "nondeterministic").
    TimingDependent,
    /// Never detected at the swept seeds.
    Undetected,
}

impl TimingClass {
    pub fn label(self) -> &'static str {
        match self {
            TimingClass::Deterministic => "deterministic",
            TimingClass::TimingDependent => "timing-dependent",
            TimingClass::Undetected => "undetected",
        }
    }
}

/// One scenario's outcomes across every swept seed, in seed order.
#[derive(Clone, Debug)]
pub struct SweepScenario {
    pub name: &'static str,
    pub system: &'static str,
    /// Per seed: did the flawed arm detect at least one violation?
    pub detected: Vec<bool>,
    /// Per seed: did the repaired baseline stay clean? (`true` when the
    /// scenario has no fixed arm — those are asserted by unit tests.)
    pub fixed_clean: Vec<bool>,
}

impl SweepScenario {
    /// Seeds at which the flawed arm detected its failure.
    pub fn hits(&self) -> usize {
        self.detected.iter().filter(|&&d| d).count()
    }

    /// Detection probability estimated over the swept seeds.
    pub fn rate(&self) -> f64 {
        if self.detected.is_empty() {
            0.0
        } else {
            self.hits() as f64 / self.detected.len() as f64
        }
    }

    pub fn class(&self) -> TimingClass {
        let hits = self.hits();
        if hits == 0 {
            TimingClass::Undetected
        } else if hits == self.detected.len() {
            TimingClass::Deterministic
        } else {
            TimingClass::TimingDependent
        }
    }
}

/// The merged result of running the full campaign at every seed of a
/// sweep. Keyed and ordered by (scenario, seed), so the report is
/// byte-stable regardless of which worker produced which run.
#[derive(Clone, Debug)]
pub struct SweepReport {
    pub seeds: Vec<u64>,
    pub scenarios: Vec<SweepScenario>,
}

impl SweepReport {
    /// `(deterministic, timing-dependent, undetected)` scenario counts —
    /// the live Table 11 split.
    pub fn split(&self) -> (usize, usize, usize) {
        let count = |c: TimingClass| self.scenarios.iter().filter(|s| s.class() == c).count();
        (
            count(TimingClass::Deterministic),
            count(TimingClass::TimingDependent),
            count(TimingClass::Undetected),
        )
    }

    /// Detection-probability curve: entry `b-1` is the fraction of
    /// scenarios detected within the first `b` seeds of the sweep — the
    /// §5.4 "probability of detection per test budget" shape, with seeds
    /// as the budget axis.
    pub fn detection_curve(&self) -> Vec<f64> {
        let n = self.scenarios.len();
        (1..=self.seeds.len())
            .map(|b| {
                if n == 0 {
                    return 0.0;
                }
                let hit = self
                    .scenarios
                    .iter()
                    .filter(|s| s.detected[..b].iter().any(|&d| d))
                    .count();
                hit as f64 / n as f64
            })
            .collect()
    }
}

/// Renders a seed sweep: per-scenario detection rates, the live Table 11
/// deterministic/nondeterministic split next to the paper's transcription,
/// and the detection-probability curve.
pub fn render_sweep(r: &SweepReport) -> String {
    let n_seeds = r.seeds.len();
    let mut out = String::new();
    out.push_str(&format!(
        "NEAT campaign sweep: {} scenarios x {} seeds ({:?})\n",
        r.scenarios.len(),
        n_seeds,
        r.seeds
    ));
    out.push_str(&format!(
        "  {:<36} {:<14} {:>7} {:>6}  {:>11}  {}\n",
        "scenario", "system", "hits", "rate", "fixed-clean", "timing"
    ));
    for s in &r.scenarios {
        let clean = s.fixed_clean.iter().filter(|&&c| c).count();
        out.push_str(&format!(
            "  {:<36} {:<14} {:>4}/{:<2} {:>6.2} {:>8}/{:<2}   {}\n",
            s.name,
            s.system,
            s.hits(),
            n_seeds,
            s.rate(),
            clean,
            n_seeds,
            s.class().label()
        ));
    }

    let (det, timing, undet) = r.split();
    let n = r.scenarios.len().max(1);
    let pct = |k: usize| 100.0 * k as f64 / n as f64;
    out.push_str("\nLive Table 11 split (timing constraints observed across seeds vs paper):\n");
    out.push_str(&format!(
        "  deterministic     (every seed detects)  {:>3}/{}  {:>5.1}%   paper: 61.8% no timing constraints\n",
        det, n, pct(det)
    ));
    out.push_str(&format!(
        "  timing-dependent  (some seeds only)     {:>3}/{}  {:>5.1}%   paper: 31.2% has timing constraints\n",
        timing, n, pct(timing)
    ));
    out.push_str(&format!(
        "  undetected        (no seed detects)     {:>3}/{}  {:>5.1}%   paper:  7.0% nondeterministic\n",
        undet, n, pct(undet)
    ));

    out.push_str(
        "\nDetection probability vs seed budget (fraction of scenarios detected \
         within the first b seeds):\n",
    );
    for (i, p) in r.detection_curve().iter().enumerate() {
        out.push_str(&format!("  b={:<3} {:.3}\n", i + 1, p));
    }
    out
}
