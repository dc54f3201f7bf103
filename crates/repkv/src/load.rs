//! Load-driven reproductions: the paper's failures exercised under
//! sustained traffic from a [`workload::Driver`] instead of a handful of
//! hand-placed operations.
//!
//! The point of the family is *load dependence*: several of the flaws
//! modelled here are invisible to the legacy low-op drive (one or two
//! carefully timed requests) and only manifest once a workload keeps the
//! system busy while the fault is active — retry storms need enough
//! requests for a response to drop, torn batches need a batch to be in
//! flight when the partition lands, and hot-key divergence needs both
//! sides of a split brain to keep writing. Each scenario emits periodic
//! [`obs::Event::Load`](neat::obs) samples so the forensic timeline shows
//! issue/complete/in-flight curves next to the fault windows.

use std::{collections::BTreeMap, sync::Arc};

use neat::{
    checkers::{check_register, RegisterSemantics},
    rest_of, DegradeSpec, Outcome, RetryPolicy, RunOutcome, Violation, ViolationKind,
};
use simnet::DegradeRule;
use workload::{
    Arrival, Driver, Keyspace, LoadReport, Mix, OpKind, OpStatus, Pacing, WorkloadSpec,
};

use crate::{
    cluster::{Cluster, ClusterSpec},
    config::Config,
    msg::Req,
    scenarios::counter_violations,
};

/// Emit one [`obs`](neat::obs) load sample every this many driven ops.
const SAMPLE_EVERY: u64 = 10;

fn spec(config: Config, seed: u64, record: bool) -> ClusterSpec {
    ClusterSpec {
        record_trace: record,
        ..ClusterSpec::three_by_two(config, seed)
    }
}

/// Maps a client-observed [`Outcome`] onto the driver's accounting.
fn status_of(o: &Outcome) -> OpStatus {
    match o {
        Outcome::Ok(_) | Outcome::OkMany(_) => OpStatus::Ok,
        Outcome::Fail => OpStatus::Fail,
        Outcome::Timeout => OpStatus::Timeout,
    }
}

/// Sleeps virtual time up to the op's scheduled arrival (no-op when the
/// simulation is already past it — the op runs *behind*, which the driver
/// accounts as lag).
fn pace(cluster: &mut Cluster, at: u64) {
    let now = cluster.neat.now();
    if at > now {
        cluster.neat.sleep(at - now);
    }
}

/// Emits a periodic load sample into the observability stream.
fn sample(cluster: &mut Cluster, driver: &Driver, seq: u64) {
    if seq.is_multiple_of(SAMPLE_EVERY) {
        cluster.neat.load_sample(
            driver.issued(),
            driver.report().completed,
            driver.in_flight(),
            driver.behind(),
        );
    }
}

/// Takes the driver's final sample, runs the register checker over
/// `keys`, appends `extra` (the scenario's own verdicts, judged
/// beforehand) and ends the run with the driver's report as its detail.
fn finish(
    cluster: &mut Cluster,
    keys: &[&str],
    driver: Driver,
    extra: Vec<Violation>,
) -> RunOutcome<LoadReport> {
    let report = driver.into_report();
    cluster.neat.load_sample(
        report.issued,
        report.completed,
        report.issued - report.completed,
        report.behind,
    );
    let final_state = cluster.final_state(keys);
    let mut violations = check_register(
        cluster.neat.history(),
        RegisterSemantics::Strong,
        &final_state,
    );
    violations.extend(extra);
    cluster.neat.outcome(violations, report)
}

/// Retry storm under gray loss (§2.1): the leader→client direction drops
/// a fraction of responses while requests keep arriving and executing. An
/// open-loop Poisson stream of non-idempotent increments through a
/// backoff-retrying client (`retry = true`) re-executes every increment
/// whose ack was eaten — under sustained load some response *will* drop,
/// and the counter runs ahead of what the history acknowledges: data
/// corruption. The fixed arm (`retry = false`) leaves isolated ambiguous
/// timeouts, which the checker accepts.
///
/// The violation is load-dependent by construction: see
/// [`load_retry_storm_gray_loss_with_ops`] — a legacy low-op drive of the
/// same choreography finds nothing at the campaign seed.
pub fn load_retry_storm_gray_loss(retry: bool, seed: u64, record: bool) -> RunOutcome<LoadReport> {
    load_retry_storm_gray_loss_with_ops(retry, seed, record, 60)
}

/// [`load_retry_storm_gray_loss`] with the op count exposed: `ops` is the
/// length of the increment stream. Two ops model the legacy hand-placed
/// drive; sixty model real traffic.
pub fn load_retry_storm_gray_loss_with_ops(
    retry: bool,
    seed: u64,
    record: bool,
    ops: u64,
) -> RunOutcome<LoadReport> {
    let mut cluster = Cluster::build(spec(Config::fixed(), seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let c0 = cluster.clients[0];

    // Gray, not severed: 40% of responses vanish on the way back.
    let d = cluster.neat.degrade(DegradeSpec::Simplex {
        src: vec![leader],
        dst: vec![c0],
        rule: DegradeRule::lossy(0.4),
    });

    cluster.neat.op_timeout = 200;
    let mut client = cluster.client(0).via(leader);
    if retry {
        client = client.retrying(RetryPolicy::backoff(4, 100, seed));
    }

    let mut driver = Driver::new(
        WorkloadSpec {
            pacing: Pacing::Open(Arrival::Poisson { rate: 120.0 }),
            keyspace: Keyspace::Uniform { keys: 1 },
            mix: Mix::incrs(),
            ops,
            batch: 0,
            start_at: cluster.neat.now(),
        },
        seed,
    );
    while let Some(op) = driver.next_op() {
        pace(&mut cluster, op.at);
        let start = cluster.neat.now();
        let outcome = client.incr(&mut cluster.neat, "counter", 1);
        driver.complete(&op, start, cluster.neat.now(), status_of(&outcome));
        sample(&mut cluster, &driver, op.seq);
    }

    cluster.neat.heal_degrade(&d);
    cluster.neat.op_timeout = 1000;
    cluster.neat.sleep(1000);

    let extra = counter_violations(&cluster, cluster.leader().unwrap_or(leader));
    finish(&mut cluster, &[], driver, extra)
}

/// Overload during partition and heal: an open-loop rate ramp of reads
/// and writes keeps hammering the old leader while a complete partition
/// isolates it and then heals. Under the flawed profile every write that
/// times out replication is answered *failure* yet stays applied
/// (apply-before-commit), and the continuing read stream serves those
/// failed values straight back — dirty reads at load, repeating as fast
/// as the workload does. [`Config::fixed`] keeps failed writes invisible
/// and fails reads once the lease lapses: clean.
pub fn load_overload_during_heal(
    mut config: Config,
    seed: u64,
    record: bool,
) -> RunOutcome<LoadReport> {
    // The old leader must keep serving through the fault window.
    config.step_down_rounds = 30;
    let mut cluster = Cluster::build(spec(config, seed, record));
    let old = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let client = cluster.client(0).via(old);

    let keys = ["load0", "load1", "load2", "load3"];
    let t0 = cluster.neat.now();
    let install_at = t0 + 500;
    let heal_at = t0 + 1600;

    cluster.neat.op_timeout = 300;
    let mut driver = Driver::new(
        WorkloadSpec {
            pacing: Pacing::Open(Arrival::Ramp {
                from: 40.0,
                to: 120.0,
                ramp_ms: 2500,
            }),
            keyspace: Keyspace::Zipfian { keys: keys.len(), theta: 0.9 },
            mix: Mix::read_write(1, 2),
            ops: 90,
            batch: 0,
            start_at: t0,
        },
        seed,
    );

    let minority = [old, cluster.clients[0]];
    let majority = rest_of(&cluster.neat.world.node_ids(), &minority);
    let mut partition = None;
    while let Some(op) = driver.next_op() {
        if partition.is_none() && op.at >= install_at && op.at < heal_at {
            partition = Some(cluster.neat.partition_complete(&minority, &majority));
        }
        if op.at >= heal_at {
            if let Some(p) = partition.take() {
                cluster.neat.heal(&p);
            }
        }
        pace(&mut cluster, op.at);
        let key = keys[op.key];
        let start = cluster.neat.now();
        let outcome = match op.kind {
            OpKind::Read => client.read(&mut cluster.neat, key),
            _ => client.write(&mut cluster.neat, key, op.val),
        };
        driver.complete(&op, start, cluster.neat.now(), status_of(&outcome));
        sample(&mut cluster, &driver, op.seq);
    }
    if let Some(p) = partition.take() {
        cluster.neat.heal(&p);
    }

    cluster.neat.op_timeout = 1000;
    cluster.neat.sleep(2000);
    finish(&mut cluster, &keys, driver, Vec::new())
}

/// Hot-key contention across a partial partition: a closed-loop pair of
/// virtual clients — one per side of an intersecting split brain — keeps
/// writing a zipf-hot key. Under the flawed Elasticsearch-style profile
/// both leaders acknowledge writes to the same key; consolidation after
/// the heal keeps one log and every acknowledged write on the losing side
/// is gone — data loss scaling with the traffic. The fixed profile never
/// elects the second leader, so the minority client's writes fail
/// honestly and nothing acknowledged is lost.
pub fn load_hot_key_partition(config: Config, seed: u64, record: bool) -> RunOutcome<LoadReport> {
    let mut cluster = Cluster::build(spec(config, seed, record));
    let s1 = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let others = rest_of(&cluster.servers, &[s1]);
    let s2 = others[0];

    // Partial partition: {s1, client1} | {s2, client2}; s3 bridges both.
    let side1 = [s1, cluster.clients[0]];
    let side2 = [s2, cluster.clients[1]];
    let p = cluster.neat.partition_partial(&side1, &side2);
    cluster.neat.sleep(600); // the flawed profile elects s2 with the bridge vote

    let keys = ["hot", "cold0", "cold1", "cold2"];
    cluster.neat.op_timeout = 250;
    let clients = [cluster.client(0).via(s1), cluster.client(1).via(s2)];
    let mut driver = Driver::new(
        WorkloadSpec {
            pacing: Pacing::Closed { clients: 2, think_ms: 15 },
            keyspace: Keyspace::HotKey { keys: keys.len(), hot_mass: 0.75 },
            mix: Mix::writes(),
            ops: 60,
            batch: 0,
            start_at: cluster.neat.now(),
        },
        seed,
    );
    while let Some(op) = driver.next_op() {
        pace(&mut cluster, op.at);
        let start = cluster.neat.now();
        let outcome = clients[op.client].write(&mut cluster.neat, keys[op.key], op.val);
        driver.complete(&op, start, cluster.neat.now(), status_of(&outcome));
        sample(&mut cluster, &driver, op.seq);
    }

    cluster.neat.heal(&p);
    cluster.neat.op_timeout = 1000;
    cluster.neat.sleep(2000);
    finish(&mut cluster, &keys, driver, Vec::new())
}

/// Batched-write atomicity under a simplex partition: the driver issues
/// multi-key batches the client expects to land atomically; right after
/// one batch is acknowledged, the leader→follower direction goes dark.
/// The flawed early-ack path has only drip-fed the first entry by then —
/// the acknowledged tail is stranded and dies with the leadership: the
/// surviving state holds *part* of an atomically-acknowledged batch
/// (data corruption), and batches acked during the dark window vanish
/// whole (data loss). The fixed `atomic_batch` path acknowledges only
/// after the entire batch commits, so the same choreography leaves
/// nothing torn.
pub fn load_batched_write_atomicity(
    config: Config,
    seed: u64,
    record: bool,
) -> RunOutcome<LoadReport> {
    let mut cluster = Cluster::build(spec(config, seed, record));
    let leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    let followers = rest_of(&cluster.servers, &[leader]);
    let mut client = cluster.client(0).via(leader);

    const GROUPS: usize = 4;
    const TEAR_SEQ: u64 = 3; // partition lands right after this batch's ack
    let group_keys = |g: usize| [format!("g{g}a"), format!("g{g}b"), format!("g{g}c")];

    cluster.neat.op_timeout = 400;
    let mut driver = Driver::new(
        WorkloadSpec {
            pacing: Pacing::Open(Arrival::Poisson { rate: 40.0 }),
            keyspace: Keyspace::Uniform { keys: GROUPS },
            mix: Mix::writes(),
            ops: 12,
            batch: 3,
            start_at: cluster.neat.now(),
        },
        seed,
    );

    // Last batch per group: (val, acked Ok). Timeouts clear the slot — an
    // unknown-outcome batch may legitimately materialize fully or not at
    // all, so the group can no longer be judged by its predecessor.
    let mut last_acked: BTreeMap<usize, Option<u64>> = BTreeMap::new();
    let mut partition = None;
    let mut heal_at = None;
    while let Some(op) = driver.next_op() {
        if let (Some(p), Some(at)) = (&partition, heal_at) {
            if op.at >= at {
                cluster.neat.heal(p);
                partition = None;
                // The old leader has stepped down; follow the new one.
                cluster.neat.sleep(400);
                if let Some(l) = cluster.leader() {
                    client = client.via(l);
                }
            }
        }
        pace(&mut cluster, op.at);
        let names = group_keys(op.key);
        let ops: Vec<(&str, u64)> = names.iter().map(|k| (k.as_str(), op.val)).collect();
        let start = cluster.neat.now();
        let outcome = client.batch(&mut cluster.neat, &ops);
        match outcome {
            Outcome::Ok(_) | Outcome::OkMany(_) => {
                last_acked.insert(op.key, Some(op.val));
            }
            Outcome::Timeout => {
                last_acked.insert(op.key, None);
            }
            Outcome::Fail => {}
        }
        driver.complete(&op, start, cluster.neat.now(), status_of(&outcome));
        sample(&mut cluster, &driver, op.seq);
        if op.seq == TEAR_SEQ {
            // The client already holds the Ok; under the flawed profile the
            // batch tail is still drip-replicating when the link goes dark.
            partition = Some(cluster.neat.partition_simplex(&[leader], &followers));
            heal_at = Some(cluster.neat.now() + 700);
        }
    }
    if let Some(p) = partition.take() {
        cluster.neat.heal(&p);
    }

    cluster.neat.op_timeout = 1000;
    cluster.neat.sleep(2000);

    let all_keys: Vec<String> = (0..GROUPS).flat_map(|g| group_keys(g).to_vec()).collect();
    let key_refs: Vec<&str> = all_keys.iter().map(String::as_str).collect();
    // All-or-nothing audit per group (the register checker cannot see
    // batch semantics — [`KvClient::batch`] records one opaque op).
    let final_state = cluster.final_state(&key_refs);
    let mut extra = Vec::new();
    for (g, acked) in &last_acked {
        let vals: Vec<Option<u64>> = group_keys(*g)
            .iter()
            .map(|k| final_state.get(k.as_str()).copied().flatten())
            .collect();
        let uniform = vals.windows(2).all(|w| w[0] == w[1]);
        if !uniform {
            extra.push(Violation::new(
                ViolationKind::DataCorruption,
                format!(
                    "atomically-acknowledged batch torn: group {g} survives as {vals:?} \
                     ({}/3 entries durable)",
                    vals.iter().filter(|v| v.is_some()).count()
                ),
            ));
        } else if let Some(val) = acked {
            if vals[0] != Some(*val) {
                extra.push(Violation::new(
                    ViolationKind::DataLoss,
                    format!(
                        "acknowledged batch lost whole: group {g} should hold {val}, \
                         holds {:?}",
                        vals[0]
                    ),
                ));
            }
        }
    }
    finish(&mut cluster, &key_refs, driver, extra)
}

/// One shard of the sharded open-loop read ladder: a healthy fixed-profile
/// cluster seeded with four keys, then `ops` pure reads from a Poisson
/// stream. The report is a pure function of `shard` alone, so merging the
/// eight shard reports in index order yields byte-identical output no
/// matter how many fleet jobs ran them — that is the determinism claim
/// `BENCH_workload.json` records.
///
/// The four seeding writes are recorded; the reads are unrecorded probes
/// (`KvClient::attempt`, the one attempt `read` wraps), since no checker
/// reads the ladder's history: a read costs its two deliveries, not a
/// history record.
///
/// Reads only: the ladder measures steady-state delivery, and reads leave
/// the log at its seeded four entries. Writes would no longer be ruled out
/// by their cost — a log version is shared by the leader, its messages and
/// its followers, so a write allocates the same however long the log is
/// and copies the entries once, without their keys.
pub fn open_loop_read_shard(shard: u64, ops: u64) -> workload::LoadReport {
    let seed = 0xB01D_FACE ^ shard.wrapping_mul(0x9E37_79B9);
    let mut cluster = Cluster::build(spec(Config::fixed(), seed, false));
    let mut leader = cluster.wait_for_leader(3000).expect("leader"); // lint:allow(unwrap-expect)
    // A transient claimant can win the wait at some seeds; settle and
    // re-read so the stream targets the stable leader.
    cluster.neat.sleep(500);
    leader = cluster.leader().unwrap_or(leader);

    let keys = ["r0", "r1", "r2", "r3"].map(|k| cluster.neat.key(k));
    for (i, k) in keys.iter().enumerate() {
        cluster
            .client(0)
            .via(leader)
            .write(&mut cluster.neat, k, shard * 10 + i as u64 + 1);
    }

    let mut driver = Driver::new(
        WorkloadSpec {
            pacing: Pacing::Open(Arrival::Poisson { rate: 200.0 }),
            keyspace: Keyspace::Uniform { keys: keys.len() },
            mix: Mix::read_write(1, 0),
            ops,
            batch: 0,
            start_at: cluster.neat.now(),
        },
        seed,
    );
    while let Some(op) = driver.next_op() {
        pace(&mut cluster, op.at);
        if let Some(l) = cluster.leader() {
            leader = l;
        }
        let start = cluster.neat.now();
        let read = Req::Read {
            key: Arc::clone(&keys[op.key]),
        };
        let outcome = cluster
            .client(0)
            .via(leader)
            .attempt(&mut cluster.neat, read);
        driver.complete(&op, start, cluster.neat.now(), status_of(&outcome));
    }
    driver.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_storm_corrupts_the_counter_under_load() {
        let out = load_retry_storm_gray_loss(true, 8, false);
        assert!(
            out.has(ViolationKind::DataCorruption),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn no_retries_no_storm() {
        let out = load_retry_storm_gray_loss(false, 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn retry_storm_is_load_dependent() {
        // The same flawed choreography driven the legacy way — a couple of
        // hand-placed ops — finds nothing at the campaign seed; only the
        // sustained stream exposes the corruption.
        let low = load_retry_storm_gray_loss_with_ops(true, 8, false, 2);
        assert!(low.violations.is_empty(), "{:?}", low.violations);
        let full = load_retry_storm_gray_loss(true, 8, false);
        assert!(
            full.has(ViolationKind::DataCorruption),
            "{:?}",
            full.violations
        );
    }

    #[test]
    fn overload_during_heal_dirty_reads_on_flawed_profile() {
        let out = load_overload_during_heal(Config::voltdb(), 8, false);
        assert!(out.has(ViolationKind::DirtyRead), "{:?}", out.violations);
    }

    #[test]
    fn overload_during_heal_clean_on_fixed_profile() {
        let out = load_overload_during_heal(Config::fixed(), 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn hot_key_split_brain_loses_acked_writes() {
        let out = load_hot_key_partition(Config::elasticsearch(), 8, false);
        assert!(out.has(ViolationKind::DataLoss), "{:?}", out.violations);
    }

    #[test]
    fn hot_key_clean_on_fixed_profile() {
        let out = load_hot_key_partition(Config::fixed(), 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn simplex_partition_tears_the_early_acked_batch() {
        let out = load_batched_write_atomicity(Config::voltdb(), 8, false);
        assert!(
            out.has(ViolationKind::DataCorruption) || out.has(ViolationKind::DataLoss),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn atomic_batches_survive_the_same_partition() {
        let out = load_batched_write_atomicity(Config::fixed(), 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn read_shard_reports_are_a_pure_function_of_the_shard() {
        let a = open_loop_read_shard(3, 200);
        let b = open_loop_read_shard(3, 200);
        assert_eq!(a, b);
        assert_eq!(a.issued, 200);
        assert_eq!(a.ok, 200, "healthy cluster must answer every read: {}", a.render());
        assert_ne!(a.render(), open_loop_read_shard(4, 200).render());
    }

    #[test]
    fn a_2000_read_shard_renders_as_it_did_when_reads_were_recorded() {
        // Rendered while every read went through `KvClient::read` and was
        // recorded: unrecorded probes move no simulated byte.
        assert_eq!(
            open_loop_read_shard(3, 2_000).render(),
            "issued=2000 ok=2000 fail=0 timeout=0 behind=1342 max-lag=47 \
             p50=6 p99=29 p999=48 max=51"
        );
    }

    #[test]
    fn load_scenarios_emit_load_samples() {
        let out = load_retry_storm_gray_loss(false, 8, true);
        assert!(out.timeline.counters.load_samples > 0);
        assert!(
            out.timeline
                .events
                .iter()
                .any(|e| e.label() == "load"),
            "recorded timeline should carry load events"
        );
        assert_eq!(out.detail.issued, 60);
    }
}
