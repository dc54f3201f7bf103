//! Load-driven queue reproduction: the Figure 6 replication hang under a
//! sustained producer stream instead of a handful of hand-placed sends.
//!
//! The legacy [`flapping_link_hang`](crate::scenarios::flapping_link_hang)
//! choreography probes one send per flap window; this variant keeps an
//! open-loop producer running across many windows, so the forensic
//! timeline shows the backlog building: with the AMQ-7064 flaw the master
//! blocks on its first lossy-window replication and every later enqueue
//! times out — the producer falls further and further behind while the
//! link is healthy half the time. A fixed deployment fails over mid-stream
//! and the tail of the stream lands at the new master.

use coord::CoordFlaws;
use neat::{DegradeSpec, Outcome, RunOutcome, Violation, ViolationKind};
use simnet::DegradeRule;
use workload::{Arrival, Driver, Keyspace, LoadReport, Mix, OpStatus, Pacing, WorkloadSpec};

use crate::{broker::BrokerFlaws, cluster::MqCluster, scenarios::align_to_flap};

/// Emit one [`obs`](neat::obs) load sample every this many driven ops.
const SAMPLE_EVERY: u64 = 10;

/// Maps a client-observed [`Outcome`] onto the driver's accounting.
fn status_of(o: &Outcome) -> OpStatus {
    match o {
        Outcome::Ok(_) | Outcome::OkMany(_) => OpStatus::Ok,
        Outcome::Fail => OpStatus::Fail,
        Outcome::Timeout => OpStatus::Timeout,
    }
}

/// Backlog-driven leader flap (AMQ-7064 under traffic): a flapping
/// master↔replica link degrades while an open-loop producer keeps
/// enqueueing. Each op re-targets whoever is master *now*, so a fixed
/// deployment rides through its mid-stream failover; the flawed master
/// blocks forever on the first lossy-window replication and the whole
/// stream after it times out — a system hang that only a sustained
/// workload makes unambiguous (a single probe could always have been
/// unlucky).
pub fn load_backlog_leader_flap(
    flaws: BrokerFlaws,
    seed: u64,
    record: bool,
) -> RunOutcome<LoadReport> {
    let mut cluster = MqCluster::build(3, flaws, CoordFlaws::default(), seed, record);
    cluster.neat.op_timeout = 500;
    let master = cluster.wait_for_master(3000, None).expect("master"); // lint:allow(unwrap-expect)
    let c1 = cluster.client(0);

    // Pre-fault traffic works.
    c1.send(&mut cluster.neat, master, "q", 1);

    // Flapping degradation: master <-> replicas, total loss during the
    // degraded half-periods, untouched in between (§2.1 flaky links).
    const FLAP: u64 = 600;
    let replicas: Vec<_> = cluster
        .brokers
        .iter()
        .copied()
        .filter(|b| *b != master)
        .collect();
    let d = cluster.neat.degrade(DegradeSpec::flapping(
        vec![master],
        replicas,
        DegradeRule::lossy(1.0),
        FLAP,
    ));

    // Start the stream at a quiet window so the first sends demonstrate
    // the link is merely degraded, not severed.
    align_to_flap(&mut cluster, FLAP, false);

    let mut driver = Driver::new(
        WorkloadSpec {
            pacing: Pacing::Open(Arrival::Poisson { rate: 30.0 }),
            keyspace: Keyspace::Uniform { keys: 1 },
            mix: Mix::enqueues(),
            ops: 36,
            batch: 0,
            start_at: cluster.neat.now(),
        },
        seed,
    );

    // Per-op ledger: how many sends stalled on a hung replication?
    let mut stalled = 0u64;
    let mut last_master = master;
    while let Some(op) = driver.next_op() {
        let now = cluster.neat.now();
        if op.at > now {
            cluster.neat.sleep(op.at - now);
        }
        // Re-target every op: a fixed deployment changes masters
        // mid-stream and the producer is expected to follow.
        if let Some(m) = cluster.master() {
            last_master = m;
        }
        let start = cluster.neat.now();
        let outcome = c1.send(&mut cluster.neat, last_master, "q", 100 + op.seq);
        if matches!(outcome, Outcome::Timeout) {
            stalled += 1;
        }
        driver.complete(&op, start, cluster.neat.now(), status_of(&outcome));
        if op.seq % SAMPLE_EVERY == 0 {
            cluster.neat.load_sample(
                driver.issued(),
                driver.report().completed,
                driver.in_flight(),
                driver.behind(),
            );
        }
    }

    // Final probe in a lossy window at whoever is master now: a healthy
    // failover target still replicates through its clean link.
    cluster.neat.sleep(1500);
    align_to_flap(&mut cluster, FLAP, true);
    let probe = match cluster.master() {
        Some(m) => c1.send(&mut cluster.neat, m, "q", 999),
        None => Outcome::Timeout,
    };

    cluster.neat.heal_degrade(&d);
    cluster.neat.sleep(800);

    let report = driver.into_report();
    cluster.neat.load_sample(
        report.issued,
        report.completed,
        report.issued - report.completed,
        report.behind,
    );

    let mut violations = Vec::new();
    // A hung replication is forever under the flaw: the stream left stalled
    // sends behind AND the master still cannot replicate in a lossy window
    // long after a fixed deployment would have failed over.
    let hang = stalled > 0 && !probe.is_ok();
    if hang {
        violations.push(Violation::new(
            ViolationKind::SystemHang,
            format!(
                "master blocked on replication over a flapping link and \
                 never failed over: {stalled} of {} driven enqueues hang \
                 forever (max lag {} ms) although every link was healthy \
                 half the time",
                report.issued, report.max_lag,
            ),
        ));
    }
    cluster.neat.outcome(violations, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_hangs_with_the_flaw() {
        let out = load_backlog_leader_flap(BrokerFlaws::flawed(), 8, false);
        assert!(out.has(ViolationKind::SystemHang), "{:?}", out.violations);
    }

    #[test]
    fn backlog_drains_after_failover_when_fixed() {
        let out = load_backlog_leader_flap(BrokerFlaws::fixed(), 8, false);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn load_report_lands_in_the_outcome() {
        let out = load_backlog_leader_flap(BrokerFlaws::fixed(), 8, true);
        assert_eq!(out.detail.issued, 36, "{:?}", out.detail);
        assert!(out.timeline.counters.load_samples > 0);
    }
}
