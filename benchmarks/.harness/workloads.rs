//! The six workloads. Each is a closed loop of rounds in one process; a
//! round is a pure function of `--seed` and the round index. `round` is
//! what the end-to-end metrics time (tracing off); `traced` does the same
//! work through the finest public calls, with a span around each.

use std::fmt::Write as _;
use std::hint::black_box;

use neat::explore::{explore_full, run_schedule, Exploration, Strategy, TestTarget};
use neat::obs::Timeline;
use neat::Violation;
use neat_repro::campaign::{self, ArmId, RunMode};

use crate::fabric;
use crate::spanned::Spanned;
use crate::stats::Digest;
use crate::trace::{span_if, Tracer};

pub const NAMES: [&str; 6] = [
    "campaign_quick",
    "audit_hash",
    "sweep_parallel",
    "explore_cov",
    "ladder_reads",
    "fabric_storm",
];

/// Every simulation seed a round uses lies in `0..SEED_SPACE`. The whole
/// space was swept once per workload at the commit that defined the
/// benchmark with no failed unit (README "Sizing"), so no `--seed` can
/// select an input on which an operation fails.
pub const SEED_SPACE: u64 = 4096;

/// The `i`-th of the `n` simulation seeds of round `r`.
fn sim_seed(seed: u64, r: u64, i: u64, n: u64) -> u64 {
    (seed.wrapping_mul(7919).wrapping_add(r * n + i)) % SEED_SPACE
}

pub struct RoundOut {
    /// Units of work that failed their check.
    pub failed: u64,
    /// FNV-1a over the round's simulated outputs.
    pub digest: Digest,
}

pub trait Workload {
    /// Units of `work` one round attempts.
    fn work_per_round(&self) -> u64;
    fn round(&mut self, r: u64) -> RoundOut;
    /// Checks that cost a second execution; run untimed on round 0 and
    /// every 10th round. Returns failed units.
    fn cross_check(&mut self, _r: u64) -> u64 {
        0
    }
    fn traced_round(&mut self, r: u64, t: &Tracer);
}

pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "campaign_quick" => Box::new(CampaignQuick::new(seed)),
        "audit_hash" => Box::new(AuditHash::new(seed)),
        "sweep_parallel" => Box::new(SweepParallel::new(seed)),
        "explore_cov" => Box::new(ExploreCov::new(seed)),
        "ladder_reads" => Box::new(LadderReads::new(seed)),
        "fabric_storm" => Box::new(FabricStorm::new(seed)),
        _ => return None,
    })
}

/// `min(2, nproc)`: the sizing box has two cores.
pub fn jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

// --- campaign_quick ---------------------------------------------------------

pub const CAMPAIGN_SEED: &str = "campaign.seed";
pub const QUICK_ARM: &str = "campaign.quick_arm";

/// `run_all_scenarios` at 8 consecutive seeds: verdicts only, recording off.
pub struct CampaignQuick {
    seed: u64,
    pub arms: Vec<ArmId>,
}

impl CampaignQuick {
    pub const SEEDS: u64 = 8;

    pub fn new(seed: u64) -> Self {
        CampaignQuick {
            seed,
            arms: campaign::arm_ids(),
        }
    }

    pub fn sim_seeds(&self, r: u64) -> impl Iterator<Item = u64> {
        let seed = self.seed;
        (0..Self::SEEDS).map(move |i| sim_seed(seed, r, i, Self::SEEDS))
    }

    /// One span per seed, one per `run_arm(arm, seed, Quick)` inside it.
    /// Returns the simulated events (always-on counter).
    pub fn traced(&self, r: u64, t: &Tracer) -> u64 {
        let mut events = 0;
        for s in self.sim_seeds(r) {
            t.span(CAMPAIGN_SEED, s, || {
                for (k, arm) in self.arms.iter().enumerate() {
                    events += t.span(QUICK_ARM, k as u64, || {
                        let run = campaign::run_arm(arm, s, RunMode::Quick);
                        run.timeline.counters.events_simulated
                    });
                }
            });
        }
        events
    }
}

impl Workload for CampaignQuick {
    fn work_per_round(&self) -> u64 {
        Self::SEEDS * self.arms.len() as u64
    }

    fn round(&mut self, r: u64) -> RoundOut {
        let mut digest = Digest::default();
        for s in self.sim_seeds(r) {
            for res in campaign::run_all_scenarios(s) {
                let _ = write!(digest, "{:?}{:?}", res.flawed, res.fixed);
            }
        }
        RoundOut { failed: 0, digest }
    }

    fn traced_round(&mut self, r: u64, t: &Tracer) {
        self.traced(r, t);
    }
}

// --- audit_hash -------------------------------------------------------------

pub const AUDIT_ARM: &str = "audit.arm";
pub const HASH_ARM: &str = "campaign.hash_arm";

/// The double-run audit of every arm at one seed: recording on, `Debug`
/// stream fingerprint hashed.
pub struct AuditHash {
    seed: u64,
    pub arms: Vec<ArmId>,
}

impl AuditHash {
    pub fn new(seed: u64) -> Self {
        AuditHash {
            seed,
            arms: campaign::arm_ids(),
        }
    }

    pub fn sim_seed(&self, r: u64) -> u64 {
        sim_seed(self.seed, r, 0, 1)
    }

    /// What `fleet::campaign::audit` does per arm — `run_arm(.., Hash)`
    /// twice, hashes compared — with a span per arm and per run. Returns
    /// each arm's recorded timeline.
    pub fn traced(&self, r: u64, t: &Tracer) -> Vec<Timeline> {
        let s = self.sim_seed(r);
        let audit_arm = |(k, arm): (usize, &ArmId)| {
            let k = k as u64;
            t.span(AUDIT_ARM, k, || {
                let hash_run = || t.span(HASH_ARM, k, || campaign::run_arm(arm, s, RunMode::Hash));
                let (a, b) = (hash_run(), hash_run());
                black_box(a.fingerprint.hash() == b.fingerprint.hash());
                a.timeline
            })
        };
        self.arms.iter().enumerate().map(audit_arm).collect()
    }
}

impl Workload for AuditHash {
    fn work_per_round(&self) -> u64 {
        self.arms.len() as u64
    }

    fn round(&mut self, r: u64) -> RoundOut {
        let mut out = RoundOut {
            failed: 0,
            digest: Digest::default(),
        };
        for outcome in fleet::campaign::audit(self.sim_seed(r), 1) {
            match outcome.result {
                Ok(hash) => out.digest.u64(hash),
                Err(_) => out.failed += 1,
            }
        }
        out
    }

    fn traced_round(&mut self, r: u64, t: &Tracer) {
        self.traced(r, t);
    }
}

// --- sweep_parallel ---------------------------------------------------------

pub const SWEEP: &str = "fleet.sweep_grid";

/// The same cells as `campaign_quick`, through the work-stealing grid.
pub struct SweepParallel {
    seed: u64,
    pub jobs: usize,
    arms: u64,
}

impl SweepParallel {
    /// Sized so that a round stays under 100 ms, and 10 s hold 100 rounds,
    /// even while the host is contended.
    pub const SEEDS: u64 = 12;

    pub fn new(seed: u64) -> Self {
        SweepParallel {
            seed,
            jobs: jobs(),
            arms: campaign::arm_ids().len() as u64,
        }
    }

    pub fn sweep(&self, r: u64, jobs: usize) -> (String, fleet::pool::GridStats) {
        let seeds: Vec<u64> = (0..Self::SEEDS)
            .map(|i| sim_seed(self.seed, r, i, Self::SEEDS))
            .collect();
        let (report, stats) = fleet::campaign::sweep_grid(&seeds, jobs);
        (campaign::render_sweep(&report), stats)
    }
}

impl Workload for SweepParallel {
    fn work_per_round(&self) -> u64 {
        Self::SEEDS * self.arms
    }

    fn round(&mut self, r: u64) -> RoundOut {
        let mut digest = Digest::default();
        digest.bytes(self.sweep(r, self.jobs).0.as_bytes());
        RoundOut { failed: 0, digest }
    }

    /// The parallel rendering must equal the serial one.
    fn cross_check(&mut self, r: u64) -> u64 {
        if self.sweep(r, self.jobs).0 == self.sweep(r, 1).0 {
            0
        } else {
            self.work_per_round()
        }
    }

    fn traced_round(&mut self, r: u64, t: &Tracer) {
        t.span(SWEEP, r, || self.sweep(r, self.jobs));
    }
}

// --- explore_cov ------------------------------------------------------------

pub const EXPLORE: &str = "neat.explore_full";

/// Family crate of each explored target, in exploration order.
pub const TARGETS: [&str; 4] = ["repkv", "gridstore", "mqueue", "consensus"];

/// Coverage-guided exploration, 50 trials on each of four targets.
pub struct ExploreCov {
    seed: u64,
    strategy: Strategy,
    repkv: repkv::RepkvTarget,
    grid: gridstore::GridTarget,
    mq: mqueue::explorer::MqTarget,
    raft: consensus::RaftTarget,
}

impl ExploreCov {
    pub const TRIALS: usize = 50;

    pub fn new(seed: u64) -> Self {
        ExploreCov {
            seed,
            strategy: Strategy::coverage_guided(4),
            repkv: repkv::RepkvTarget::new(repkv::Config::voltdb()),
            grid: gridstore::GridTarget::new(gridstore::GridFlaws::flawed()),
            mq: mqueue::explorer::MqTarget::new(mqueue::BrokerFlaws::flawed()),
            raft: consensus::RaftTarget::new(consensus::RaftTweaks::default(), 3),
        }
    }

    /// Runs `f` on each target in `TARGETS` order.
    fn each_target<R>(
        &mut self,
        r: u64,
        mut f: impl FnMut(usize, &mut dyn TestTarget, &Strategy, u64) -> R,
    ) -> Vec<R> {
        let s = sim_seed(self.seed, r, 0, 1);
        let targets: [&mut dyn TestTarget; 4] = [
            &mut self.repkv,
            &mut self.grid,
            &mut self.mq,
            &mut self.raft,
        ];
        targets
            .into_iter()
            .enumerate()
            .map(|(k, target)| f(k, target, &self.strategy, s))
            .collect()
    }

    pub fn explore(&mut self, r: u64) -> Vec<Exploration> {
        self.each_target(r, |_, target, strategy, s| {
            explore_full(target, strategy, Self::TRIALS, s)
        })
    }

    /// Each target wrapped in [`Spanned`], each `explore_full` in a span.
    /// With `collect`, also returns every trial's timeline and verdicts.
    pub fn traced(
        &mut self,
        r: u64,
        t: &Tracer,
        collect: bool,
    ) -> (Vec<Exploration>, Vec<(Timeline, Vec<Violation>)>) {
        let mut kept = Vec::new();
        let explorations = self.each_target(r, |k, target, strategy, s| {
            let mut spanned = Spanned::new(target, t, k as u64);
            spanned.collect = collect.then(Vec::new);
            let ex = t.span(EXPLORE, k as u64, || {
                explore_full(&mut spanned, strategy, Self::TRIALS, s)
            });
            kept.extend(spanned.collect.take().unwrap_or_default());
            ex
        });
        (explorations, kept)
    }
}

impl Workload for ExploreCov {
    fn work_per_round(&self) -> u64 {
        (TARGETS.len() * Self::TRIALS) as u64
    }

    fn round(&mut self, r: u64) -> RoundOut {
        let mut digest = Digest::default();
        for ex in self.explore(r) {
            let _ = write!(digest, "{:?}", ex.report);
            digest.u64(ex.corpus.len() as u64);
            digest.u64(ex.finds.len() as u64);
        }
        RoundOut { failed: 0, digest }
    }

    /// Every find must replay under `run_schedule` at its trial seed.
    fn cross_check(&mut self, r: u64) -> u64 {
        self.each_target(r, |_, target, strategy, s| {
            let ex = explore_full(target, strategy, Self::TRIALS, s);
            let mut failed = 0;
            for find in &ex.finds {
                target.reset(find.trial_seed, strategy.coverage_guided);
                let mut kinds: Vec<_> = run_schedule(target, &find.plan)
                    .iter()
                    .map(|v| v.kind)
                    .collect();
                kinds.sort();
                kinds.dedup();
                failed += u64::from(kinds != find.kinds);
            }
            failed
        })
        .iter()
        .sum()
    }

    fn traced_round(&mut self, r: u64, t: &Tracer) {
        self.traced(r, t, false);
    }
}

// --- ladder_reads -----------------------------------------------------------

pub const LADDER: &str = "repkv.open_loop_read_shard";

/// One shard of the million-op read ladder: a long-lived world, open-loop
/// Poisson arrivals at 200 ops/s of virtual time.
pub struct LadderReads {
    seed: u64,
}

impl LadderReads {
    pub const OPS: u64 = 125_000;

    pub fn new(seed: u64) -> Self {
        LadderReads { seed }
    }

    pub fn shard(&self, r: u64, t: Option<&Tracer>) -> workload::LoadReport {
        let shard = sim_seed(self.seed, r, 0, 1);
        span_if(t, LADDER, shard, || {
            repkv::load::open_loop_read_shard(shard, Self::OPS)
        })
    }
}

impl Workload for LadderReads {
    fn work_per_round(&self) -> u64 {
        Self::OPS
    }

    fn round(&mut self, r: u64) -> RoundOut {
        let report = self.shard(r, None);
        let mut digest = Digest::default();
        digest.bytes(report.render().as_bytes());
        RoundOut {
            failed: Self::OPS - report.ok,
            digest,
        }
    }

    fn traced_round(&mut self, r: u64, t: &Tracer) {
        self.shard(r, Some(t));
    }
}

// --- fabric_storm -----------------------------------------------------------

pub struct FabricStorm {
    seed: u64,
}

impl FabricStorm {
    pub fn new(seed: u64) -> Self {
        FabricStorm { seed }
    }

    pub fn storm(&self, r: u64, t: Option<&Tracer>) -> fabric::StormOut {
        fabric::storm(sim_seed(self.seed, r, 0, 1), t)
    }
}

impl Workload for FabricStorm {
    fn work_per_round(&self) -> u64 {
        fabric::STEPS
    }

    fn round(&mut self, r: u64) -> RoundOut {
        let out = self.storm(r, None);
        let mut digest = Digest::default();
        let _ = write!(digest, "{:?}{}", out.counters, out.rule_installs);
        RoundOut {
            failed: if out.conserved() { 0 } else { fabric::STEPS },
            digest,
        }
    }

    fn traced_round(&mut self, r: u64, t: &Tracer) {
        self.storm(r, Some(t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_sim_seeds_stay_in_the_swept_space() {
        for name in NAMES {
            assert!(build(name, 8).is_some(), "{name}");
        }
        assert!(build("nope", 8).is_none());
        for seed in [0, 8, 9, u64::MAX] {
            for r in [0, 1, 999] {
                assert!(sim_seed(seed, r, 7, 8) < SEED_SPACE);
            }
        }
        assert_ne!(sim_seed(8, 0, 0, 8), sim_seed(9, 0, 0, 8));
        assert_eq!(sim_seed(8, 1, 0, 8), sim_seed(8, 0, 0, 8) + 8);
    }

    #[test]
    fn rounds_are_pure_functions_of_seed_and_index() {
        for name in ["campaign_quick", "fabric_storm"] {
            let mut a = build(name, 8).unwrap();
            let mut b = build(name, 8).unwrap();
            let first = a.round(0);
            assert_eq!(first.digest, b.round(0).digest, "{name}");
            assert_eq!(first.failed, 0, "{name}");
            assert_ne!(first.digest, a.round(1).digest, "{name}");
        }
    }

    /// The sweep behind [`SEED_SPACE`]. At `--seed 0` round `r` uses the
    /// simulation seeds `r * n .. r * n + n`, so `SEED_SPACE / n` rounds
    /// visit every seed once.
    fn sweep_seed_space(name: &str, seeds_per_round: u64) {
        let mut w = build(name, 0).unwrap();
        for r in 0..SEED_SPACE / seeds_per_round {
            assert_eq!(w.round(r).failed, 0, "{name} round {r}");
            assert_eq!(w.cross_check(r), 0, "{name} round {r} cross-check");
        }
    }

    macro_rules! seed_space_sweeps {
        ($($test:ident: $name:literal, $n:expr;)*) => {$(
            #[test]
            #[ignore = "minutes per workload: cargo test --release -- --ignored seed_space"]
            fn $test() {
                sweep_seed_space($name, $n);
            }
        )*};
    }

    seed_space_sweeps! {
        seed_space_campaign_quick: "campaign_quick", CampaignQuick::SEEDS;
        seed_space_audit_hash: "audit_hash", 1;
        seed_space_sweep_parallel: "sweep_parallel", SweepParallel::SEEDS;
        seed_space_explore_cov: "explore_cov", 1;
        seed_space_ladder_reads: "ladder_reads", 1;
        seed_space_fabric_storm: "fabric_storm", 1;
    }
}
