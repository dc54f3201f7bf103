//! A trial ends once its cluster has settled instead of after a fixed
//! sleep; this differential test holds that every verdict stays the same.
//!
//! The oracle is [`FixedQuiesce`]: the same deployment, finished the way
//! the explorer finished every trial before the settled-view probe —
//! heal, restart every node, sleep the full `QUIESCE_MS`, check. Both
//! explore the four targets of the `explore_cov` benchmark workload at
//! equal seeds, and must agree on the report, the corpus, the finds and
//! every find's replayed violations.

use neat::explore::{
    explore_full, run_schedule, Deployment, EventChoice, Exploration, Strategy, TestTarget,
};
use neat::{DegradeSpec, PartitionSpec, Violation};
use rand::rngs::StdRng;
use simnet::{NodeId, Time};

/// `D`, with the fixed-sleep finish of the explorer before the probe.
struct FixedQuiesce<D>(D);

impl<D: Deployment> TestTarget for FixedQuiesce<D> {
    fn reset(&mut self, seed: u64, record: bool) {
        self.0.reset(seed, record);
    }
    fn servers(&self) -> Vec<NodeId> {
        self.0.servers()
    }
    fn leader(&mut self) -> Option<NodeId> {
        self.0.leader()
    }
    fn supported_events(&self) -> Vec<EventChoice> {
        self.0.supported_events()
    }
    fn inject(&mut self, spec: &PartitionSpec) {
        self.0.inject(spec);
    }
    fn degrade(&mut self, spec: &DegradeSpec) {
        TestTarget::degrade(&mut self.0, spec);
    }
    fn crash(&mut self, nodes: &[NodeId]) {
        TestTarget::crash(&mut self.0, nodes);
    }
    fn restart(&mut self, nodes: &[NodeId]) {
        TestTarget::restart(&mut self.0, nodes);
    }
    fn advance(&mut self, ms: Time) {
        self.0.advance(ms);
    }
    fn heal_all(&mut self) {
        TestTarget::heal_all(&mut self.0);
    }
    fn apply_event(&mut self, ev: EventChoice, rng: &mut StdRng) {
        self.0.apply_event(ev, rng);
    }
    fn finish_and_check(&mut self) -> Vec<Violation> {
        TestTarget::heal_all(&mut self.0);
        let nodes = self.0.nodes();
        let neat = self.0.neat();
        neat.restart(&nodes);
        neat.sleep(D::QUIESCE_MS);
        self.0.check()
    }
    fn timeline(&mut self) -> neat::obs::Timeline {
        TestTarget::timeline(&mut self.0)
    }
}

/// Everything a run of the explorer decides, as text: the report, the
/// corpus size, the finds, and each find's violations replayed by `replay`.
fn verdicts(ex: &Exploration, replay: &mut dyn TestTarget) -> String {
    let mut out = format!(
        "{:?}\ncorpus {}\n{:?}\n",
        ex.report,
        ex.corpus.len(),
        ex.finds
    );
    for find in &ex.finds {
        replay.reset(find.trial_seed, true);
        out += &format!("{:?}\n", run_schedule(replay, &find.plan));
    }
    out
}

/// Explores `make()` with the `explore_cov` strategy and budget at every
/// seed, settled and fixed, and panics on the first seed they disagree.
fn agree<D: Deployment>(make: impl Fn() -> D, seeds: impl IntoIterator<Item = u64>) {
    let strategy = Strategy::coverage_guided(4);
    let (mut settled, mut fixed) = (make(), FixedQuiesce(make()));
    for seed in seeds {
        let a = explore_full(&mut settled, &strategy, 50, seed);
        let b = explore_full(&mut fixed, &strategy, 50, seed);
        let (a, b) = (verdicts(&a, &mut settled), verdicts(&b, &mut fixed));
        assert!(a == b, "seed {seed}: settled\n{a}\nfixed\n{b}");
    }
}

const SEEDS: std::ops::Range<u64> = 0..8;

fn repkv() -> repkv::RepkvTarget {
    repkv::RepkvTarget::new(repkv::Config::voltdb())
}

fn grid() -> gridstore::GridTarget {
    gridstore::GridTarget::new(gridstore::GridFlaws::flawed())
}

fn mq() -> mqueue::explorer::MqTarget {
    mqueue::explorer::MqTarget::new(mqueue::BrokerFlaws::flawed())
}

fn raft() -> consensus::RaftTarget {
    consensus::RaftTarget::new(consensus::RaftTweaks::default(), 3)
}

#[test]
fn settled_quiesce_keeps_every_verdict() {
    agree(repkv, SEEDS);
    agree(grid, SEEDS);
    agree(mq, SEEDS);
    agree(raft, SEEDS);
}

/// The sweep behind EXPERIMENTS.md "When a trial is over": seeds 0..4096
/// and the held-out 900,000..901,024, 1,024,000 trials a side. Takes
/// about two minutes in release on two cores:
///
/// ```text
/// cargo test --release --test settled_quiesce -- --ignored
/// ```
#[test]
#[ignore]
fn settled_quiesce_keeps_every_verdict_over_five_thousand_seeds() {
    let seeds = || (0..4096).chain(900_000..901_024);
    agree(repkv, seeds());
    agree(grid, seeds());
    agree(mq, seeds());
    agree(raft, seeds());
}
