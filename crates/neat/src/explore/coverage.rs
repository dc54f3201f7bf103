//! Coverage signatures and the AFL-style novelty corpus.
//!
//! Each trial's [`obs::Timeline`] is folded into a compact [`Signature`]
//! describing *where the run went*: how many fault and degrade windows
//! opened (and stayed open), how many operations were in flight during a
//! fault, which key first diverged, how the operation outcomes bucketed,
//! and which verdict kinds the checkers produced. Two runs with the same
//! signature exercised the system the same way; a run with a fresh
//! signature reached a new state and its schedule is worth mutating
//! further — the feedback loop of coverage-guided fuzzing, transplanted
//! onto deterministic fault injection.

#![deny(missing_docs)]

use rand::{rngs::StdRng, Rng};

use crate::checkers::{Violation, ViolationKind};

use super::schedule::SchedulePlan;

/// Log2 bucket: 0 → 0, 1 → 1, 2–3 → 2, 4–7 → 3, … Coarse on purpose —
/// signatures must collapse runs that differ only in noise.
fn bucket(n: u64) -> u8 {
    match n {
        0 => 0,
        _ => (64 - n.leading_zeros()) as u8,
    }
}

/// A compact descriptor of one trial's observed behaviour, extracted from
/// its [`obs::Timeline`] and checker verdicts.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Signature {
    /// Partition windows opened during the run.
    pub partition_windows: usize,
    /// Degrade (gray-failure) windows opened during the run.
    pub degrade_windows: usize,
    /// Fault windows (either kind) still open when the run ended.
    pub unhealed: usize,
    /// Log2 bucket of client operations in flight during a fault window.
    pub ops_in_flight: u8,
    /// Key of the first operation blamed by a verdict, if any.
    pub divergent_key: Option<String>,
    /// Log2 buckets of operation outcomes `(ok, fail, timeout)`.
    pub outcomes: (u8, u8, u8),
    /// Log2 bucket of node crashes injected.
    pub crashes: u8,
    /// Log2 bucket of node restarts injected.
    pub restarts: u8,
    /// Distinct verdict kinds, sorted.
    pub kinds: Vec<ViolationKind>,
}

impl Signature {
    /// Folds a trial's timeline and verdicts into a signature.
    ///
    /// Works on unrecorded timelines too (the counters are always live),
    /// but the window/in-flight/divergence dimensions only discriminate
    /// when the target was reset with recording on.
    pub fn of(timeline: &obs::Timeline, violations: &[Violation]) -> Self {
        let faults = timeline.fault_windows();
        let degrades = timeline.degrade_windows();
        let unhealed = faults
            .iter()
            .chain(degrades.iter())
            .filter(|w| w.2.is_none())
            .count();
        let (ok, fail, timeout) = timeline.op_outcome_counts();
        let divergent_key = timeline.first_divergent_op().and_then(|e| match e {
            obs::Event::Op { key, .. } => Some(key.clone()),
            _ => None,
        });
        let mut kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
        kinds.sort();
        kinds.dedup();
        Signature {
            partition_windows: faults.len(),
            degrade_windows: degrades.len(),
            unhealed,
            ops_in_flight: bucket(timeline.ops_in_flight().len() as u64),
            divergent_key,
            outcomes: (bucket(ok), bucket(fail), bucket(timeout)),
            crashes: bucket(timeline.counters.crashes),
            restarts: bucket(timeline.counters.restarts),
            kinds,
        }
    }
}

/// The novelty corpus: schedules that reached a signature no earlier
/// trial reached, in discovery order.
///
/// Novelty is judged by the caller — [`explore_full`] against its
/// report's signature set — so the corpus keeps only the entries.
/// Discovery order is part of the contract — merging shard corpora folds
/// entries in shard order, so a merged corpus is a pure function of the
/// shard results regardless of how many worker threads produced them.
///
/// [`explore_full`]: super::explore_full
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    entries: Vec<(SchedulePlan, Signature)>,
}

impl Corpus {
    /// Keeps `plan` as a mutation seed for `sig`, a signature the caller
    /// has judged new.
    pub(super) fn keep(&mut self, plan: SchedulePlan, sig: Signature) {
        self.entries.push((plan, sig));
    }

    /// Number of schedules kept (equals the number of distinct signatures).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no novel schedule has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The kept `(schedule, signature)` pairs, in discovery order.
    pub fn entries(&self) -> &[(SchedulePlan, Signature)] {
        &self.entries
    }

    /// Picks one kept schedule uniformly, favouring none — the mutation
    /// pressure comes from novelty alone, as in AFL's simplest queue.
    pub fn pick(&self, rng: &mut StdRng) -> Option<&SchedulePlan> {
        (!self.entries.is_empty()).then(|| &self.entries[rng.gen_range(0..self.entries.len())].0)
    }

    /// Folds `other` into `self` in `other`'s discovery order, skipping
    /// every entry whose signature `self` already holds; the result is
    /// deterministic for a fixed sequence of merges.
    pub fn merge(&mut self, other: &Corpus) {
        for (plan, sig) in &other.entries {
            if !self.entries.iter().any(|(_, held)| held == sig) {
                self.keep(plan.clone(), sig.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sig(kinds: Vec<ViolationKind>, partitions: usize) -> Signature {
        Signature {
            partition_windows: partitions,
            degrade_windows: 0,
            unhealed: 0,
            ops_in_flight: 0,
            divergent_key: None,
            outcomes: (0, 0, 0),
            crashes: 0,
            restarts: 0,
            kinds,
        }
    }

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket(0), 0);
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(2), 2);
        assert_eq!(bucket(3), 2);
        assert_eq!(bucket(4), 3);
        assert_eq!(bucket(7), 3);
        assert_eq!(bucket(8), 4);
    }

    #[test]
    fn corpus_keeps_only_novel_signatures() {
        let plan = SchedulePlan::default();
        let mut shard = Corpus::default();
        shard.keep(plan.clone(), sig(vec![], 1));
        shard.keep(plan.clone(), sig(vec![], 2));
        shard.keep(plan.clone(), sig(vec![ViolationKind::StaleRead], 2));
        let mut corpus = Corpus::default();
        corpus.merge(&shard);
        corpus.merge(&shard);
        assert_eq!(corpus.len(), 3, "a held signature is never kept twice");
    }

    #[test]
    fn merge_is_a_deterministic_fold() {
        let plan = SchedulePlan::default();
        let mut a = Corpus::default();
        a.keep(plan.clone(), sig(vec![], 1));
        let mut b = Corpus::default();
        b.keep(plan.clone(), sig(vec![], 1));
        b.keep(plan.clone(), sig(vec![], 2));
        let mut merged1 = Corpus::default();
        merged1.merge(&a);
        merged1.merge(&b);
        let mut merged2 = Corpus::default();
        merged2.merge(&a);
        merged2.merge(&b);
        assert_eq!(format!("{merged1:?}"), format!("{merged2:?}"));
        assert_eq!(merged1.len(), 2, "the duplicate signature merged away");
    }

    #[test]
    fn pick_returns_none_on_empty() {
        let corpus = Corpus::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(corpus.pick(&mut rng).is_none());
    }

    #[test]
    fn signature_of_empty_timeline_reflects_verdicts_only() {
        let violations = vec![Violation::new(ViolationKind::DataLoss, "k1 gone")];
        let s = Signature::of(&obs::Timeline::default(), &violations);
        assert_eq!(s.kinds, vec![ViolationKind::DataLoss]);
        assert_eq!(s.partition_windows, 0);
    }
}
