//! `Spanned<T>`: a `TestTarget` that forwards every call to `T` unchanged
//! and records one span per call, so `neat::explore` can be attributed
//! from outside: everything inside an `explore_full` span that is not a
//! target call is the explorer's own time.

use neat::explore::{EventChoice, TestTarget};
use neat::obs::Timeline;
use neat::{DegradeSpec, PartitionSpec, Violation};
use rand::rngs::StdRng;
use simnet::{NodeId, Time};

use crate::trace::Tracer;

/// `reset` is cluster construction.
pub const RESET: &str = "target.reset";
/// `servers` / `leader` / `supported_events`.
pub const QUERY: &str = "target.query";
/// `inject` / `degrade` / `crash` / `restart` / `advance` / `heal_all` /
/// `apply_event`: running the schedule.
pub const RUN: &str = "target.run";
/// `finish_and_check`: heal + quiesce + checkers.
pub const FINISH_CHECK: &str = "target.finish_check";
pub const TIMELINE: &str = "target.timeline";

pub struct Spanned<'a, T: TestTarget + ?Sized> {
    pub inner: &'a mut T,
    pub tracer: &'a Tracer,
    /// Span `item`: which target this is.
    pub item: u64,
    /// When set, every trial's `(timeline, verdicts)` pair is kept here —
    /// the inputs `Signature::of` and the `obs` analyses are timed on.
    /// The clones land in the explorer's self time, so spans of a
    /// collecting run are not used for attribution.
    pub collect: Option<Vec<(Timeline, Vec<Violation>)>>,
    verdicts: Vec<Violation>,
}

impl<'a, T: TestTarget + ?Sized> Spanned<'a, T> {
    pub fn new(inner: &'a mut T, tracer: &'a Tracer, item: u64) -> Self {
        Spanned {
            inner,
            tracer,
            item,
            collect: None,
            verdicts: Vec::new(),
        }
    }
}

impl<T: TestTarget + ?Sized> TestTarget for Spanned<'_, T> {
    fn reset(&mut self, seed: u64, record: bool) {
        self.tracer
            .span(RESET, self.item, || self.inner.reset(seed, record));
    }
    fn servers(&self) -> Vec<NodeId> {
        self.tracer.span(QUERY, self.item, || self.inner.servers())
    }
    fn leader(&mut self) -> Option<NodeId> {
        self.tracer.span(QUERY, self.item, || self.inner.leader())
    }
    fn supported_events(&self) -> Vec<EventChoice> {
        self.tracer
            .span(QUERY, self.item, || self.inner.supported_events())
    }
    fn inject(&mut self, spec: &PartitionSpec) {
        self.tracer.span(RUN, self.item, || self.inner.inject(spec));
    }
    fn degrade(&mut self, spec: &DegradeSpec) {
        self.tracer
            .span(RUN, self.item, || self.inner.degrade(spec));
    }
    fn crash(&mut self, nodes: &[NodeId]) {
        self.tracer.span(RUN, self.item, || self.inner.crash(nodes));
    }
    fn restart(&mut self, nodes: &[NodeId]) {
        self.tracer
            .span(RUN, self.item, || self.inner.restart(nodes));
    }
    fn advance(&mut self, ms: Time) {
        self.tracer.span(RUN, self.item, || self.inner.advance(ms));
    }
    fn heal_all(&mut self) {
        self.tracer.span(RUN, self.item, || self.inner.heal_all());
    }
    fn apply_event(&mut self, ev: EventChoice, rng: &mut StdRng) {
        self.tracer
            .span(RUN, self.item, || self.inner.apply_event(ev, rng));
    }
    fn finish_and_check(&mut self) -> Vec<Violation> {
        let verdicts = self
            .tracer
            .span(FINISH_CHECK, self.item, || self.inner.finish_and_check());
        if self.collect.is_some() {
            self.verdicts.clone_from(&verdicts);
        }
        verdicts
    }
    fn timeline(&mut self) -> Timeline {
        let timeline = self
            .tracer
            .span(TIMELINE, self.item, || self.inner.timeline());
        if let Some(kept) = &mut self.collect {
            kept.push((timeline.clone(), std::mem::take(&mut self.verdicts)));
        }
        timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat::explore::{explore_full, Strategy};

    #[test]
    fn forwards_every_call_unchanged() {
        let strategy = Strategy::coverage_guided(4);
        let mut plain = repkv::RepkvTarget::new(repkv::Config::voltdb());
        let expected = explore_full(&mut plain, &strategy, 12, 8);

        let tracer = Tracer::default();
        let mut inner = repkv::RepkvTarget::new(repkv::Config::voltdb());
        let mut spanned = Spanned::new(&mut inner, &tracer, 0);
        spanned.collect = Some(Vec::new());
        let got = explore_full(&mut spanned, &strategy, 12, 8);

        assert_eq!(format!("{expected:?}"), format!("{got:?}"));
        assert!(
            !expected.finds.is_empty(),
            "the flawed target should yield finds"
        );
        let kept = spanned.collect.take().unwrap();
        assert_eq!(kept.len(), 12);
        let violating = kept.iter().filter(|(_, v)| !v.is_empty()).count();
        assert_eq!(violating, got.report.trials_with_violation);

        let spans = tracer.take();
        let count = |name| spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count(RESET), 12);
        assert_eq!(count(FINISH_CHECK), 12);
        assert_eq!(count(TIMELINE), 12);
        assert_eq!(count(QUERY), 36);
        assert!(count(RUN) >= 12);
    }
}
