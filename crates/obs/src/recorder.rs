//! The engine-side event sink.

use simnet::{trace::Trace, NodeId, Time};

use crate::{Counters, DegradeKind, Event, PartitionKind, Timeline};

/// Collects [`Event`]s and maintains [`Counters`] during a run: the one
/// record of its faults, crashes, restarts, operations and verdicts. The
/// only events it does not record itself are application notes, which
/// handlers emit into the world's [`simnet::trace::Trace`] and
/// [`Recorder::timeline`] folds in.
///
/// Mirrors the recording discipline of that trace: counters are always
/// maintained (they are cheap and the machine-readable exports want them
/// for every run), while the per-event stream is only kept when `enabled`
/// — which the engine ties to the world's `record_trace` flag, so one
/// switch governs both layers.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    events: Vec<Event>,
    counters: Counters,
}

impl Recorder {
    /// Creates a recorder; `enabled` gates per-event recording.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            // Pre-size the recording path; the disabled path never pushes
            // and so never pays for a buffer.
            events: Vec::with_capacity(if enabled { 256 } else { 0 }),
            counters: Counters::default(),
        }
    }

    /// Whether per-event recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Events recorded so far (empty unless enabled).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Counters maintained so far (live even when recording is off).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    fn push(&mut self, ev: Event) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// Records a partition install. Takes the groups by slice: the clone
    /// into the event only happens when recording is on.
    pub fn partition_installed(
        &mut self,
        at: Time,
        rule: u64,
        kind: PartitionKind,
        a: &[NodeId],
        b: &[NodeId],
        pairs: usize,
    ) {
        self.counters.partitions_installed += 1;
        if self.enabled {
            self.events.push(Event::PartitionInstalled {
                at,
                rule,
                kind,
                a: a.to_vec(),
                b: b.to_vec(),
                pairs,
            });
        }
    }

    /// Records a partition heal.
    pub fn partition_healed(&mut self, at: Time, rule: u64) {
        self.counters.heals += 1;
        self.push(Event::PartitionHealed { at, rule });
    }

    /// Records a gray-failure (degrade) install. Takes the groups by
    /// slice: the clone into the event only happens when recording is on.
    pub fn degrade_installed(
        &mut self,
        at: Time,
        rule: u64,
        kind: DegradeKind,
        a: &[NodeId],
        b: &[NodeId],
        pairs: usize,
    ) {
        self.counters.degrades_installed += 1;
        if self.enabled {
            self.events.push(Event::DegradeInstalled {
                at,
                rule,
                kind,
                a: a.to_vec(),
                b: b.to_vec(),
                pairs,
            });
        }
    }

    /// Records a gray-failure heal.
    pub fn degrade_healed(&mut self, at: Time, rule: u64) {
        self.counters.degrade_heals += 1;
        self.push(Event::DegradeHealed { at, rule });
    }

    /// Records an injected node crash.
    pub fn crashed(&mut self, at: Time, node: NodeId) {
        self.counters.crashes += 1;
        self.push(Event::Crashed { at, node });
    }

    /// Records an injected node restart.
    pub fn restarted(&mut self, at: Time, node: NodeId) {
        self.counters.restarts += 1;
        self.push(Event::Restarted { at, node });
    }

    /// Records one completed (or timed-out) client operation.
    pub fn op(
        &mut self,
        start: Time,
        end: Time,
        client: NodeId,
        key: String,
        desc: String,
        outcome: String,
    ) {
        self.op_with(start, end, client, || (key, desc, outcome));
    }

    /// Records one completed (or timed-out) client operation with its
    /// `(key, desc, outcome)` strings built lazily: the counter always
    /// bumps, but `details` only runs — and only then do the strings
    /// allocate — when per-event recording is on. This keeps the disabled
    /// path (the campaign's verdict-only sweeps) branch-cheap.
    pub fn op_with(
        &mut self,
        start: Time,
        end: Time,
        client: NodeId,
        details: impl FnOnce() -> (String, String, String),
    ) {
        self.counters.ops_ordered += 1;
        if self.enabled {
            let (key, desc, outcome) = details();
            self.events.push(Event::Op { start, end, client, key, desc, outcome });
        }
    }

    /// Records one checker verdict.
    pub fn verdict(&mut self, at: Time, kind: String, details: String) {
        self.verdict_with(at, || (kind, details));
    }

    /// Records one checker verdict with its `(kind, details)` strings
    /// built lazily — the deferred-allocation twin of [`Recorder::op_with`].
    pub fn verdict_with(&mut self, at: Time, details: impl FnOnce() -> (String, String)) {
        self.counters.verdicts += 1;
        if self.enabled {
            let (kind, details) = details();
            self.events.push(Event::Verdict { at, kind, details });
        }
    }

    /// Records a free-form note. Runs take theirs from the world's note log
    /// instead ([`Recorder::timeline`]); this is for timelines built by hand.
    pub fn note(&mut self, at: Time, node: NodeId, text: String) {
        self.push(Event::Note { at, node, text });
    }

    /// Records one workload-driver progress sample. The counter always
    /// bumps; the event only lands when per-event recording is on.
    pub fn load_sample(
        &mut self,
        at: Time,
        issued: u64,
        completed: u64,
        in_flight: u64,
        backlog: u64,
    ) {
        self.counters.load_samples += 1;
        self.push(Event::Load { at, issued, completed, in_flight, backlog });
    }

    /// Snapshots the recorder alone into a [`Timeline`] (events sorted by
    /// virtual time, insertion order preserved within a tick).
    pub fn snapshot(&self) -> Timeline {
        let mut events = self.events.clone();
        events.sort_by_key(Event::at); // stable: same-tick order is insertion order
        Timeline {
            events,
            counters: self.counters,
        }
    }

    /// Snapshots the recorder and folds in the run's [`simnet`] trace:
    /// application notes become [`Event::Note`]s and the fabric counters
    /// fill [`Counters::events_simulated`] / [`Counters::messages_dropped`].
    pub fn timeline(&self, trace: &Trace) -> Timeline {
        // One vector, one stable sort: recorder events first, then the
        // trace's notes, so within a tick recorder events precede notes and
        // each keeps its insertion order.
        let notes = if self.enabled { trace.notes() } else { &[] };
        let mut events = Vec::with_capacity(self.events.len() + notes.len());
        events.extend_from_slice(&self.events);
        events.extend(notes.iter().map(|n| Event::Note {
            at: n.at,
            node: n.node,
            text: n.text.clone(),
        }));
        events.sort_by_key(Event::at);
        let mut t = Timeline {
            events,
            counters: self.counters,
        };
        let c = &trace.counters;
        t.counters.events_simulated = c.delivered + c.timers_fired;
        t.counters.messages_dropped =
            c.dropped_partition + c.dropped_flaky + c.dropped_degraded + c.dropped_dead;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_live_even_when_disabled() {
        let mut r = Recorder::new(false);
        r.partition_installed(1, 0, PartitionKind::Complete, &[NodeId(0)], &[NodeId(1)], 2);
        r.op(2, 3, NodeId(0), "k".into(), "Read".into(), "Timeout".into());
        r.op_with(4, 5, NodeId(1), || unreachable!("disabled path must not build strings"));
        assert!(r.events().is_empty(), "recording gate ignored");
        assert_eq!(r.counters().partitions_installed, 1);
        assert_eq!(r.counters().ops_ordered, 2);
    }

    #[test]
    fn snapshot_orders_by_virtual_time() {
        let mut r = Recorder::new(true);
        r.verdict(50, "data loss".into(), "k".into());
        r.partition_installed(10, 0, PartitionKind::Complete, &[NodeId(0)], &[NodeId(1)], 2);
        let t = r.snapshot();
        assert_eq!(t.events[0].at(), 10);
        assert_eq!(t.events[1].at(), 50);
    }

    /// Notes at boot and again when a 10 ms timer fires.
    struct Noter;
    impl simnet::Application for Noter {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut simnet::Ctx<'_, ()>) {
            ctx.note(|| "boot".to_string());
            ctx.set_timer(10, 0);
        }
        fn on_message(&mut self, _: &mut simnet::Ctx<'_, ()>, _: NodeId, _: ()) {}
        fn on_timer(&mut self, ctx: &mut simnet::Ctx<'_, ()>, _: simnet::TimerId, _: u64) {
            ctx.note(|| "tick".to_string());
        }
    }

    #[test]
    fn timeline_sorts_notes_behind_same_tick_recorder_events() {
        let mut w = simnet::WorldBuilder::new(1).record_trace(true).build(1, |_| Noter);
        w.run_for(10);
        let mut r = Recorder::new(true);
        r.verdict(10, "late".into(), String::new());
        r.verdict(0, "early".into(), String::new());
        let labels: Vec<String> = r
            .timeline(w.trace())
            .events
            .iter()
            .map(|e| match e {
                Event::Verdict { at, kind, .. } => format!("{at} verdict {kind}"),
                Event::Note { at, text, .. } => format!("{at} note {text}"),
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            labels,
            ["0 verdict early", "0 note boot", "10 verdict late", "10 note tick"]
        );
        assert!(
            Recorder::new(false).timeline(w.trace()).events.is_empty(),
            "a disabled recorder must not pick up trace notes"
        );
    }
}
