//! The control-plane log and the always-on counters.
//!
//! [`Counters`] are always maintained and carry every per-message and
//! per-timer total (sent, delivered, dropped by cause, duplicated, timers
//! fired). The event log is a *control-plane* log: application notes, node
//! crashes and restarts, and block/degrade rule installs and removals —
//! the events its readers ([`Trace::summary`], `obs`) read. It is off by
//! default and enabled with [`crate::WorldBuilder::record_trace`]; the
//! figure reproductions use it to print manifestation sequences like the
//! paper's Figures 2, 3, 5, and 6. Individual sends, deliveries, drops and
//! timer fires are counted, never logged, so a recorded run pays nothing
//! per message.

#![deny(missing_docs)]

use crate::{
    event::Time,
    net::{BlockRuleId, DegradeRuleId},
    NodeId,
};

/// One entry of the control-plane log: a note, a crash or restart, or a
/// fault rule going in or out. Per-message and per-timer activity is in
/// [`Counters`] only.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A node crashed.
    Crashed {
        /// Virtual crash time.
        at: Time,
        /// The node that went down.
        node: NodeId,
    },
    /// A node restarted.
    Restarted {
        /// Virtual restart time.
        at: Time,
        /// The node that came back.
        node: NodeId,
    },
    /// A block rule (partition) was installed.
    RuleInstalled {
        /// Virtual install time.
        at: Time,
        /// Handle of the installed rule.
        rule: BlockRuleId,
        /// Directed (from, to) pairs the rule blocks.
        pairs: usize,
    },
    /// A block rule was removed (partition healed).
    RuleRemoved {
        /// Virtual removal time.
        at: Time,
        /// Handle of the removed rule.
        rule: BlockRuleId,
    },
    /// A degrade rule (gray failure) was installed.
    DegradeRuleInstalled {
        /// Virtual install time.
        at: Time,
        /// Handle of the installed rule.
        rule: DegradeRuleId,
        /// Directed (from, to) pairs the rule degrades.
        pairs: usize,
    },
    /// A degrade rule was removed (link restored).
    DegradeRuleRemoved {
        /// Virtual removal time.
        at: Time,
        /// Handle of the removed rule.
        rule: DegradeRuleId,
    },
    /// A free-form annotation emitted by an application via
    /// [`crate::Ctx::note`].
    Note {
        /// Virtual time of the note.
        at: Time,
        /// The node that emitted it.
        node: NodeId,
        /// The annotation text.
        text: String,
    },
}

impl TraceEvent {
    /// Virtual time of the event.
    pub fn at(&self) -> Time {
        match self {
            TraceEvent::Crashed { at, .. }
            | TraceEvent::Restarted { at, .. }
            | TraceEvent::RuleInstalled { at, .. }
            | TraceEvent::RuleRemoved { at, .. }
            | TraceEvent::DegradeRuleInstalled { at, .. }
            | TraceEvent::DegradeRuleRemoved { at, .. }
            | TraceEvent::Note { at, .. } => *at,
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Crashed { at, node } => write!(f, "[{at:>6}] {node}  CRASH"),
            TraceEvent::Restarted { at, node } => write!(f, "[{at:>6}] {node}  RESTART"),
            TraceEvent::RuleInstalled { at, rule, pairs } => {
                write!(f, "[{at:>6}] net  install rule {} ({pairs} pairs)", rule.0)
            }
            TraceEvent::RuleRemoved { at, rule } => {
                write!(f, "[{at:>6}] net  heal rule {}", rule.0)
            }
            TraceEvent::DegradeRuleInstalled { at, rule, pairs } => {
                write!(
                    f,
                    "[{at:>6}] net  degrade rule {} ({pairs} pairs)",
                    rule.0
                )
            }
            TraceEvent::DegradeRuleRemoved { at, rule } => {
                write!(f, "[{at:>6}] net  restore rule {}", rule.0)
            }
            TraceEvent::Note { at, node, text } => write!(f, "[{at:>6}] {node}  {text}"),
        }
    }
}

/// Aggregate counters, always maintained.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counters {
    /// Messages that entered the fabric.
    pub sent: u64,
    /// Messages that reached their destination handler.
    pub delivered: u64,
    /// Messages dropped by an active block rule.
    pub dropped_partition: u64,
    /// Messages dropped by the flaky-link model.
    pub dropped_flaky: u64,
    /// Messages dropped by a per-link degrade rule.
    pub dropped_degraded: u64,
    /// Messages duplicated by a per-link degrade rule.
    pub duplicated: u64,
    /// Messages dropped because an endpoint was down.
    pub dropped_dead: u64,
    /// Timers that fired at live nodes.
    pub timers_fired: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Node restarts.
    pub restarts: u64,
}

/// The execution trace: counters plus (optionally) the control-plane log.
#[derive(Debug, Default)]
pub struct Trace {
    /// Aggregate counters, live even when event recording is off.
    pub counters: Counters,
    recording: bool,
    events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn new(recording: bool) -> Self {
        Self {
            counters: Counters::default(),
            recording,
            // Sized so no campaign arm regrows the log: over twelve seeds
            // (0..12, the breadth `neat::cluster::boot`'s queue hint was
            // measured at) the deepest arm, `arbiter_thrashing/flawed`, logs
            // 93 control events; the median arm logs 6 and an explorer trial
            // at most 14. The non-recording path never pushes, so it gets no
            // buffer at all.
            events: Vec::with_capacity(if recording { 96 } else { 0 }),
        }
    }

    /// Whether the control-plane log is being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.recording {
            self.events.push(ev);
        }
    }

    /// Recorded events (empty unless recording was enabled).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the log, one event per line — a compact manifestation
    /// sequence like the paper's figure captions.
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for e in &self.events {
            // Writing into a String cannot fail.
            let _ = writeln!(out, "{e}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_gate_respected() {
        let mut t = Trace::new(false);
        t.push(TraceEvent::Crashed {
            at: 1,
            node: NodeId(0),
        });
        assert!(t.events().is_empty());

        let mut t = Trace::new(true);
        t.push(TraceEvent::Crashed {
            at: 1,
            node: NodeId(0),
        });
        assert_eq!(t.events().len(), 1);
    }

    #[test]
    fn summary_renders_every_event_on_its_own_line() {
        let mut t = Trace::new(true);
        t.push(TraceEvent::RuleInstalled {
            at: 12,
            rule: BlockRuleId(0),
            pairs: 4,
        });
        t.push(TraceEvent::Note {
            at: 30,
            node: NodeId(1),
            text: "elected leader".into(),
        });
        t.push(TraceEvent::Crashed {
            at: 31,
            node: NodeId(2),
        });
        assert_eq!(
            t.summary(),
            "[    12] net  install rule 0 (4 pairs)\n\
             [    30] n1  elected leader\n\
             [    31] n2  CRASH\n"
        );
        assert_eq!(Trace::new(true).summary(), "");
    }

    #[test]
    fn degrade_events_render_install_and_restore() {
        let inst = TraceEvent::DegradeRuleInstalled {
            at: 5,
            rule: DegradeRuleId(0),
            pairs: 2,
        };
        assert_eq!(format!("{inst}"), "[     5] net  degrade rule 0 (2 pairs)");

        let mut t = Trace::new(true);
        t.push(inst);
        t.push(TraceEvent::DegradeRuleRemoved {
            at: 40,
            rule: DegradeRuleId(0),
        });
        let s = t.summary();
        assert!(s.contains("degrade rule 0"));
        assert!(s.contains("restore rule 0"));
    }

    #[test]
    fn at_returns_event_time() {
        let ev = TraceEvent::Note {
            at: 99,
            node: NodeId(2),
            text: "hi".into(),
        };
        assert_eq!(ev.at(), 99);
    }
}
