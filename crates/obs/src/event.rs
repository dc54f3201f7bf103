//! Typed observability events and the aggregate counters they maintain.

use simnet::{NodeId, Time};

use crate::group;

/// The three partition types studied by the paper (Figure 1 / Table 6).
///
/// The one definition of the taxonomy: `obs` sits below the engine so the
/// engine can emit into it, and `neat` re-exports it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PartitionKind {
    /// The cluster is split into two disconnected halves (Figure 1.a).
    Complete,
    /// Two groups are disconnected while a third group still reaches both
    /// (Figure 1.b).
    Partial,
    /// Traffic flows in one direction only (Figure 1.c).
    Simplex,
}

impl PartitionKind {
    /// Every kind, in declaration order.
    pub const ALL: [PartitionKind; 3] =
        [PartitionKind::Complete, PartitionKind::Partial, PartitionKind::Simplex];
}

impl std::fmt::Display for PartitionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PartitionKind::Complete => "complete",
            PartitionKind::Partial => "partial",
            PartitionKind::Simplex => "simplex",
        })
    }
}

/// The gray-failure taxonomy buckets (the paper's §2.1 flaky-link causes),
/// defined here beside [`PartitionKind`] and re-exported by `neat`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DegradeKind {
    /// Both directions between two groups are degraded — the "one flaky
    /// NIC" cause behind most partial partitions.
    GrayPartial,
    /// One direction only is degraded; replies still flow cleanly.
    GraySimplex,
    /// The degradation alternates between active and healthy windows
    /// (`flap_period` of the underlying rule is nonzero).
    Flapping,
}

impl std::fmt::Display for DegradeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradeKind::GrayPartial => "gray-partial",
            DegradeKind::GraySimplex => "gray-simplex",
            DegradeKind::Flapping => "flapping",
        })
    }
}

/// One observability event, stamped with virtual time.
///
/// Everything a forensic timeline needs to explain a violation: the faults
/// the nemesis injected, the client operations the engine globally
/// ordered, the verdicts the checkers returned, and any free-form notes
/// the application emitted through [`simnet::Ctx::note`].
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// A partition fault was installed.
    PartitionInstalled {
        /// Virtual time of installation.
        at: Time,
        /// Block-rule id, matching [`Event::PartitionHealed::rule`].
        rule: u64,
        /// Taxonomy bucket of the fault.
        kind: PartitionKind,
        /// First group (the `src` group for simplex faults).
        a: Vec<NodeId>,
        /// Second group (the `dst` group for simplex faults).
        b: Vec<NodeId>,
        /// Directed (from, to) pairs the fault blocks.
        pairs: usize,
    },
    /// A partition fault was healed.
    PartitionHealed {
        /// Virtual time of the heal.
        at: Time,
        /// Block-rule id of the partition that was removed.
        rule: u64,
    },
    /// A gray-failure (link degradation) fault was installed.
    DegradeInstalled {
        /// Virtual time of installation.
        at: Time,
        /// Degrade-rule id, matching [`Event::DegradeHealed::rule`].
        /// A separate id namespace from partition block rules.
        rule: u64,
        /// Taxonomy bucket of the gray failure.
        kind: DegradeKind,
        /// First group (the `src` group for simplex degradations).
        a: Vec<NodeId>,
        /// Second group (the `dst` group for simplex degradations).
        b: Vec<NodeId>,
        /// Directed (from, to) pairs the rule degrades.
        pairs: usize,
    },
    /// A gray-failure fault was healed.
    DegradeHealed {
        /// Virtual time of the heal.
        at: Time,
        /// Degrade-rule id of the rule that was removed.
        rule: u64,
    },
    /// A node was crashed by the test.
    Crashed {
        /// Virtual time of the crash.
        at: Time,
        /// The node that went down.
        node: NodeId,
    },
    /// A crashed node was restarted by the test.
    Restarted {
        /// Virtual time of the restart.
        at: Time,
        /// The node that came back.
        node: NodeId,
    },
    /// A client operation ran to completion (or timed out).
    Op {
        /// Virtual time of invocation.
        start: Time,
        /// Virtual time of completion (for timeouts: when the client gave up).
        end: Time,
        /// The client node that issued the operation.
        client: NodeId,
        /// The key/resource the operation addressed (`Op::key()` upstream).
        key: String,
        /// Rendered operation, e.g. `Write { key: "x", val: 1 }`.
        desc: String,
        /// Rendered outcome, e.g. `Ok(None)` or `Timeout`.
        outcome: String,
    },
    /// A checker returned a violation.
    Verdict {
        /// Virtual time the verdict was recorded (end of the run).
        at: Time,
        /// Violation kind in the paper's vocabulary, e.g. `data loss`.
        kind: String,
        /// Human-readable evidence: which key/value/operation, and why.
        details: String,
    },
    /// A free-form application annotation, merged from the simnet trace.
    Note {
        /// Virtual time of the note.
        at: Time,
        /// The node that emitted it.
        node: NodeId,
        /// The annotation text.
        text: String,
    },
    /// A workload-driver progress sample: how far the load generator has
    /// gotten and how much work the system is holding.
    Load {
        /// Virtual time of the sample.
        at: Time,
        /// Operations the driver has issued so far.
        issued: u64,
        /// Operations that have completed (any outcome).
        completed: u64,
        /// Issued minus completed at the sample point.
        in_flight: u64,
        /// Issued ops that ran behind their scheduled arrival so far.
        backlog: u64,
    },
}

impl Event {
    /// Virtual time of the event (invocation time for operations).
    pub fn at(&self) -> Time {
        match self {
            Event::PartitionInstalled { at, .. }
            | Event::PartitionHealed { at, .. }
            | Event::DegradeInstalled { at, .. }
            | Event::DegradeHealed { at, .. }
            | Event::Crashed { at, .. }
            | Event::Restarted { at, .. }
            | Event::Verdict { at, .. }
            | Event::Note { at, .. }
            | Event::Load { at, .. } => *at,
            Event::Op { start, .. } => *start,
        }
    }

    /// Stable JSON `type` tag of the event.
    pub fn label(&self) -> &'static str {
        match self {
            Event::PartitionInstalled { .. } => "partition",
            Event::PartitionHealed { .. } => "heal",
            Event::DegradeInstalled { .. } => "degrade",
            Event::DegradeHealed { .. } => "degrade-heal",
            Event::Crashed { .. } => "crash",
            Event::Restarted { .. } => "restart",
            Event::Op { .. } => "op",
            Event::Verdict { .. } => "verdict",
            Event::Note { .. } => "note",
            Event::Load { .. } => "load",
        }
    }
}

impl std::fmt::Display for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::PartitionInstalled { at, rule, kind, a, b, pairs } => {
                let sep = if *kind == PartitionKind::Simplex { "->" } else { "|" };
                write!(
                    f,
                    "[{at:>6}] fault  install {kind} partition {} {sep} {} (rule {rule}, {pairs} pairs)",
                    group(a),
                    group(b),
                )
            }
            Event::PartitionHealed { at, rule } => {
                write!(f, "[{at:>6}] fault  heal rule {rule}")
            }
            Event::DegradeInstalled { at, rule, kind, a, b, pairs } => {
                let sep = if *kind == DegradeKind::GraySimplex { "~>" } else { "~" };
                write!(
                    f,
                    "[{at:>6}] fault  degrade {kind} {} {sep} {} (rule {rule}, {pairs} pairs)",
                    group(a),
                    group(b),
                )
            }
            Event::DegradeHealed { at, rule } => {
                write!(f, "[{at:>6}] fault  restore degrade rule {rule}")
            }
            Event::Crashed { at, node } => write!(f, "[{at:>6}] fault  crash {node}"),
            Event::Restarted { at, node } => write!(f, "[{at:>6}] fault  restart {node}"),
            Event::Op { start, end, client, desc, outcome, .. } => {
                write!(f, "[{start:>6}..{end:>6}] {client} {desc} -> {outcome}")
            }
            Event::Verdict { at, kind, details } => {
                write!(f, "[{at:>6}] check  VIOLATION {kind}: {details}")
            }
            Event::Note { at, node, text } => write!(f, "[{at:>6}] {node}  {text}"),
            Event::Load { at, issued, completed, in_flight, backlog } => {
                write!(
                    f,
                    "[{at:>6}] load   issued={issued} completed={completed} in-flight={in_flight} backlog={backlog}"
                )
            }
        }
    }
}

/// Aggregate counters carried by every [`crate::Timeline`].
///
/// Always maintained, even when per-event recording is off — the bench
/// and the machine-readable exports report them for unrecorded runs too.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counters {
    /// Discrete events simulated (message deliveries plus timer firings),
    /// copied from the [`simnet::trace::Counters`] of the run.
    pub events_simulated: u64,
    /// Messages the fabric dropped (partition + flaky link + degraded
    /// link + dead node), summed from the [`simnet::trace::Counters`] of
    /// the run.
    pub messages_dropped: u64,
    /// Client operations globally ordered through the engine.
    pub ops_ordered: u64,
    /// Partition faults installed.
    pub partitions_installed: u64,
    /// Partition faults healed.
    pub heals: u64,
    /// Gray-failure (degrade) faults installed.
    pub degrades_installed: u64,
    /// Gray-failure faults healed.
    pub degrade_heals: u64,
    /// Node crashes injected.
    pub crashes: u64,
    /// Node restarts injected.
    pub restarts: u64,
    /// Checker verdicts recorded.
    pub verdicts: u64,
    /// Workload-driver progress samples recorded.
    pub load_samples: u64,
}

impl Counters {
    /// One-line rendering for reports:
    /// `events=N dropped=N ops=N partitions=N heals=N degrades=N degrade-heals=N crashes=N restarts=N verdicts=N load-samples=N`.
    pub fn render(&self) -> String {
        format!(
            "events={} dropped={} ops={} partitions={} heals={} degrades={} degrade-heals={} crashes={} restarts={} verdicts={} load-samples={}",
            self.events_simulated,
            self.messages_dropped,
            self.ops_ordered,
            self.partitions_installed,
            self.heals,
            self.degrades_installed,
            self.degrade_heals,
            self.crashes,
            self.restarts,
            self.verdicts,
            self.load_samples,
        )
    }

    /// Adds `other` into `self` (for campaign-wide aggregates).
    pub fn merge(&mut self, other: &Counters) {
        self.events_simulated += other.events_simulated;
        self.messages_dropped += other.messages_dropped;
        self.ops_ordered += other.ops_ordered;
        self.partitions_installed += other.partitions_installed;
        self.heals += other.heals;
        self.degrades_installed += other.degrades_installed;
        self.degrade_heals += other.degrade_heals;
        self.crashes += other.crashes;
        self.restarts += other.restarts;
        self.verdicts += other.verdicts;
        self.load_samples += other.load_samples;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let ev = Event::PartitionInstalled {
            at: 600,
            rule: 0,
            kind: PartitionKind::Partial,
            a: vec![NodeId(0), NodeId(3)],
            b: vec![NodeId(1)],
            pairs: 4,
        };
        assert_eq!(
            ev.to_string(),
            "[   600] fault  install partial partition n0+n3 | n1 (rule 0, 4 pairs)"
        );
        let op = Event::Op {
            start: 700,
            end: 705,
            client: NodeId(1),
            key: "k".into(),
            desc: "Read { key: \"k\" }".into(),
            outcome: "Ok(None)".into(),
        };
        assert_eq!(op.to_string(), "[   700..   705] n1 Read { key: \"k\" } -> Ok(None)");
    }

    #[test]
    fn degrade_events_display_and_label() {
        let ev = Event::DegradeInstalled {
            at: 400,
            rule: 1,
            kind: DegradeKind::GrayPartial,
            a: vec![NodeId(0)],
            b: vec![NodeId(2)],
            pairs: 2,
        };
        assert_eq!(
            ev.to_string(),
            "[   400] fault  degrade gray-partial n0 ~ n2 (rule 1, 2 pairs)"
        );
        assert_eq!(ev.label(), "degrade");
        let simplex = Event::DegradeInstalled {
            at: 1,
            rule: 0,
            kind: DegradeKind::GraySimplex,
            a: vec![NodeId(1)],
            b: vec![NodeId(0)],
            pairs: 1,
        };
        assert!(simplex.to_string().contains("n1 ~> n0"));
        let heal = Event::DegradeHealed { at: 900, rule: 1 };
        assert_eq!(heal.to_string(), "[   900] fault  restore degrade rule 1");
        assert_eq!(heal.label(), "degrade-heal");
        assert_eq!(heal.at(), 900);
    }

    #[test]
    fn simplex_renders_directionally() {
        let ev = Event::PartitionInstalled {
            at: 5,
            rule: 2,
            kind: PartitionKind::Simplex,
            a: vec![NodeId(0)],
            b: vec![NodeId(1)],
            pairs: 1,
        };
        assert!(ev.to_string().contains("n0 -> n1"));
    }

    #[test]
    fn at_uses_invocation_time_for_ops() {
        let op = Event::Op {
            start: 10,
            end: 99,
            client: NodeId(0),
            key: String::new(),
            desc: String::new(),
            outcome: String::new(),
        };
        assert_eq!(op.at(), 10);
        assert_eq!(op.label(), "op");
    }

    #[test]
    fn load_event_display_and_label() {
        let ev = Event::Load { at: 1200, issued: 40, completed: 37, in_flight: 3, backlog: 5 };
        assert_eq!(
            ev.to_string(),
            "[  1200] load   issued=40 completed=37 in-flight=3 backlog=5"
        );
        assert_eq!(ev.label(), "load");
        assert_eq!(ev.at(), 1200);
    }

    #[test]
    fn counters_merge_and_render() {
        let mut a = Counters { ops_ordered: 2, verdicts: 1, ..Counters::default() };
        let b = Counters { ops_ordered: 3, crashes: 1, ..Counters::default() };
        a.merge(&b);
        assert_eq!(a.ops_ordered, 5);
        assert_eq!(a.crashes, 1);
        assert!(a.render().contains("ops=5"));
        assert!(a.render().contains("verdicts=1"));
    }
}
