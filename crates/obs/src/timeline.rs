//! An ordered snapshot of one run's observability stream.

use simnet::{NodeId, Time};
use study::json::push_json_str;

use crate::{Counters, Event};

/// The events of one run in virtual-time order, plus aggregate counters.
///
/// `Timeline` derives `Debug` and `PartialEq` so outcome structs that
/// embed one fold the whole event stream into their compact `Debug`
/// execution fingerprints — the double-run auditor then enforces
/// byte-identity of traces, not just of verdicts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Events in virtual-time order (empty unless recording was enabled).
    pub events: Vec<Event>,
    /// Aggregate counters, live even for unrecorded runs.
    pub counters: Counters,
}

/// The lifetime of one installed partition: `(rule, install, heal)`.
/// `heal` is `None` when the fault was still active at the end of the run.
pub type FaultWindow = (u64, Time, Option<Time>);

impl Timeline {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One [`Event`] display line per event.
    pub fn render(&self) -> String {
        self.events.iter().map(|e| format!("{e}\n")).collect()
    }

    /// The lifetime of every partition installed during the run, in
    /// install order.
    pub fn fault_windows(&self) -> Vec<FaultWindow> {
        self.windows(false)
    }

    /// The lifetime of every gray-failure (degrade) rule installed during
    /// the run, in install order. Degrade rules live in their own id
    /// namespace, so these windows never alias partition windows.
    pub fn degrade_windows(&self) -> Vec<FaultWindow> {
        self.windows(true)
    }

    /// Pairs each install of one rule namespace (partitions, or degrades
    /// when `gray`) with the first later heal of the same rule.
    fn windows(&self, gray: bool) -> Vec<FaultWindow> {
        let mut windows: Vec<FaultWindow> = Vec::new();
        for ev in &self.events {
            match (ev, gray) {
                (Event::PartitionInstalled { at, rule, .. }, false)
                | (Event::DegradeInstalled { at, rule, .. }, true) => {
                    windows.push((*rule, *at, None));
                }
                (Event::PartitionHealed { at, rule }, false)
                | (Event::DegradeHealed { at, rule }, true) => {
                    if let Some(w) = windows
                        .iter_mut()
                        .find(|w| w.0 == *rule && w.2.is_none())
                    {
                        w.2 = Some(*at);
                    }
                }
                _ => {}
            }
        }
        windows
    }

    /// Client operations whose `[start, end]` interval overlaps at least
    /// one fault window (partition or degrade) — the "ops in flight" of
    /// the forensic narrative.
    pub fn ops_in_flight(&self) -> Vec<&Event> {
        let mut windows = self.fault_windows();
        windows.extend(self.degrade_windows());
        self.events
            .iter()
            .filter(|e| match e {
                Event::Op { start, end, .. } => windows
                    .iter()
                    .any(|(_, from, to)| *start <= to.unwrap_or(Time::MAX) && *end >= *from),
                _ => false,
            })
            .collect()
    }

    /// The first operation whose key a verdict's evidence names, in quotes
    /// the way the checkers quote keys (`"k"`) — a heuristic for the "first
    /// divergent read" of the paper's listings. Matching the quoted key
    /// keeps a short key such as `a` from being blamed for occurring inside
    /// a word of the evidence. `None` when there is no verdict or no op
    /// touches a named key.
    pub fn first_divergent_op(&self) -> Option<&Event> {
        let evidence: Vec<&str> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Verdict { details, .. } => Some(details.as_str()),
                _ => None,
            })
            .collect();
        if evidence.is_empty() {
            return None;
        }
        self.events.iter().find(|e| match e {
            Event::Op { key, .. } if !key.is_empty() => {
                let quoted = format!("\"{key}\"");
                evidence.iter().any(|d| d.contains(&quoted))
            }
            _ => false,
        })
    }

    /// Exact nearest-rank latency percentiles `(p50, p99, p999, max)` over
    /// the recorded client operations (`end - start` per [`Event::Op`]).
    /// `None` when no ops were recorded.
    pub fn latency_percentiles(&self) -> Option<(Time, Time, Time, Time)> {
        let mut lats: Vec<Time> = self
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Op { start, end, .. } => Some(end.saturating_sub(*start)),
                _ => None,
            })
            .collect();
        if lats.is_empty() {
            return None;
        }
        lats.sort_unstable();
        let total = lats.len() as u64;
        // Nearest-rank: rank = ceil(total * num / den), 1-based, clamped
        // to at least the first sample.
        let pick = |num: u64, den: u64| {
            let rank = (total * num).div_ceil(den).max(1);
            lats[(rank - 1) as usize]
        };
        Some((pick(50, 100), pick(99, 100), pick(999, 1000), lats[lats.len() - 1]))
    }

    /// Recorded client operations bucketed by outcome: `(ok, fail,
    /// timeout)`. Outcomes are matched on the rendered string, so `Ok(..)`
    /// and `OkMany(..)` both count as ok.
    pub fn op_outcome_counts(&self) -> (u64, u64, u64) {
        let mut ok = 0;
        let mut fail = 0;
        let mut timeout = 0;
        for ev in &self.events {
            if let Event::Op { outcome, .. } = ev {
                if outcome.starts_with("Ok") {
                    ok += 1;
                } else if outcome.starts_with("Timeout") {
                    timeout += 1;
                } else {
                    fail += 1;
                }
            }
        }
        (ok, fail, timeout)
    }

    /// Appends one JSONL line per event: `{"scenario":...,"seq":N,...}`.
    ///
    /// The schema is flat and stable; see EXPERIMENTS.md "Forensics" for
    /// the field meanings.
    pub fn write_jsonl(&self, scenario: &str, out: &mut String) {
        for (seq, ev) in self.events.iter().enumerate() {
            out.push_str("{\"scenario\":");
            push_json_str(out, scenario);
            out.push_str(&format!(",\"seq\":{seq},\"type\":\"{}\"", ev.label()));
            match ev {
                Event::PartitionInstalled { at, rule, kind, a, b, pairs } => {
                    push_install(out, *at, *rule, kind, a, b, *pairs);
                }
                Event::DegradeInstalled { at, rule, kind, a, b, pairs } => {
                    push_install(out, *at, *rule, kind, a, b, *pairs);
                }
                Event::PartitionHealed { at, rule } | Event::DegradeHealed { at, rule } => {
                    out.push_str(&format!(",\"at\":{at},\"rule\":{rule}"));
                }
                Event::Crashed { at, node } | Event::Restarted { at, node } => {
                    out.push_str(&format!(",\"at\":{at},\"node\":{}", node.0));
                }
                Event::Op { start, end, client, key, desc, outcome } => {
                    out.push_str(&format!(",\"start\":{start},\"end\":{end},\"client\":{}", client.0));
                    out.push_str(",\"key\":");
                    push_json_str(out, key);
                    out.push_str(",\"op\":");
                    push_json_str(out, desc);
                    out.push_str(",\"outcome\":");
                    push_json_str(out, outcome);
                }
                Event::Verdict { at, kind, details } => {
                    out.push_str(&format!(",\"at\":{at},\"kind\":"));
                    push_json_str(out, kind);
                    out.push_str(",\"details\":");
                    push_json_str(out, details);
                }
                Event::Note { at, node, text } => {
                    out.push_str(&format!(",\"at\":{at},\"node\":{},\"text\":", node.0));
                    push_json_str(out, text);
                }
                Event::Load { at, issued, completed, in_flight, backlog } => {
                    out.push_str(&format!(
                        ",\"at\":{at},\"issued\":{issued},\"completed\":{completed},\"in_flight\":{in_flight},\"backlog\":{backlog}"
                    ));
                }
            }
            out.push_str("}\n");
        }
    }
}

/// The JSONL fields of a partition or degrade install, after `type`.
fn push_install(
    out: &mut String,
    at: Time,
    rule: u64,
    kind: &dyn std::fmt::Display,
    a: &[NodeId],
    b: &[NodeId],
    pairs: usize,
) {
    out.push_str(&format!(",\"at\":{at},\"rule\":{rule},\"kind\":\"{kind}\""));
    for (name, group) in [("a", a), ("b", b)] {
        out.push_str(&format!(",\"{name}\":["));
        for (i, n) in group.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&n.0.to_string());
        }
        out.push(']');
    }
    out.push_str(&format!(",\"pairs\":{pairs}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionKind, Recorder};
    use simnet::NodeId;

    fn sample() -> Timeline {
        let mut r = Recorder::new(true);
        r.partition_installed(600, 0, PartitionKind::Partial, &[NodeId(0)], &[NodeId(1)], 2);
        r.op(700, 705, NodeId(1), "obj1".into(), "Write { .. }".into(), "Ok(None)".into());
        r.partition_healed(1450, 0);
        r.op(2000, 2001, NodeId(0), "other".into(), "Read { .. }".into(), "Ok(None)".into());
        r.verdict(2100, "data loss".into(), "acked write \"obj1\"=1 missing".into());
        r.snapshot()
    }

    #[test]
    fn fault_windows_pair_install_with_heal() {
        let t = sample();
        assert_eq!(t.fault_windows(), vec![(0, 600, Some(1450))]);
    }

    #[test]
    fn unhealed_partitions_stay_open() {
        let mut r = Recorder::new(true);
        r.partition_installed(5, 3, PartitionKind::Complete, &[NodeId(0)], &[NodeId(1)], 2);
        assert_eq!(r.snapshot().fault_windows(), vec![(3, 5, None)]);
    }

    #[test]
    fn degrade_windows_pair_install_with_heal() {
        let mut r = Recorder::new(true);
        r.degrade_installed(
            100,
            0,
            crate::DegradeKind::GrayPartial,
            &[NodeId(0)],
            &[NodeId(1)],
            2,
        );
        r.op(150, 160, NodeId(2), "k".into(), "Write { .. }".into(), "Timeout".into());
        r.degrade_healed(900, 0);
        r.degrade_installed(
            950,
            1,
            crate::DegradeKind::Flapping,
            &[NodeId(1)],
            &[NodeId(2)],
            2,
        );
        let t = r.snapshot();
        assert_eq!(t.degrade_windows(), vec![(0, 100, Some(900)), (1, 950, None)]);
        assert!(t.fault_windows().is_empty(), "degrade rules are not partitions");
        assert_eq!(t.ops_in_flight().len(), 1, "ops overlap degrade windows too");
        let mut out = String::new();
        t.write_jsonl("gray", &mut out);
        assert!(out.contains("\"type\":\"degrade\",\"at\":100,\"rule\":0,\"kind\":\"gray-partial\""));
        assert!(out.contains("\"type\":\"degrade-heal\",\"at\":900,\"rule\":0"));
    }

    #[test]
    fn ops_in_flight_overlap_fault_windows() {
        let t = sample();
        let inflight = t.ops_in_flight();
        assert_eq!(inflight.len(), 1, "only the op inside the window overlaps");
        assert!(matches!(inflight[0], Event::Op { key, .. } if key == "obj1"));
    }

    #[test]
    fn first_divergent_op_matches_verdict_evidence() {
        let t = sample();
        let op = t.first_divergent_op().expect("divergent op");
        assert!(matches!(op, Event::Op { key, .. } if key == "obj1"));
    }

    #[test]
    fn first_divergent_op_needs_the_quoted_key_not_a_substring() {
        let run = |evidence: &str| {
            let mut r = Recorder::new(true);
            r.op(10, 11, NodeId(3), "a".into(), "Write".into(), "Ok(None)".into());
            r.op(20, 21, NodeId(3), "c".into(), "Write".into(), "Ok(None)".into());
            r.verdict(30, "data loss".into(), evidence.into());
            r.snapshot()
        };
        let t = run("acknowledged write of \"c\" lost");
        let op = t.first_divergent_op().expect("the op on \"c\"");
        assert!(matches!(op, Event::Op { key, .. } if key == "c"), "{op}");
        let t = run("acknowledged enqueues hang");
        assert_eq!(t.first_divergent_op(), None, "no quoted key, no blame");
    }

    #[test]
    fn jsonl_has_one_line_per_event_and_escapes() {
        let mut t = sample();
        t.events.push(Event::Note {
            at: 2200,
            node: NodeId(0),
            text: "quote \" here".into(),
        });
        let mut out = String::new();
        t.write_jsonl("demo", &mut out);
        assert_eq!(out.lines().count(), t.len());
        assert!(out.contains("\"type\":\"partition\""));
        assert!(out.contains("\"scenario\":\"demo\""));
        assert!(out.contains("quote \\\" here"));
    }

    #[test]
    fn latency_percentiles_are_exact_nearest_rank() {
        let mut r = Recorder::new(true);
        // Latencies 1..=100 ms: p50 = 50, p99 = 99, p999 = 100, max = 100.
        for i in 1..=100u64 {
            r.op(1000, 1000 + i, NodeId(1), "k".into(), "Read".into(), "Ok(None)".into());
        }
        let t = r.snapshot();
        assert_eq!(t.latency_percentiles(), Some((50, 99, 100, 100)));
        assert!(Timeline::default().latency_percentiles().is_none());
    }

    #[test]
    fn op_outcomes_bucket_by_rendered_string() {
        let mut r = Recorder::new(true);
        r.op(1, 2, NodeId(0), "k".into(), "Read".into(), "Ok(Some(3))".into());
        r.op(2, 3, NodeId(0), "k".into(), "Read".into(), "OkMany([1])".into());
        r.op(3, 4, NodeId(0), "k".into(), "Write".into(), "Fail".into());
        r.op(4, 5, NodeId(0), "k".into(), "Write".into(), "Timeout".into());
        assert_eq!(r.snapshot().op_outcome_counts(), (2, 1, 1));
    }

    #[test]
    fn load_samples_count_and_serialize() {
        let mut r = Recorder::new(true);
        r.load_sample(500, 10, 8, 2, 1);
        let t = r.snapshot();
        assert_eq!(t.counters.load_samples, 1);
        let mut out = String::new();
        t.write_jsonl("load", &mut out);
        assert!(out.contains(
            "\"type\":\"load\",\"at\":500,\"issued\":10,\"completed\":8,\"in_flight\":2,\"backlog\":1"
        ));
        let mut off = Recorder::new(false);
        off.load_sample(1, 1, 1, 0, 0);
        assert!(off.events().is_empty());
        assert_eq!(off.counters().load_samples, 1);
    }

    #[test]
    fn render_is_one_line_per_event() {
        let t = sample();
        assert_eq!(t.render().lines().count(), t.len());
        assert!(!t.is_empty());
        assert_eq!(t.len(), 5);
    }
}
