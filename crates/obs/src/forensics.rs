//! The failure-forensics renderer: one detected violation, explained.

use study::{json::Value, obj};

use crate::Timeline;

/// Everything needed to explain one scenario run the way the paper's
/// Listing 1/2 narratives do: which partition was injected, which client
/// operations were in flight, where the first divergent operation shows
/// up, and the full event timeline as evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct ForensicReport {
    /// Scenario identifier (registry name).
    pub scenario: String,
    /// The studied system the scenario models.
    pub system: String,
    /// The failure report it reproduces.
    pub reference: String,
    /// Partition type injected, per the registry metadata.
    pub partition: String,
    /// Seed the arm ran at.
    pub seed: u64,
    /// `(kind, details)` of every checker verdict, in detection order.
    pub violations: Vec<(String, String)>,
    /// The recorded run.
    pub timeline: Timeline,
}

impl ForensicReport {
    /// Renders the narrative block for this run.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        w(&mut out, format!(
            "== {} — {} ({}) ==",
            self.scenario, self.system, self.reference
        ));
        w(&mut out, format!(
            "   injected: {} partition, seed {}",
            self.partition, self.seed
        ));
        if self.violations.is_empty() {
            w(&mut out, "   verdict: no violation detected at this seed".to_string());
        } else {
            w(&mut out, format!("   verdict: {} violation(s)", self.violations.len()));
            for (kind, details) in &self.violations {
                w(&mut out, format!("     - {kind}: {details}"));
            }
        }
        for (title, rule_label, windows) in [
            ("fault", "rule", self.timeline.fault_windows()),
            ("degrade", "degrade rule", self.timeline.degrade_windows()),
        ] {
            if windows.is_empty() {
                continue;
            }
            w(&mut out, format!("   {title} windows:"));
            for (rule, from, to) in &windows {
                let until = match to {
                    Some(t) => format!("{t:>6}"),
                    None => "  open".to_string(),
                };
                w(&mut out, format!("     [{from:>6}..{until}] {rule_label} {rule}"));
            }
        }
        let inflight = self.timeline.ops_in_flight();
        if !inflight.is_empty() {
            w(&mut out, "   ops in flight during a fault:".to_string());
            for op in inflight {
                w(&mut out, format!("     {op}"));
            }
        }
        if let Some(op) = self.timeline.first_divergent_op() {
            w(&mut out, "   first divergent op (key named by a verdict):".to_string());
            w(&mut out, format!("     {op}"));
        }
        if !self.timeline.is_empty() {
            w(&mut out, "   timeline:".to_string());
            for ev in &self.timeline.events {
                w(&mut out, format!("     {ev}"));
            }
        }
        w(&mut out, format!("   counters: {}", self.timeline.counters.render()));
        out
    }

    /// Appends the JSONL export: one `report` header line carrying the
    /// metadata and verdicts, then one line per timeline event (see
    /// [`Timeline::write_jsonl`]).
    pub fn write_jsonl(&self, out: &mut String) {
        let violations = self
            .violations
            .iter()
            .map(|(kind, details)| obj! { "kind" => kind.as_str(), "details" => details.as_str() })
            .collect();
        let c = &self.timeline.counters;
        let header = obj! {
            "type" => "report",
            "scenario" => self.scenario.as_str(),
            "system" => self.system.as_str(),
            "reference" => self.reference.as_str(),
            "partition" => self.partition.as_str(),
            "seed" => self.seed,
            "violations" => Value::Arr(violations),
            "events" => self.timeline.len(),
            "counters" => obj! {
                "events_simulated" => c.events_simulated,
                "messages_dropped" => c.messages_dropped,
                "ops_ordered" => c.ops_ordered,
            },
        };
        out.push_str(&header.to_json());
        out.push('\n');
        self.timeline.write_jsonl(&self.scenario, out);
    }

    /// `true` when at least one checker fired on this run.
    pub fn detected(&self) -> bool {
        !self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionKind, Recorder};
    use simnet::NodeId;

    fn report() -> ForensicReport {
        let mut r = Recorder::new(true);
        r.partition_installed(600, 0, PartitionKind::Partial, &[NodeId(0)], &[NodeId(1)], 2);
        r.op(700, 705, NodeId(1), "obj1".into(), "Write { .. }".into(), "Ok(None)".into());
        r.partition_healed(1450, 0);
        r.verdict(2100, "data loss".into(), "acked write \"obj1\"=1 missing".into());
        ForensicReport {
            scenario: "listing1_data_loss".into(),
            system: "Elasticsearch".into(),
            reference: "#2488 / Listing 1".into(),
            partition: "partial".into(),
            seed: 8,
            violations: vec![("data loss".into(), "acked write \"obj1\"=1 missing".into())],
            timeline: r.snapshot(),
        }
    }

    #[test]
    fn narrative_names_the_partition_ops_and_divergence() {
        let text = report().render();
        assert!(text.contains("== listing1_data_loss — Elasticsearch (#2488 / Listing 1) =="));
        assert!(text.contains("injected: partial partition, seed 8"));
        assert!(text.contains("- data loss: acked write \"obj1\"=1 missing"));
        assert!(text.contains("fault windows:"));
        assert!(text.contains("ops in flight during a fault:"));
        assert!(text.contains("first divergent op"));
        assert!(text.contains("counters: "));
    }

    #[test]
    fn undetected_runs_say_so() {
        let mut r = report();
        r.violations.clear();
        assert!(!r.detected());
        assert!(r.render().contains("no violation detected at this seed"));
    }

    #[test]
    fn jsonl_header_precedes_events() {
        let r = report();
        let mut out = String::new();
        r.write_jsonl(&mut out);
        let first = out.lines().next().expect("header line");
        assert!(first.starts_with("{\"type\":\"report\""));
        assert!(first.contains("\"events\":4"));
        assert_eq!(out.lines().count(), 1 + r.timeline.len());
    }
}
