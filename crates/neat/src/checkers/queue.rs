//! Queue checker: double dequeues, lost elements, phantom elements.

use std::collections::BTreeMap;

use crate::history::{History, Op};

use super::{Violation, ViolationKind};

/// What the harness knows about the queue's final condition.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueueExpectation {
    /// Queue key this expectation covers.
    pub key: String,
    /// Elements obtained by fully draining the queue after healing, in
    /// drain order. `None` when the queue could not be drained (in that
    /// case lost elements cannot be judged).
    pub drained: Option<Vec<u64>>,
}

/// Checks a queue history (Listing 2's `testDoubleDequeueu` generalized).
///
/// - **Double dequeue** — the same element was returned by two consumptions
///   (dequeues during the test plus the final drain).
/// - **Phantom element** — a consumed element was never enqueued.
/// - **Lost element** — only when `drained` is available: an acknowledged
///   enqueue that no consumption ever returned.
pub fn check_queue(hist: &History, expectations: &[QueueExpectation]) -> Vec<Violation> {
    let mut out = Vec::new();
    for exp in expectations {
        let key = &exp.key;
        let mut consumed: Vec<u64> = hist
            .for_key(key)
            .filter(|r| matches!(r.op, Op::Dequeue { .. }))
            .filter_map(|r| r.outcome.value())
            .collect();
        if let Some(drained) = &exp.drained {
            consumed.extend(drained.iter().copied());
        }

        // Count consumptions per element.
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for v in &consumed {
            *counts.entry(*v).or_default() += 1;
        }
        for (v, n) in &counts {
            if *n > 1 {
                out.push(Violation::new(
                    ViolationKind::DoubleDequeue,
                    format!("element {v} of queue {key:?} was dequeued {n} times"),
                ));
            }
        }

        // Enqueues by outcome.
        let enqueued_any: Vec<u64> = hist
            .for_key(key)
            .filter_map(|r| match r.op {
                Op::Enqueue { val, .. } => Some(val),
                _ => None,
            })
            .collect();
        let enqueued_ok: Vec<u64> = hist
            .for_key(key)
            .filter_map(|r| match (&r.op, &r.outcome) {
                (Op::Enqueue { val, .. }, o) if o.is_ok() => Some(*val),
                _ => None,
            })
            .collect();

        for v in counts.keys() {
            if !enqueued_any.contains(v) {
                out.push(Violation::new(
                    ViolationKind::PhantomElement,
                    format!("queue {key:?} produced element {v} that was never enqueued"),
                ));
            }
        }

        if exp.drained.is_some() {
            for v in &enqueued_ok {
                if !counts.contains_key(v) {
                    out.push(Violation::new(
                        ViolationKind::LostElement,
                        format!("acknowledged enqueue of {v} to {key:?} never came out"),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::hist;
    use crate::history::{OpRecord, Outcome};
    use simnet::NodeId;

    fn enq(key: &str, val: u64, outcome: Outcome, t: u64) -> OpRecord {
        OpRecord {
            client: NodeId(0),
            op: Op::Enqueue {
                key: key.into(),
                val,
            },
            outcome,
            start: t,
            end: t + 1,
        }
    }
    fn deq(key: &str, ret: Option<u64>, t: u64) -> OpRecord {
        OpRecord {
            client: NodeId(1),
            op: Op::Dequeue { key: key.into() },
            outcome: Outcome::Ok(ret),
            start: t,
            end: t + 1,
        }
    }
    fn exp(key: &str, drained: Option<Vec<u64>>) -> Vec<QueueExpectation> {
        vec![QueueExpectation {
            key: key.into(),
            drained,
        }]
    }
    fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
        vs.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn fifo_happy_path_clean() {
        let h = hist(vec![
            enq("q", 1, Outcome::Ok(None), 0),
            enq("q", 2, Outcome::Ok(None), 2),
            deq("q", Some(1), 4),
        ]);
        let v = check_queue(&h, &exp("q", Some(vec![2])));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn double_dequeue_across_partition_sides() {
        // Listing 2: both sides of the partition pop the same message.
        let h = hist(vec![
            enq("q", 1, Outcome::Ok(None), 0),
            deq("q", Some(1), 4),
            deq("q", Some(1), 6),
        ]);
        let v = check_queue(&h, &exp("q", None));
        assert_eq!(kinds(&v), vec![ViolationKind::DoubleDequeue]);
    }

    #[test]
    fn double_dequeue_found_via_drain() {
        let h = hist(vec![enq("q", 1, Outcome::Ok(None), 0), deq("q", Some(1), 4)]);
        let v = check_queue(&h, &exp("q", Some(vec![1])));
        assert_eq!(kinds(&v), vec![ViolationKind::DoubleDequeue]);
    }

    #[test]
    fn lost_element_needs_drain_info() {
        let h = hist(vec![enq("q", 9, Outcome::Ok(None), 0)]);
        assert!(check_queue(&h, &exp("q", None)).is_empty());
        let v = check_queue(&h, &exp("q", Some(vec![])));
        assert_eq!(kinds(&v), vec![ViolationKind::LostElement]);
    }

    #[test]
    fn failed_enqueue_not_required_to_survive() {
        let h = hist(vec![enq("q", 9, Outcome::Fail, 0)]);
        let v = check_queue(&h, &exp("q", Some(vec![])));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn timeout_enqueue_not_required_but_allowed() {
        let h = hist(vec![enq("q", 9, Outcome::Timeout, 0)]);
        assert!(check_queue(&h, &exp("q", Some(vec![]))).is_empty());
        assert!(check_queue(&h, &exp("q", Some(vec![9]))).is_empty());
    }

    #[test]
    fn phantom_element_detected() {
        let h = hist(vec![deq("q", Some(42), 4)]);
        let v = check_queue(&h, &exp("q", None));
        assert_eq!(kinds(&v), vec![ViolationKind::PhantomElement]);
    }

    #[test]
    fn empty_dequeues_are_fine() {
        let h = hist(vec![deq("q", None, 4)]);
        assert!(check_queue(&h, &exp("q", Some(vec![]))).is_empty());
    }

    #[test]
    fn keys_are_independent() {
        let h = hist(vec![
            enq("a", 1, Outcome::Ok(None), 0),
            deq("b", Some(1), 4), // phantom on b, not a double dequeue on a
        ]);
        let v = check_queue(
            &h,
            &[
                QueueExpectation {
                    key: "a".into(),
                    drained: Some(vec![1]),
                },
                QueueExpectation {
                    key: "b".into(),
                    drained: None,
                },
            ],
        );
        assert_eq!(kinds(&v), vec![ViolationKind::PhantomElement]);
    }
}
