//! Set/collection checker: lost adds and reappearing removed elements.
//!
//! Covers Terracotta's "added values to List, Set, Queue could be lost" and
//! "deleted values … reappear" NEAT findings (Table 15).

use std::collections::{BTreeMap, BTreeSet};

use crate::history::{History, Op, OpRecord, Outcome};

use super::{Violation, ViolationKind};

/// Checks add/remove histories on named sets against the final membership.
///
/// For each `(key, element)` pair (real-time precedence, as everywhere):
///
/// - an acknowledged `Add` not followed by an acknowledged or timed-out
///   `Remove` must be present finally, else [`ViolationKind::DataLoss`];
/// - an acknowledged `Remove` not followed by an acknowledged or timed-out
///   `Add` must be absent finally, else
///   [`ViolationKind::ReappearanceOfDeletedData`];
/// - a present element never added by anyone is
///   [`ViolationKind::DataCorruption`].
pub fn check_set(hist: &History, final_state: &BTreeMap<String, BTreeSet<u64>>) -> Vec<Violation> {
    let mut out = Vec::new();
    for (key, members) in final_state {
        let ops: Vec<&OpRecord> = hist
            .for_key(key)
            .filter(|r| matches!(r.op, Op::Add { .. } | Op::Remove { .. }))
            .collect();
        let mut elements: BTreeSet<u64> = ops
            .iter()
            .filter_map(|r| match r.op {
                Op::Add { val, .. } | Op::Remove { val, .. } => Some(val),
                _ => None,
            })
            .collect();
        elements.extend(members.iter().copied());

        for v in elements {
            let adds: Vec<&&OpRecord> = ops
                .iter()
                .filter(|r| matches!(r.op, Op::Add { val, .. } if val == v))
                .collect();
            let removes: Vec<&&OpRecord> = ops
                .iter()
                .filter(|r| matches!(r.op, Op::Remove { val, .. } if val == v))
                .collect();
            let present = members.contains(&v);

            if present && adds.is_empty() {
                out.push(Violation::new(
                    ViolationKind::DataCorruption,
                    format!("set {key:?} contains {v}, which was never added"),
                ));
                continue;
            }

            // Must-be-present: an Ok add with no possibly-effective remove after it.
            let must_present = adds.iter().any(|a| {
                a.outcome.is_ok()
                    && !removes
                        .iter()
                        .any(|r| r.outcome != Outcome::Fail && !r.precedes(a))
            });
            // Must-be-absent: an Ok remove with no possibly-effective add after it.
            let must_absent = removes.iter().any(|r| {
                r.outcome.is_ok()
                    && !adds
                        .iter()
                        .any(|a| a.outcome != Outcome::Fail && !a.precedes(r))
            });

            if must_present && !present {
                out.push(Violation::new(
                    ViolationKind::DataLoss,
                    format!("acknowledged add of {v} to set {key:?} was lost"),
                ));
            }
            if must_absent && present {
                out.push(Violation::new(
                    ViolationKind::ReappearanceOfDeletedData,
                    format!("element {v} reappeared in set {key:?} after a successful remove"),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::hist;

    fn add(key: &str, val: u64, outcome: Outcome, t: u64) -> OpRecord {
        OpRecord {
            client: simnet::NodeId(0),
            op: Op::Add {
                key: key.into(),
                val,
            },
            outcome,
            start: t,
            end: t + 1,
        }
    }
    fn rm(key: &str, val: u64, outcome: Outcome, t: u64) -> OpRecord {
        OpRecord {
            client: simnet::NodeId(0),
            op: Op::Remove {
                key: key.into(),
                val,
            },
            outcome,
            start: t,
            end: t + 1,
        }
    }
    fn fin(key: &str, vals: &[u64]) -> BTreeMap<String, BTreeSet<u64>> {
        let mut m = BTreeMap::new();
        m.insert(key.to_string(), vals.iter().copied().collect());
        m
    }
    fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
        vs.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn add_then_present_is_clean() {
        let h = hist(vec![add("s", 1, Outcome::Ok(None), 0)]);
        assert!(check_set(&h, &fin("s", &[1])).is_empty());
    }

    #[test]
    fn lost_add_detected() {
        let h = hist(vec![add("s", 1, Outcome::Ok(None), 0)]);
        let v = check_set(&h, &fin("s", &[]));
        assert_eq!(kinds(&v), vec![ViolationKind::DataLoss]);
    }

    #[test]
    fn removed_element_reappearing_detected() {
        let h = hist(vec![
            add("s", 1, Outcome::Ok(None), 0),
            rm("s", 1, Outcome::Ok(None), 10),
        ]);
        let v = check_set(&h, &fin("s", &[1]));
        assert_eq!(kinds(&v), vec![ViolationKind::ReappearanceOfDeletedData]);
    }

    #[test]
    fn remove_then_absent_is_clean() {
        let h = hist(vec![
            add("s", 1, Outcome::Ok(None), 0),
            rm("s", 1, Outcome::Ok(None), 10),
        ]);
        assert!(check_set(&h, &fin("s", &[])).is_empty());
    }

    #[test]
    fn timeout_remove_makes_both_outcomes_legal() {
        let h = hist(vec![
            add("s", 1, Outcome::Ok(None), 0),
            rm("s", 1, Outcome::Timeout, 10),
        ]);
        assert!(check_set(&h, &fin("s", &[1])).is_empty());
        assert!(check_set(&h, &fin("s", &[])).is_empty());
    }

    #[test]
    fn failed_remove_does_not_excuse_loss() {
        let h = hist(vec![
            add("s", 1, Outcome::Ok(None), 0),
            rm("s", 1, Outcome::Fail, 10),
        ]);
        let v = check_set(&h, &fin("s", &[]));
        assert_eq!(kinds(&v), vec![ViolationKind::DataLoss]);
    }

    #[test]
    fn never_added_member_is_corruption() {
        let h = hist(vec![add("s", 1, Outcome::Ok(None), 0)]);
        let v = check_set(&h, &fin("s", &[1, 99]));
        assert_eq!(kinds(&v), vec![ViolationKind::DataCorruption]);
    }

    #[test]
    fn re_add_after_remove_is_clean() {
        let h = hist(vec![
            add("s", 1, Outcome::Ok(None), 0),
            rm("s", 1, Outcome::Ok(None), 10),
            add("s", 1, Outcome::Ok(None), 20),
        ]);
        assert!(check_set(&h, &fin("s", &[1])).is_empty());
    }

    #[test]
    fn concurrent_add_and_remove_allow_either() {
        let h = hist(vec![
            add("s", 1, Outcome::Ok(None), 0),
            rm("s", 1, Outcome::Ok(None), 0),
        ]);
        assert!(check_set(&h, &fin("s", &[1])).is_empty());
        assert!(check_set(&h, &fin("s", &[])).is_empty());
    }
}
