//! Register (key-value) checker: dirty reads, stale reads, data loss,
//! reappearance of deleted data.
//!
//! Semantics (per key; all comparisons use real-time precedence, where `a`
//! precedes `b` iff `a.end < b.start`, so concurrent operations constrain
//! nothing):
//!
//! - **Dirty read** — a read returned the value of a write whose outcome was
//!   an acknowledged *failure*. Failed writes must never become visible
//!   (Table 2, e.g., VoltDB ENG-10389).
//! - **Stale read** — only under [`RegisterSemantics::Strong`]: a read
//!   returned a value strictly older than the latest write known complete
//!   before the read began.
//! - **Data loss** — the final value (observed after healing) is not
//!   *explainable*: every acknowledged write that no later acknowledged
//!   write/delete superseded must still be a possible final value.
//! - **Reappearance of deleted data** — the final value was successfully
//!   deleted and never rewritten afterwards.
//! - **Data corruption** — the final value was never written by anyone.
//!
//! Timed-out operations have unknown effect, so they both *may* explain a
//! final value and *may not* be required to survive.

use std::collections::BTreeMap;

use crate::history::{History, Op, OpRecord, Outcome};

use super::{Violation, ViolationKind};

/// Consistency contract the system under test promises for reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegisterSemantics {
    /// Strong (sequential) consistency: stale reads are violations.
    Strong,
    /// Eventual consistency: stale reads are tolerated (the paper only
    /// counts stale reads as failures for strongly consistent systems).
    Eventual,
}

/// A write-like event on a key: either a write of `Some(v)` or a delete.
struct Mutation<'a> {
    rec: &'a OpRecord,
    /// `Some(v)` for writes, `None` for deletes.
    val: Option<u64>,
}

fn mutations<'a>(recs: &[&'a OpRecord]) -> Vec<Mutation<'a>> {
    recs.iter()
        .filter_map(|&r| match &r.op {
            Op::Write { val, .. } => Some(Mutation {
                rec: r,
                val: Some(*val),
            }),
            Op::Delete { .. } => Some(Mutation { rec: r, val: None }),
            _ => None,
        })
        .collect()
}

/// Checks the register history against the final state.
///
/// `final_state` maps each key to the value observed after every partition
/// healed and the system quiesced (`None` = key absent). Keys absent from
/// the map are not checked for loss/reappearance (useful when the final
/// read itself was unavailable).
pub fn check_register(
    hist: &History,
    semantics: RegisterSemantics,
    final_state: &BTreeMap<String, Option<u64>>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    // Group the records by key in one stable sort: keys in `&str` order,
    // invocation order within each key.
    let mut recs: Vec<&OpRecord> = hist.records().iter().collect();
    recs.sort_by(|a, b| a.op.key().cmp(b.op.key()));
    for recs in recs.chunk_by(|a, b| a.op.key() == b.op.key()) {
        let key = recs[0].op.key();
        let muts = mutations(recs);
        check_reads(key, recs, &muts, semantics, &mut out);
        if let Some(final_val) = final_state.get(key) {
            check_final(key, &muts, *final_val, &mut out);
        }
    }
    out
}

fn check_reads(
    key: &str,
    recs: &[&OpRecord],
    muts: &[Mutation<'_>],
    semantics: RegisterSemantics,
    out: &mut Vec<Violation>,
) {
    for &read in recs {
        if !matches!(read.op, Op::Read { .. }) {
            continue;
        }
        let Outcome::Ok(ret) = read.outcome else {
            continue;
        };
        // Dirty read: the returned value only exists as a failed write.
        if let Some(v) = ret {
            let mut writers = muts.iter().filter(|m| m.val == Some(v)).peekable();
            if writers.peek().is_some() && writers.all(|m| m.rec.outcome == Outcome::Fail) {
                out.push(Violation::new(
                    ViolationKind::DirtyRead,
                    format!("read of {key:?} returned {v}, written only by a FAILED write"),
                ));
                continue;
            }
        }
        if semantics == RegisterSemantics::Strong {
            check_stale(key, muts, read, ret, out);
        }
    }
}

fn check_stale(
    key: &str,
    muts: &[Mutation<'_>],
    read: &OpRecord,
    ret: Option<u64>,
    out: &mut Vec<Violation>,
) {
    // The latest acknowledged mutation fully completed before the read began.
    let Some(latest) = muts
        .iter()
        .filter(|m| m.rec.outcome.is_ok() && m.rec.precedes(read))
        .max_by_key(|m| m.rec.end)
    else {
        return;
    };
    if ret == latest.val {
        return;
    }
    // The read returned something else. That is only stale if what it
    // returned is strictly *older* than `latest`; returning a concurrent or
    // newer (possibly timed-out) mutation is legal.
    // A timed-out mutation's effect may land arbitrarily late, so it never
    // counts as strictly older than `latest`.
    let ret_is_older = match ret {
        Some(v) => muts
            .iter()
            .filter(|m| m.val == Some(v))
            .all(|m| m.rec.outcome != Outcome::Timeout && m.rec.precedes(latest.rec)),
        // `None` (missing) is older unless some delete is concurrent with or
        // after `latest`.
        None => !muts
            .iter()
            .any(|m| m.val.is_none() && !m.rec.precedes(latest.rec)),
    };
    // A value never written at all is corruption, reported via final-state
    // checking; only flag staleness for values we can date.
    let known = match ret {
        Some(v) => muts.iter().any(|m| m.val == Some(v)),
        None => true,
    };
    if known && ret_is_older {
        out.push(Violation::new(
            ViolationKind::StaleRead,
            format!(
                "read of {key:?} at t={} returned {ret:?} although write of {:?} completed at t={}",
                read.start, latest.val, latest.rec.end
            ),
        ));
    }
}

fn check_final(
    key: &str,
    muts: &[Mutation<'_>],
    final_val: Option<u64>,
    out: &mut Vec<Violation>,
) {
    // Candidate final values: acknowledged mutations not superseded by a
    // later acknowledged mutation, plus every timed-out mutation (unknown
    // effect), plus `None` if the key might never have been created.
    let superseded = |m: &Mutation<'_>| {
        muts.iter()
            .any(|n| n.rec.outcome.is_ok() && m.rec.precedes(n.rec))
    };
    let ok_candidates: Vec<&Mutation<'_>> = muts
        .iter()
        .filter(|m| m.rec.outcome.is_ok() && !superseded(m))
        .collect();
    let unknown_candidates: Vec<&Mutation<'_>> = muts
        .iter()
        .filter(|m| m.rec.outcome == Outcome::Timeout)
        .collect();

    let explainable = |v: Option<u64>| {
        ok_candidates.iter().any(|m| m.val == v)
            || unknown_candidates.iter().any(|m| m.val == v)
            || (v.is_none() && ok_candidates.is_empty())
    };

    if explainable(final_val) {
        return;
    }

    // Unexplainable final state: classify it.
    if let Some(v) = final_val {
        let ever_written = muts.iter().any(|m| m.val == Some(v));
        if !ever_written {
            out.push(Violation::new(
                ViolationKind::DataCorruption,
                format!("final value {v} of {key:?} was never written"),
            ));
            return;
        }
        let only_failed_writers = muts
            .iter()
            .filter(|m| m.val == Some(v))
            .all(|m| m.rec.outcome == Outcome::Fail);
        if only_failed_writers {
            out.push(Violation::new(
                ViolationKind::DataCorruption,
                format!("key {key:?} durably holds {v}, which was only written by a FAILED write"),
            ));
            return;
        }
        let deleted_after = muts.iter().any(|d| {
            d.val.is_none()
                && d.rec.outcome.is_ok()
                && muts
                    .iter()
                    .filter(|w| w.val == Some(v))
                    .all(|w| w.rec.precedes(d.rec))
        });
        if deleted_after {
            out.push(Violation::new(
                ViolationKind::ReappearanceOfDeletedData,
                format!("final value {v} of {key:?} had been successfully deleted"),
            ));
            return;
        }
    }
    let lost: Vec<String> = ok_candidates
        .iter()
        .filter(|m| m.val != final_val)
        .map(|m| format!("{:?}", m.val))
        .collect();
    out.push(Violation::new(
        ViolationKind::DataLoss,
        format!(
            "key {key:?} ended as {final_val:?}; acknowledged surviving mutation(s) {} lost",
            lost.join(", ")
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::hist;
    use simnet::NodeId;

    fn w(key: &str, val: u64, outcome: Outcome, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(0),
            op: Op::Write {
                key: key.into(),
                val,
            },
            outcome,
            start,
            end,
        }
    }
    fn r(key: &str, ret: Option<u64>, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(1),
            op: Op::Read { key: key.into() },
            outcome: Outcome::Ok(ret),
            start,
            end,
        }
    }
    fn d(key: &str, outcome: Outcome, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(0),
            op: Op::Delete { key: key.into() },
            outcome,
            start,
            end,
        }
    }

    fn final_of(key: &str, v: Option<u64>) -> BTreeMap<String, Option<u64>> {
        let mut m = BTreeMap::new();
        m.insert(key.to_string(), v);
        m
    }

    fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
        vs.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn clean_history_has_no_violations() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            r("k", Some(1), 10, 12),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(1)));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn dirty_read_detected() {
        // The Figure 2 scenario: the write FAILS, yet a read returns it.
        let h = hist(vec![
            w("k", 7, Outcome::Fail, 0, 5),
            r("k", Some(7), 10, 12),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert_eq!(kinds(&v), vec![ViolationKind::DirtyRead]);
    }

    #[test]
    fn timeout_write_visible_is_not_dirty() {
        let h = hist(vec![
            w("k", 7, Outcome::Timeout, 0, 5),
            r("k", Some(7), 10, 12),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stale_read_detected_under_strong_only() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Ok(None), 10, 15),
            r("k", Some(1), 20, 22),
        ]);
        let strong = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert_eq!(kinds(&strong), vec![ViolationKind::StaleRead]);
        let eventual = check_register(&h, RegisterSemantics::Eventual, &BTreeMap::new());
        assert!(eventual.is_empty(), "eventual systems tolerate staleness");
    }

    #[test]
    fn concurrent_read_is_not_stale() {
        // The read overlaps the second write; either value is legal.
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Ok(None), 10, 20),
            r("k", Some(1), 15, 18),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn read_of_missing_after_acked_write_is_stale() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            r("k", None, 20, 22),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert_eq!(kinds(&v), vec![ViolationKind::StaleRead]);
    }

    #[test]
    fn data_loss_when_final_misses_acked_write() {
        // Listing 1: the write succeeded during the partition, then the
        // healed cluster truncated it away.
        let h = hist(vec![w("obj2", 2, Outcome::Ok(None), 10, 15)]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("obj2", None));
        assert_eq!(kinds(&v), vec![ViolationKind::DataLoss]);
    }

    #[test]
    fn overwritten_value_is_not_loss() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Ok(None), 10, 15),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(2)));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn concurrent_acked_writes_either_may_survive() {
        // Two Ok writes on opposite sides of a partition are concurrent;
        // conflict resolution keeping either one is not data loss.
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 50),
            w("k", 2, Outcome::Ok(None), 10, 40),
        ]);
        for surv in [Some(1), Some(2)] {
            let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", surv));
            assert!(v.is_empty(), "{surv:?}: {v:?}");
        }
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", None));
        assert_eq!(kinds(&v), vec![ViolationKind::DataLoss]);
    }

    #[test]
    fn timeout_write_explains_final_value() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            w("k", 2, Outcome::Timeout, 10, 15),
        ]);
        for surv in [Some(1), Some(2)] {
            let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", surv));
            assert!(v.is_empty(), "{surv:?}: {v:?}");
        }
    }

    #[test]
    fn reappearance_of_deleted_data() {
        let h = hist(vec![
            w("k", 1, Outcome::Ok(None), 0, 5),
            d("k", Outcome::Ok(None), 10, 15),
        ]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(1)));
        assert_eq!(kinds(&v), vec![ViolationKind::ReappearanceOfDeletedData]);
    }

    #[test]
    fn never_written_final_value_is_corruption() {
        let h = hist(vec![w("k", 1, Outcome::Ok(None), 0, 5)]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", Some(99)));
        assert_eq!(kinds(&v), vec![ViolationKind::DataCorruption]);
    }

    #[test]
    fn failed_write_missing_from_final_is_fine() {
        let h = hist(vec![w("k", 1, Outcome::Fail, 0, 5)]);
        let v = check_register(&h, RegisterSemantics::Strong, &final_of("k", None));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unchecked_key_skips_final_analysis() {
        let h = hist(vec![w("k", 1, Outcome::Ok(None), 0, 5)]);
        let v = check_register(&h, RegisterSemantics::Strong, &BTreeMap::new());
        assert!(v.is_empty());
    }
}
