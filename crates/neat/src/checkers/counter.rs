//! Counter checker: lost or over-applied increments.
//!
//! Covers the paper's "broken counters / broken AtomicLong" Ignite findings
//! (Table 15): after healing, an atomic counter must reflect every
//! acknowledged increment exactly once; timed-out increments may have been
//! applied zero or one times.

use crate::history::{History, Op, Outcome};

use super::{Violation, ViolationKind};

/// Checks a monotonically incremented counter against its final value.
///
/// `initial` is the counter's starting value. The final value must lie in
/// `[initial + sum(acknowledged), initial + sum(acknowledged + unknown)]`.
/// Below the range means acknowledged increments were lost
/// ([`ViolationKind::DataLoss`]); above it means increments were applied
/// more than once ([`ViolationKind::DataCorruption`]) — the *double
/// execution* analogue for counters.
pub fn check_counter(hist: &History, key: &str, initial: u64, final_value: u64) -> Vec<Violation> {
    let mut acked = 0u64;
    let mut unknown = 0u64;
    for r in hist.for_key(key) {
        if let Op::Incr { by, .. } = r.op {
            match r.outcome {
                Outcome::Ok(_) | Outcome::OkMany(_) => acked += by,
                Outcome::Timeout => unknown += by,
                Outcome::Fail => {}
            }
        }
    }
    let lo = initial + acked;
    let hi = lo + unknown;
    let mut out = Vec::new();
    if final_value < lo {
        out.push(Violation::new(
            ViolationKind::DataLoss,
            format!(
                "counter {key:?} ended at {final_value}, below the {lo} acknowledged increments require"
            ),
        ));
    } else if final_value > hi {
        out.push(Violation::new(
            ViolationKind::DataCorruption,
            format!(
                "counter {key:?} ended at {final_value}, above the maximum explainable value {hi}"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::hist;
    use crate::history::OpRecord;
    use simnet::NodeId;

    fn incr(key: &str, by: u64, outcome: Outcome, t: u64) -> OpRecord {
        OpRecord {
            client: NodeId(0),
            op: Op::Incr {
                key: key.into(),
                by,
            },
            outcome,
            start: t,
            end: t + 1,
        }
    }

    #[test]
    fn exact_sum_is_clean() {
        let h = hist(vec![
            incr("c", 1, Outcome::Ok(None), 0),
            incr("c", 2, Outcome::Ok(None), 2),
        ]);
        assert!(check_counter(&h, "c", 0, 3).is_empty());
    }

    #[test]
    fn lost_increment_detected() {
        let h = hist(vec![
            incr("c", 1, Outcome::Ok(None), 0),
            incr("c", 1, Outcome::Ok(None), 2),
        ]);
        let v = check_counter(&h, "c", 0, 1);
        assert_eq!(v[0].kind, ViolationKind::DataLoss);
    }

    #[test]
    fn over_application_detected() {
        let h = hist(vec![incr("c", 1, Outcome::Ok(None), 0)]);
        let v = check_counter(&h, "c", 0, 2);
        assert_eq!(v[0].kind, ViolationKind::DataCorruption);
    }

    #[test]
    fn timeout_widens_the_acceptable_range() {
        let h = hist(vec![
            incr("c", 1, Outcome::Ok(None), 0),
            incr("c", 5, Outcome::Timeout, 2),
        ]);
        assert!(check_counter(&h, "c", 0, 1).is_empty());
        assert!(check_counter(&h, "c", 0, 6).is_empty());
        assert_eq!(check_counter(&h, "c", 0, 7).len(), 1);
        assert_eq!(check_counter(&h, "c", 0, 0).len(), 1);
    }

    #[test]
    fn failed_increment_must_not_apply() {
        let h = hist(vec![incr("c", 3, Outcome::Fail, 0)]);
        assert!(check_counter(&h, "c", 0, 0).is_empty());
        let v = check_counter(&h, "c", 0, 3);
        assert_eq!(v[0].kind, ViolationKind::DataCorruption);
    }

    #[test]
    fn respects_initial_value() {
        let h = hist(vec![incr("c", 1, Outcome::Ok(None), 0)]);
        assert!(check_counter(&h, "c", 10, 11).is_empty());
        assert_eq!(check_counter(&h, "c", 10, 1)[0].kind, ViolationKind::DataLoss);
    }
}
