//! A small Wing–Gong linearizability checker for single-key registers.
//!
//! NEAT's verification steps (Listings 1–2) assert specific expected values;
//! this checker is the general-purpose fallback: it decides whether a
//! register history has *any* valid linearization. It is exponential in the
//! worst case and intended for the short histories NEAT tests produce
//! (≲ 20 operations per key); the done-set grows with the history, so a
//! long sequential one is checked too.

use std::collections::BTreeSet;

use crate::history::{History, Op, OpRecord, Outcome};

use super::{Violation, ViolationKind};

/// One operation in normalized form.
#[derive(Clone, Copy, Debug)]
enum LinOp {
    /// Mutation to `Option<u64>` (write of `Some(v)`, delete to `None`) with
    /// `definite = true` for acknowledged mutations, `false` for timeouts
    /// (which may linearize or never take effect).
    Mutate { to: Option<u64>, definite: bool },
    /// A read that returned `ret`.
    Read { ret: Option<u64> },
}

struct Entry {
    op: LinOp,
    start: u64,
    end: u64,
}

/// Checks whether the operations on `key` are linearizable as an atomic
/// register initialized to `initial`.
///
/// Returns a [`ViolationKind::NotLinearizable`] violation when no
/// linearization exists. Failed mutations and timed-out reads constrain
/// nothing and are dropped before the search.
pub fn check_linearizable_register(
    hist: &History,
    key: &str,
    initial: Option<u64>,
) -> Vec<Violation> {
    let entries = normalize(hist, key);
    let mut done = vec![0u64; entries.len().div_ceil(64)];
    let mut memo = BTreeSet::new();
    if search(&entries, &mut done, entries.len(), initial, &mut memo) {
        Vec::new()
    } else {
        vec![Violation::new(
            ViolationKind::NotLinearizable,
            format!(
                "no linearization of the {} operations on {key:?} exists",
                entries.len()
            ),
        )]
    }
}

fn normalize(hist: &History, key: &str) -> Vec<Entry> {
    let mut entries = Vec::new();
    for r in hist.for_key(key) {
        let op = to_lin_op(r);
        if let Some(op) = op {
            entries.push(Entry {
                op,
                start: r.start,
                end: r.end,
            });
        }
    }
    entries
}

fn to_lin_op(r: &OpRecord) -> Option<LinOp> {
    match (&r.op, &r.outcome) {
        (Op::Write { val, .. }, o) if o.is_ok() => Some(LinOp::Mutate {
            to: Some(*val),
            definite: true,
        }),
        (Op::Write { val, .. }, Outcome::Timeout) => Some(LinOp::Mutate {
            to: Some(*val),
            definite: false,
        }),
        (Op::Delete { .. }, o) if o.is_ok() => Some(LinOp::Mutate {
            to: None,
            definite: true,
        }),
        (Op::Delete { .. }, Outcome::Timeout) => Some(LinOp::Mutate {
            to: None,
            definite: false,
        }),
        (Op::Read { .. }, Outcome::Ok(ret)) => Some(LinOp::Read { ret: *ret }),
        // Failed mutations must not apply; failed/timed-out reads constrain
        // nothing.
        _ => None,
    }
}

/// Whether operation `i` is in the done-set, a bitset of 64-bit words.
fn is_done(done: &[u64], i: usize) -> bool {
    done[i / 64] & (1 << (i % 64)) != 0
}

/// Searches for a linearization of the `left` operations not in `done`,
/// starting from register `value`. The memo holds every (done-set, value)
/// state already shown to lead nowhere.
fn search(
    entries: &[Entry],
    done: &mut [u64],
    left: usize,
    value: Option<u64>,
    memo: &mut BTreeSet<(Vec<u64>, Option<u64>)>,
) -> bool {
    if left == 0 {
        return true;
    }
    if !memo.insert((done.to_vec(), value)) {
        return false;
    }
    for (i, e) in entries.iter().enumerate() {
        if is_done(done, i) {
            continue;
        }
        // Minimality: no other pending op must fully precede `e`.
        let minimal = entries
            .iter()
            .enumerate()
            .all(|(j, p)| j == i || is_done(done, j) || p.end >= e.start);
        if !minimal {
            continue;
        }
        done[i / 64] |= 1 << (i % 64);
        let found = match e.op {
            // A timed-out mutation may also never take effect.
            LinOp::Mutate { to, definite } => {
                search(entries, done, left - 1, to, memo)
                    || (!definite && search(entries, done, left - 1, value, memo))
            }
            LinOp::Read { ret } => ret == value && search(entries, done, left - 1, value, memo),
        };
        done[i / 64] &= !(1 << (i % 64));
        if found {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::hist;
    use simnet::NodeId;

    fn w(val: u64, outcome: Outcome, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(0),
            op: Op::Write {
                key: "k".into(),
                val,
            },
            outcome,
            start,
            end,
        }
    }
    fn r(ret: Option<u64>, start: u64, end: u64) -> OpRecord {
        OpRecord {
            client: NodeId(1),
            op: Op::Read { key: "k".into() },
            outcome: Outcome::Ok(ret),
            start,
            end,
        }
    }
    fn linearizable(h: &History) -> bool {
        check_linearizable_register(h, "k", None).is_empty()
    }

    #[test]
    fn empty_history_is_linearizable() {
        assert!(linearizable(&hist(vec![])));
    }

    #[test]
    fn sequential_write_read_is_linearizable() {
        assert!(linearizable(&hist(vec![
            w(1, Outcome::Ok(None), 0, 5),
            r(Some(1), 10, 12),
        ])));
    }

    #[test]
    fn stale_read_is_not_linearizable() {
        assert!(!linearizable(&hist(vec![
            w(1, Outcome::Ok(None), 0, 5),
            w(2, Outcome::Ok(None), 10, 15),
            r(Some(1), 20, 22),
        ])));
    }

    #[test]
    fn concurrent_write_read_either_value_ok() {
        let base = vec![w(1, Outcome::Ok(None), 0, 5), w(2, Outcome::Ok(None), 10, 30)];
        let mut h1 = base.clone();
        h1.push(r(Some(1), 12, 14));
        assert!(linearizable(&hist(h1)));
        let mut h2 = base;
        h2.push(r(Some(2), 12, 14));
        assert!(linearizable(&hist(h2)));
    }

    #[test]
    fn dirty_read_is_not_linearizable() {
        assert!(!linearizable(&hist(vec![
            w(7, Outcome::Fail, 0, 5),
            r(Some(7), 10, 12),
        ])));
    }

    #[test]
    fn timeout_write_may_or_may_not_apply() {
        let seen = hist(vec![w(7, Outcome::Timeout, 0, 5), r(Some(7), 10, 12)]);
        assert!(linearizable(&seen));
        let unseen = hist(vec![w(7, Outcome::Timeout, 0, 5), r(None, 10, 12)]);
        assert!(linearizable(&unseen));
    }

    #[test]
    fn timeout_write_cannot_flip_flop() {
        // Once observed, a timed-out write has linearized; it cannot unapply.
        assert!(!linearizable(&hist(vec![
            w(7, Outcome::Timeout, 0, 5),
            r(Some(7), 10, 12),
            r(None, 20, 22),
        ])));
    }

    #[test]
    fn read_skew_across_partition_is_caught() {
        // Two reads in sequence observe new-then-old: impossible.
        assert!(!linearizable(&hist(vec![
            w(1, Outcome::Ok(None), 0, 2),
            w(2, Outcome::Ok(None), 4, 6),
            r(Some(2), 10, 12),
            r(Some(1), 14, 16),
        ])));
    }

    #[test]
    fn delete_linearizes_to_none() {
        let d = OpRecord {
            client: NodeId(0),
            op: Op::Delete { key: "k".into() },
            outcome: Outcome::Ok(None),
            start: 10,
            end: 12,
        };
        assert!(linearizable(&hist(vec![
            w(1, Outcome::Ok(None), 0, 2),
            d,
            r(None, 20, 22),
        ])));
    }

    #[test]
    fn initial_value_respected() {
        let h = hist(vec![r(Some(9), 0, 2)]);
        assert!(check_linearizable_register(&h, "k", Some(9)).is_empty());
        assert!(!check_linearizable_register(&h, "k", None).is_empty());
    }

    /// 50 write/read pairs, one after another: 100 operations, past the
    /// 63 a one-word done-set could hold.
    fn hundred_sequential_ops() -> Vec<OpRecord> {
        (0..50u64)
            .flat_map(|i| {
                [
                    w(i, Outcome::Ok(None), 20 * i, 20 * i + 5),
                    r(Some(i), 20 * i + 10, 20 * i + 15),
                ]
            })
            .collect()
    }

    #[test]
    fn a_hundred_sequential_ops_are_linearizable() {
        assert!(linearizable(&hist(hundred_sequential_ops())));
    }

    #[test]
    fn a_stale_read_after_a_hundred_ops_is_not_linearizable() {
        let mut ops = hundred_sequential_ops();
        let last = ops.last_mut().expect("a non-empty history");
        last.outcome = Outcome::Ok(Some(48));
        assert!(!linearizable(&hist(ops)));
    }
}
