//! Lock and semaphore checkers: double locking, broken locks.
//!
//! The paper groups "double locking, lock corruption, and failure to unlock"
//! as *broken locks* (Table 2) and reports semaphore double-locking in Ignite
//! as a flagship NEAT finding (Figure 5).

use std::collections::BTreeMap;

use simnet::{NodeId, Time};

use crate::history::{History, Op, Outcome};

use super::{Violation, ViolationKind};

/// A client's holding interval for a resource: `[from, until)`, with
/// `until = Time::MAX` while never successfully released.
#[derive(Clone, Copy, Debug)]
struct Hold {
    client: NodeId,
    from: Time,
    until: Time,
}

/// Extracts holding intervals for `key`, plus releases without a matching
/// acquire (lock corruption).
///
/// A *timed-out* acquire has unknown effect: it opens a potential hold that
/// can absorb a later successful release (so the release is not flagged),
/// but it never contributes a holding interval — an overlap with a
/// maybe-hold is not provable double locking.
fn holds(hist: &History, key: &str) -> (Vec<Hold>, Vec<Violation>) {
    let mut out = Vec::new();
    let mut violations = Vec::new();
    // Open holds per client (a client may hold several semaphore permits).
    let mut open: BTreeMap<NodeId, Vec<Time>> = BTreeMap::new();
    let mut open_unknown: BTreeMap<NodeId, usize> = BTreeMap::new();
    for r in hist.for_key(key) {
        match (&r.op, &r.outcome) {
            (Op::Acquire { .. }, o) if o.is_ok() => {
                open.entry(r.client).or_default().push(r.end);
            }
            (Op::Acquire { .. }, Outcome::Timeout) => {
                *open_unknown.entry(r.client).or_default() += 1;
            }
            (Op::Release { .. }, o) if o.is_ok() => {
                match open.get_mut(&r.client).and_then(|v| v.pop()) {
                    Some(from) => out.push(Hold {
                        client: r.client,
                        from,
                        until: r.end,
                    }),
                    None => {
                        let unknown = open_unknown.entry(r.client).or_default();
                        if *unknown > 0 {
                            // The timed-out acquire evidently took effect.
                            *unknown -= 1;
                        } else {
                            violations.push(Violation::new(
                                ViolationKind::BrokenLock,
                                format!(
                                    "{} successfully released {key:?} at t={} while not holding it",
                                    r.client, r.end
                                ),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    for (client, froms) in open {
        for from in froms {
            out.push(Hold {
                client,
                from,
                until: Time::MAX,
            });
        }
    }
    (out, violations)
}

fn overlapping(a: &Hold, b: &Hold) -> bool {
    a.from < b.until && b.from < a.until
}

/// Checks mutual exclusion: at most one client may hold `key` at any time.
pub fn check_mutex(hist: &History, key: &str) -> Vec<Violation> {
    check_semaphore(hist, key, 1)
}

/// Checks a counting semaphore with `permits` total permits.
///
/// Reports [`ViolationKind::DoubleLocking`] when more than `permits` holds
/// overlap in time, and [`ViolationKind::BrokenLock`] for releases without a
/// matching acquire.
pub fn check_semaphore(hist: &History, key: &str, permits: usize) -> Vec<Violation> {
    let (holds, mut out) = holds(hist, key);
    // Sweep: at each hold start, count how many holds cover that instant.
    for (i, h) in holds.iter().enumerate() {
        let concurrent: Vec<&Hold> = holds
            .iter()
            .enumerate()
            .filter(|(j, o)| *j != i && overlapping(h, o))
            .map(|(_, o)| o)
            .collect();
        if concurrent.len() + 1 > permits {
            // Report once, from the lexically first involved hold.
            if concurrent.iter().all(|o| (o.from, o.client) >= (h.from, h.client)) {
                let holders: Vec<String> = std::iter::once(h)
                    .chain(concurrent.iter().copied())
                    .map(|o| format!("{}@t={}", o.client, o.from))
                    .collect();
                out.push(Violation::new(
                    ViolationKind::DoubleLocking,
                    format!(
                        "{key:?} (permits={permits}) held concurrently by {}",
                        holders.join(", ")
                    ),
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
    use crate::history::{OpRecord, Outcome};

    fn acq(client: usize, key: &str, outcome: Outcome, start: Time, end: Time) -> OpRecord {
        OpRecord {
            client: NodeId(client),
            op: Op::Acquire { key: key.into() },
            outcome,
            start,
            end,
        }
    }
    fn rel(client: usize, key: &str, outcome: Outcome, start: Time, end: Time) -> OpRecord {
        OpRecord {
            client: NodeId(client),
            op: Op::Release { key: key.into() },
            outcome,
            start,
            end,
        }
    }
    fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
        vs.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn sequential_locking_is_clean() {
        let h = hist(vec![
            acq(1, "l", Outcome::Ok(None), 0, 2),
            rel(1, "l", Outcome::Ok(None), 5, 6),
            acq(2, "l", Outcome::Ok(None), 10, 12),
        ]);
        assert!(check_mutex(&h, "l").is_empty());
    }

    #[test]
    fn double_locking_detected() {
        // Figure 5: both partition sides grant the same semaphore.
        let h = hist(vec![
            acq(1, "l", Outcome::Ok(None), 0, 2),
            acq(2, "l", Outcome::Ok(None), 5, 7),
        ]);
        let v = check_mutex(&h, "l");
        assert_eq!(kinds(&v), vec![ViolationKind::DoubleLocking]);
    }

    #[test]
    fn failed_acquire_holds_nothing() {
        let h = hist(vec![
            acq(1, "l", Outcome::Ok(None), 0, 2),
            acq(2, "l", Outcome::Fail, 5, 7),
        ]);
        assert!(check_mutex(&h, "l").is_empty());
    }

    #[test]
    fn release_frees_the_lock() {
        let h = hist(vec![
            acq(1, "l", Outcome::Ok(None), 0, 2),
            rel(1, "l", Outcome::Ok(None), 3, 4),
            acq(2, "l", Outcome::Ok(None), 10, 12),
            rel(2, "l", Outcome::Ok(None), 13, 14),
        ]);
        assert!(check_mutex(&h, "l").is_empty());
    }

    #[test]
    fn release_without_acquire_is_broken_lock() {
        // The Ignite semaphore-reclaim failure: the system reclaimed the
        // permit, then the healed client's signal corrupts the semaphore.
        let h = hist(vec![rel(1, "l", Outcome::Ok(None), 3, 4)]);
        let v = check_mutex(&h, "l");
        assert_eq!(kinds(&v), vec![ViolationKind::BrokenLock]);
    }

    #[test]
    fn semaphore_respects_capacity() {
        let two_holders = hist(vec![
            acq(1, "s", Outcome::Ok(None), 0, 2),
            acq(2, "s", Outcome::Ok(None), 5, 7),
        ]);
        assert!(check_semaphore(&two_holders, "s", 2).is_empty());
        let three_holders = hist(vec![
            acq(1, "s", Outcome::Ok(None), 0, 2),
            acq(2, "s", Outcome::Ok(None), 5, 7),
            acq(3, "s", Outcome::Ok(None), 8, 9),
        ]);
        let v = check_semaphore(&three_holders, "s", 2);
        assert_eq!(kinds(&v), vec![ViolationKind::DoubleLocking]);
    }

    #[test]
    fn reacquire_after_own_release_is_clean() {
        let h = hist(vec![
            acq(1, "l", Outcome::Ok(None), 0, 2),
            rel(1, "l", Outcome::Ok(None), 3, 4),
            acq(1, "l", Outcome::Ok(None), 5, 6),
        ]);
        assert!(check_mutex(&h, "l").is_empty());
    }

    #[test]
    fn one_client_two_permits() {
        let h = hist(vec![
            acq(1, "s", Outcome::Ok(None), 0, 2),
            acq(1, "s", Outcome::Ok(None), 3, 4),
        ]);
        assert!(check_semaphore(&h, "s", 2).is_empty());
        assert_eq!(
            kinds(&check_semaphore(&h, "s", 1)),
            vec![ViolationKind::DoubleLocking]
        );
    }

    #[test]
    fn release_after_timeout_acquire_is_not_broken() {
        // The acquire's outcome was unknown; the grid evidently granted it,
        // so the successful release is legitimate.
        let h = hist(vec![
            acq(1, "l", Outcome::Timeout, 0, 2),
            rel(1, "l", Outcome::Ok(None), 5, 6),
        ]);
        assert!(check_mutex(&h, "l").is_empty());
    }

    #[test]
    fn timeout_acquire_does_not_prove_double_locking() {
        let h = hist(vec![
            acq(1, "l", Outcome::Timeout, 0, 2),
            acq(2, "l", Outcome::Ok(None), 5, 7),
        ]);
        assert!(check_mutex(&h, "l").is_empty());
    }

    #[test]
    fn second_unmatched_release_is_still_broken() {
        let h = hist(vec![
            acq(1, "l", Outcome::Timeout, 0, 2),
            rel(1, "l", Outcome::Ok(None), 5, 6),
            rel(1, "l", Outcome::Ok(None), 8, 9),
        ]);
        let v = check_mutex(&h, "l");
        assert_eq!(kinds(&v), vec![ViolationKind::BrokenLock]);
    }

    #[test]
    fn overlap_reported_once() {
        let h = hist(vec![
            acq(1, "l", Outcome::Ok(None), 0, 2),
            acq(2, "l", Outcome::Ok(None), 5, 7),
            acq(3, "l", Outcome::Ok(None), 8, 9),
        ]);
        let v = check_mutex(&h, "l");
        assert_eq!(v.len(), 1, "{v:?}");
    }
}
