//! Delta-debugging (ddmin) repro minimization for fault schedules.
//!
//! When an explored schedule trips a checker, the minimizer shrinks it to
//! a 1-minimal nemesis sequence: removing *any single remaining step*
//! makes the violation disappear. The reduction is sound because replay
//! is deterministic — a sub-schedule either reproduces the violation on
//! every run or on none — and because client steps carry their own RNG
//! seeds ([`super::schedule`]), so deleting a step never perturbs the
//! steps that survive. Minimized schedules are small enough to read and
//! stable enough to commit as permanent regression scenarios. Neither
//! [`ddmin`] nor [`is_one_minimal`] knows what a step is: the caller's
//! predicate replays whatever sequence is being shrunk.

#![deny(missing_docs)]

/// Zeller's ddmin over any sequence — schedule steps, action ordinals:
/// returns a subsequence of `steps` (in original order) on which `test`
/// still holds, 1-minimal with respect to single-step removal.
///
/// `test` must hold on `steps` itself; callers check that before
/// minimizing.
pub fn ddmin<T: Clone>(steps: &[T], mut test: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current = steps.to_vec();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let len = current.len();
        let chunk = len.div_ceil(granularity);
        let mut reduced = false;

        // Try each chunk alone: a fast path when one step family carries
        // the whole repro.
        let mut start = 0;
        while start < len {
            let end = (start + chunk).min(len);
            let subset = current[start..end].to_vec();
            if subset.len() < len && test(&subset) {
                current = subset;
                granularity = 2;
                reduced = true;
                break;
            }
            start += chunk;
        }

        // Then each complement: drop one chunk, keep the rest.
        if !reduced {
            let mut start = 0;
            while start < len {
                let end = (start + chunk).min(len);
                let mut complement = current[..start].to_vec();
                complement.extend_from_slice(&current[end..]);
                if complement.len() < len && test(&complement) {
                    current = complement;
                    granularity = (granularity - 1).max(2);
                    reduced = true;
                    break;
                }
                start += chunk;
            }
        }

        if !reduced {
            if granularity >= len {
                // Every single-step removal fails: 1-minimal.
                break;
            }
            granularity = (granularity * 2).min(len);
        }
    }
    current
}

/// `true` when `test` holds on `steps` but on no variant with one step
/// removed — the 1-minimality certificate the bench artifact records.
pub fn is_one_minimal<T: Clone>(steps: &[T], mut test: impl FnMut(&[T]) -> bool) -> bool {
    if !test(steps) {
        return false;
    }
    for skip in 0..steps.len() {
        let mut variant = steps.to_vec();
        variant.remove(skip);
        if test(&variant) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{EventChoice, ScheduleStep};

    fn client(ev: EventChoice, seed: u64) -> ScheduleStep {
        ScheduleStep::Client(ev, seed)
    }

    /// The repro needs a write (any) followed later by a read (any);
    /// everything else is noise.
    fn write_then_read(steps: &[ScheduleStep]) -> bool {
        let wrote = steps
            .iter()
            .position(|s| matches!(s, ScheduleStep::Client(EventChoice::Write, _)));
        match wrote {
            None => false,
            Some(w) => steps[w..]
                .iter()
                .any(|s| matches!(s, ScheduleStep::Client(EventChoice::Read, _))),
        }
    }

    fn noisy_plan() -> Vec<ScheduleStep> {
        vec![
            ScheduleStep::Sleep(100),
            client(EventChoice::Delete, 1),
            client(EventChoice::Write, 2),
            ScheduleStep::Heal,
            client(EventChoice::Delete, 3),
            client(EventChoice::Read, 4),
            ScheduleStep::Sleep(200),
        ]
    }

    #[test]
    fn ddmin_shrinks_to_the_two_essential_steps() {
        let min = ddmin(&noisy_plan(), write_then_read);
        assert_eq!(min.len(), 2, "{min:?}");
        assert!(matches!(
            min[0],
            ScheduleStep::Client(EventChoice::Write, 2)
        ));
        assert!(matches!(min[1], ScheduleStep::Client(EventChoice::Read, 4)));
    }

    #[test]
    fn ddmin_result_is_one_minimal() {
        let min = ddmin(&noisy_plan(), write_then_read);
        assert!(is_one_minimal(&min, write_then_read));
        assert!(
            !is_one_minimal(&noisy_plan(), write_then_read),
            "the unminimized plan has removable noise"
        );
    }

    #[test]
    fn ddmin_keeps_order_dependent_steps_in_order() {
        // Read-before-write must not satisfy the predicate.
        let plan = vec![
            client(EventChoice::Read, 1),
            client(EventChoice::Write, 2),
            client(EventChoice::Read, 3),
        ];
        let min = ddmin(&plan, write_then_read);
        assert!(write_then_read(&min));
        assert!(is_one_minimal(&min, write_then_read));
    }

    #[test]
    fn ddmin_on_an_already_minimal_plan_is_identity() {
        let plan = vec![client(EventChoice::Write, 1), client(EventChoice::Read, 2)];
        let min = ddmin(&plan, write_then_read);
        assert_eq!(min.len(), 2);
    }

    #[test]
    fn ddmin_handles_single_step_plans() {
        let plan = vec![client(EventChoice::Write, 1)];
        let has_write = |s: &[ScheduleStep]| {
            s.iter()
                .any(|x| matches!(x, ScheduleStep::Client(EventChoice::Write, _)))
        };
        assert_eq!(ddmin(&plan, has_write).len(), 1);
        assert_eq!(ddmin(&[], has_write).len(), 0);
    }

    #[test]
    fn ddmin_minimizes_action_ordinals_too() {
        // A repro that needs actions 3 and 7, in any order, among ten.
        let needs_3_and_7 = |s: &[u32]| s.contains(&3) && s.contains(&7);
        let actions: Vec<u32> = (0..10).collect();
        let min = ddmin(&actions, needs_3_and_7);
        assert_eq!(min, vec![3, 7]);
        assert!(is_one_minimal(&min, needs_3_and_7));
    }
}
