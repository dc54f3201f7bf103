//! The worker pool: a shared atomic cursor over indexed work.
//!
//! Every simulation in the workspace is single-threaded and a pure
//! function of its seed (enforced by `crates/lint` and the double-run
//! auditor). That makes campaign execution embarrassingly parallel: work
//! items are *indices* into a deterministic work list — a flattened
//! (seed × arm) grid for sweeps — workers race only over *which* item
//! they pull next, and the reduce step restores index order, so the
//! merged result is byte-identical for any worker count.
//!
//! Scheduling is one shared cursor: each worker claims the next index
//! with a `fetch_add(1)` until the cursor passes the end, so no index is
//! ever run twice and none is lost. An item is a whole simulation, so one
//! atomic per item costs nothing next to it, and a worker that finishes
//! early simply takes the next item. Each worker keeps one scratch state
//! across the items it runs, which is what lets [`map_with`] reuse a test
//! target or an arena across consecutive trials.
//!
//! This module is the **only** place in the workspace allowed to start OS
//! threads. Each `lint:allow(thread-spawn)` below is an audited exception;
//! the scanner refuses the same directive anywhere outside `crates/fleet`
//! (see `lint::scan`), so simulation crates stay single-threaded by
//! construction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counters describing how a grid run was scheduled.
///
/// All four are pure functions of `(jobs, n)`, so they are safe to pin in
/// goldens. The cursor claims one index at a time and never steals, so
/// `batch` is always 1, `batches` is `n` and `steals` is 0; the fields
/// keep the shape the benchmark ledger reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GridStats {
    /// Worker threads used (1 means the serial fast path, no threads).
    pub workers: usize,
    /// Indices claimed per cursor `fetch_add`: always 1.
    pub batch: usize,
    /// Total successful claims across all workers: one per item.
    pub batches: u64,
    /// Claims served from another worker's share: always 0.
    pub steals: u64,
}

/// Applies `f` to every index in `0..n` using up to `jobs` worker
/// threads and returns the results in index order.
///
/// `f` must be a pure function of its index; the index-sorted reduce
/// makes the output independent of scheduling. `jobs <= 1` degenerates to
/// a plain serial loop with no threads at all.
///
/// A panic in `f` is re-raised naming its item; see [`grid`].
pub fn map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_with(jobs, n, || (), move |(), i| f(i))
}

/// Like [`map`], but threads a per-worker scratch state through every
/// item a worker runs: `init` builds one `S` per worker (and one for the
/// serial path), and `f` gets `&mut S` alongside the index.
///
/// The scratch is an *optimisation channel*, not a data channel: `f`
/// must produce the same result for an index whatever sequence of other
/// indices touched the scratch before it (e.g. a reusable test target
/// that is fully `reset` per trial, or a preallocated buffer that is
/// cleared per use). The fleet equivalence suites assert exactly that by
/// comparing serial and parallel runs byte for byte.
pub fn map_with<S, T, IF, F>(jobs: usize, n: usize, init: IF, f: F) -> Vec<T>
where
    T: Send,
    IF: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    grid(jobs, n, init, f).0
}

/// Runs item `i`. A panic in `f` becomes `Err(message)` and costs the
/// worker its scratch, which the unwind may have left half-updated: the
/// next item gets a fresh one from `init`.
fn run_item<S, T>(
    init: &impl Fn() -> S,
    f: &impl Fn(&mut S, usize) -> T,
    scratch: &mut S,
    i: usize,
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| f(scratch, i))).map_err(|payload| {
        *scratch = init();
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or_else(|| "<panic payload is not a string>".into(), |m| m.to_string()),
        }
    })
}

/// Re-raises item `i`'s panic under its index.
fn unwrap_item<T>(i: usize, item: Result<T, String>) -> T {
    item.unwrap_or_else(|message| panic!("fleet item {i}: {message}"))
}

/// The full grid: [`map_with`] plus the [`GridStats`] describing how
/// the run was scheduled.
///
/// A panic in `f` is re-raised as `fleet item <i>: <original message>`
/// for the lowest failed index, whatever `jobs` is: the serial loop stops
/// at its first failure, and workers finish the rest of the grid, join,
/// and only then is the lowest one raised.
pub fn grid<S, T, IF, F>(jobs: usize, n: usize, init: IF, f: F) -> (Vec<T>, GridStats)
where
    T: Send,
    IF: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    let stats = GridStats {
        workers: jobs,
        batch: 1,
        batches: n as u64,
        steals: 0,
    };
    if jobs <= 1 {
        let mut scratch = init();
        let out = (0..n)
            .map(|i| unwrap_item(i, run_item(&init, &f, &mut scratch, i)))
            .collect();
        return (out, stats);
    }

    let cursor = AtomicUsize::new(0);
    let merged: Mutex<Vec<(usize, Result<T, String>)>> = Mutex::new(Vec::with_capacity(n));
    // The audited orchestration boundary: scoped workers execute
    // single-threaded deterministic simulations in parallel.
    #[allow(clippy::disallowed_methods)]
    // lint:allow(thread-spawn) -- audited: deterministic index-sorted reduce
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let (cursor, merged, init, f) = (&cursor, &merged, &init, &f);
            // lint:allow(thread-spawn) -- audited worker of the fleet grid
            scope.spawn(move || {
                let mut scratch = init();
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, run_item(init, f, &mut scratch, i)));
                }
                match merged.lock() {
                    Ok(mut all) => all.extend(local),
                    // A sibling worker panicked while merging; the scope
                    // will re-raise its panic once all workers join.
                    Err(poisoned) => poisoned.into_inner().extend(local),
                }
            });
        }
    });

    let mut all = match merged.into_inner() {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    };
    all.sort_by_key(|&(i, _)| i);
    assert_eq!(all.len(), n, "fleet reduce lost work items");
    (all.into_iter().map(|(i, item)| unwrap_item(i, item)).collect(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order_for_any_jobs() {
        let serial: Vec<usize> = (0..97).map(|i| i * i).collect();
        for jobs in [1, 2, 4, 8, 16] {
            assert_eq!(map(jobs, 97, |i| i * i), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_items_is_empty() {
        assert_eq!(map(4, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn more_jobs_than_items_still_covers_everything() {
        assert_eq!(map(64, 3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn single_job_spawns_no_threads_and_matches() {
        assert_eq!(map(1, 5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn results_are_values_not_indices() {
        let out = map(4, 10, |i| format!("item-{i}"));
        assert_eq!(out[7], "item-7");
    }

    #[test]
    fn scratch_is_reused_within_a_worker_but_results_stay_pure() {
        // The scratch counts how many items its worker ran; the *result*
        // must not depend on it. Compare against serial.
        let serial = map_with(1, 200, || 0u64, |seen, i| {
            *seen += 1;
            i * 3
        });
        for jobs in [2, 4, 8] {
            let par = map_with(jobs, 200, || 0u64, |seen, i| {
                *seen += 1;
                i * 3
            });
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn batch_claims_are_deterministic_for_fixed_jobs_and_n() {
        // One claim per item whichever worker takes it, so the stats are a
        // pure function of (jobs, n) and never report a steal.
        let (out, s1) = grid(4, 103, || (), |(), i| i);
        let (_, s2) = grid(4, 103, || (), |(), i| i);
        assert_eq!(out, (0..103).collect::<Vec<_>>());
        assert_eq!(s1, s2);
        assert_eq!(
            s1,
            GridStats {
                workers: 4,
                batch: 1,
                batches: 103,
                steals: 0
            }
        );
        // More workers than items: one worker per item.
        assert_eq!(grid(4, 3, || (), |(), i| i).1.workers, 3);
    }

    #[test]
    fn serial_grid_reports_one_worker_and_no_steals() {
        let (out, stats) = grid(1, 10, || (), |(), i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        assert_eq!(
            stats,
            GridStats {
                workers: 1,
                batch: 1,
                batches: 10,
                steals: 0
            }
        );
    }

    #[test]
    fn a_panicking_item_is_named_the_same_at_any_jobs() {
        for jobs in [1, 4] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                grid(jobs, 40, || 0u32, |since_init, i| {
                    // Item 7 dirties the scratch on its way down; whoever
                    // runs next on that worker must get a fresh one.
                    assert!(*since_init < 100, "item {i} inherited a torn scratch");
                    *since_init = 100;
                    assert!(i != 7 && i != 23, "arm {i} exploded");
                    *since_init = 1;
                    ran.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let message = *caught.expect_err("the grid re-raises").downcast::<String>().expect("str");
            assert_eq!(message, "fleet item 7: arm 7 exploded", "jobs={jobs}");
            // Serial stops at item 7; workers finish the grid before raising.
            assert_eq!(ran.into_inner(), if jobs == 1 { 7 } else { 38 }, "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_grids_cover_every_index_exactly_once() {
        for n in [1usize, 2, 7, 64, 65, 129, 1000] {
            for jobs in [2usize, 3, 5, 8] {
                let out = map(jobs, n, |i| i);
                assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n} jobs={jobs}");
            }
        }
    }
}
