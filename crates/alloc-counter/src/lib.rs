//! A counting global allocator for deterministic perf gating.
//!
//! [`CountingAlloc`] wraps the system allocator and counts every
//! allocation into a thread-local counter. Because each simulation run is
//! single-threaded and deterministic, the *allocation count* of a run is
//! a pure function of the seed — a perf metric that can be asserted
//! exactly in CI, unlike wall-clock time. The perf gate
//! (`tests/perf_gate.rs`) and `bench --bin {perf,artifacts}` install it
//! with `#[global_allocator]` and compare counts across
//! fingerprinting modes: the audit fast path must add *zero* allocations
//! over a plain traced run.
//!
//! The counter is thread-local (const-initialized, so reading it never
//! recursively allocates) — parallel test threads cannot pollute each
//! other's counts.
//!
//! This crate is the workspace's sole audited `unsafe` exception: a
//! `GlobalAlloc` impl cannot be written without `unsafe`. The impl only
//! forwards to [`System`] — the unsafety is confined to that delegation.

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` init: plain TLS with no lazy-init allocation, which would
    // recurse into the allocator being counted.
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn bump() {
    // `try_with` so an allocation during TLS teardown cannot panic.
    let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// A `GlobalAlloc` that counts allocations per thread and forwards to the
/// system allocator. Install with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;`
/// (the use site needs no `unsafe`).
pub struct CountingAlloc;

// lint:allow(unsafe-code) -- GlobalAlloc is an unsafe trait; this impl only forwards to System
unsafe impl GlobalAlloc for CountingAlloc {
    // lint:allow(unsafe-code) -- trait method signature; body delegates to System
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    // lint:allow(unsafe-code) -- trait method signature; body delegates to System
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // lint:allow(unsafe-code) -- trait method signature; body delegates to System
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    // lint:allow(unsafe-code) -- trait method signature; body delegates to System
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations (alloc + alloc_zeroed + realloc calls) made by the current
/// thread since it started. Always 0 unless the enclosing binary installed
/// [`CountingAlloc`] as its `#[global_allocator]`.
pub fn current_thread_allocations() -> u64 {
    LOCAL_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns `(result, allocations f made on this thread)`.
///
/// Only meaningful in binaries that installed [`CountingAlloc`]; elsewhere
/// the count is always 0. The count is deterministic for deterministic
/// `f`: same work ⇒ same allocation sequence ⇒ same count.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = current_thread_allocations();
    let out = f();
    let after = current_thread_allocations();
    (out, after - before)
}

/// Probes whether the counting allocator is live in this binary by making
/// one boxed allocation and checking the counter moved. Gates let tests
/// fail loudly if the harness forgot the `#[global_allocator]` line.
pub fn is_counting() -> bool {
    let before = current_thread_allocations();
    let probe = std::hint::black_box(Box::new(0xA110Cu32));
    drop(probe);
    current_thread_allocations() > before
}

#[cfg(test)]
mod tests {
    use super::*;

    // The lib's own test binary installs the allocator, so the counting
    // behaviour is testable right here.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    #[test]
    fn probe_detects_the_installed_allocator() {
        assert!(is_counting());
    }

    #[test]
    fn count_allocations_sees_exactly_the_boxes_made() {
        let (_, none) = count_allocations(|| 1 + 1);
        assert_eq!(none, 0, "arithmetic must not allocate");
        let ((), some) = count_allocations(|| {
            let v = std::hint::black_box(vec![1u8, 2, 3]);
            drop(v);
        });
        assert_eq!(some, 1, "one Vec, one allocation");
    }

    #[test]
    fn counts_are_deterministic_for_identical_work() {
        let work = || {
            let mut s = String::new();
            for i in 0..100 {
                s.push_str(&format!("line {i}\n"));
            }
            std::hint::black_box(s.len())
        };
        let (_, a) = count_allocations(work);
        let (_, b) = count_allocations(work);
        assert_eq!(a, b, "same work must allocate identically");
        assert!(a > 0);
    }
}
