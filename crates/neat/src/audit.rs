//! Trace-divergence auditing: the dynamic complement to the static
//! determinism pass in `crates/lint`.
//!
//! DESIGN.md §6 guarantees *same seed ⇒ same trace*. The static pass keeps
//! nondeterminism sources (wall clocks, OS entropy, hash-order iteration)
//! out of the source; this module closes the loop at runtime by
//! fingerprinting executions and comparing double-runs. A scenario is
//! audited by running it twice with the identical seed and hashing
//! everything observable about each run — the `simnet` trace log, the
//! operation history, checker verdicts, final state, and (since the
//! forensics layer landed) the full `obs` event timeline.
//!
//! An execution fingerprint is the compact `Debug` (`{:?}`) of what a run
//! returned: every field, on one line ([`fingerprint`]). The fast path
//! never materializes it: [`FingerHasher`] folds the byte stream into
//! FNV-1a as `Debug` emits it, so the two runs of an arm cost two hashes,
//! not two `String`s. Only when the hashes disagree does the auditor
//! render both runs and hand them to [`compare_runs`], which names the
//! first differing byte and shows both runs around it — the actual
//! debugging handle.

#![deny(missing_docs)]

/// 64-bit FNV-1a over raw bytes. Stable across platforms and runs; not
/// cryptographic — collisions between *intentionally different* traces are
/// astronomically unlikely, which is all an auditor needs.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FingerHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Hash of a rendered execution fingerprint (trace log, history, …).
pub fn trace_hash(fingerprint: &str) -> u64 {
    fnv1a_64(fingerprint.as_bytes())
}

/// An incremental FNV-1a 64 hasher that doubles as a [`std::fmt::Write`]
/// sink, so `write!(hasher, "{:?}", value)` hashes **exactly the byte
/// stream** that `format!("{:?}", value)` would have collected into a
/// `String` — without ever allocating it. The formatting machinery routes
/// every fragment through `write_str`, and FNV-1a folds bytes one at a
/// time, so fragment boundaries cannot change the result:
/// `stream_hash(&v) == trace_hash(&fingerprint(&v))` byte-for-byte.
#[derive(Clone, Copy, Debug)]
pub struct FingerHasher {
    h: u64,
}

impl FingerHasher {
    /// A fresh hasher at the FNV-1a offset basis (equals `fnv1a_64(b"")`).
    pub fn new() -> Self {
        FingerHasher {
            h: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds raw bytes into the running hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.h;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.h = h;
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

impl Default for FingerHasher {
    fn default() -> Self {
        FingerHasher::new()
    }
}

impl std::fmt::Write for FingerHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// `value`'s execution fingerprint: its compact `Debug`, the bytes
/// [`stream_hash`] folds. `Debug` escapes the line breaks inside strings,
/// so a derived `Debug` renders on one line.
pub fn fingerprint<T: std::fmt::Debug + ?Sized>(value: &T) -> String {
    format!("{value:?}")
}

/// Hashes `value`'s execution fingerprint without allocating it: exactly
/// `trace_hash(&fingerprint(value))`, minus the `String`.
pub fn stream_hash<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    use std::fmt::Write as _;
    let mut h = FingerHasher::new();
    // Infallible: FingerHasher::write_str never errors.
    let _ = write!(h, "{value:?}");
    h.finish()
}

/// Bytes of each run a divergence report shows on either side of the
/// first difference.
const CONTEXT: usize = 48;

/// Compares two same-seed fingerprints; `None` means bit-identical.
///
/// Otherwise the report names the first differing byte offset and shows
/// each run from 48 bytes before it to 48 bytes after, both ends cut back
/// to a char boundary and `Debug`-escaped, so the report is one line. When
/// one run is a strict prefix of the other, it gives both lengths and the
/// longer run's first extra bytes.
pub fn compare_runs(scenario: &str, seed: u64, a: &str, b: &str) -> Option<Divergence> {
    if a == b {
        return None;
    }
    let at = a.bytes().zip(b.bytes()).take_while(|(x, y)| x == y).count();
    let first_diff = if at < a.len().min(b.len()) {
        format!("byte {at}: {:?} vs {:?}", window(a, at), window(b, at))
    } else {
        // `at` ends the shorter run, a char boundary of both.
        let longer = if a.len() > b.len() { a } else { b };
        let extra = &longer[at..boundary(longer, at + CONTEXT)];
        format!(
            "run lengths differ: {} vs {} bytes; first extra bytes at {at}: {extra:?}",
            a.len(),
            b.len()
        )
    };
    Some(Divergence {
        scenario: scenario.to_string(),
        seed,
        hash_a: trace_hash(a),
        hash_b: trace_hash(b),
        first_diff,
    })
}

/// `s` from `CONTEXT` bytes before `at` to `CONTEXT` bytes after it.
fn window(s: &str, at: usize) -> &str {
    &s[boundary(s, at.saturating_sub(CONTEXT))..boundary(s, at + CONTEXT)]
}

/// The last char boundary of `s` at or before `i` (`s.len()` past the end).
fn boundary(s: &str, i: usize) -> usize {
    let mut i = i.min(s.len());
    while !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

/// One divergence between two same-seed runs of a scenario.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Scenario name.
    pub scenario: String,
    /// Seed both runs used.
    pub seed: u64,
    /// Fingerprint hash of the first run.
    pub hash_a: u64,
    /// Fingerprint hash of the second run.
    pub hash_b: u64,
    /// Where the rendered fingerprints first differ — a byte offset and
    /// both runs around it — the actual debugging handle, since the hashes
    /// only say "different".
    pub first_diff: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: seed {} diverged: {:016x} != {:016x}\n  first difference: {}",
            self.scenario, self.seed, self.hash_a, self.hash_b, self.first_diff
        )
    }
}

/// One arm's audited result — the reduce unit the fleet merges when the
/// auditor runs with `--jobs`, and the line source for serial output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Arm name, `<scenario>/<flawed|fixed>`.
    pub name: String,
    /// The fingerprint hash of the (identical) runs, or the divergence.
    pub result: Result<u64, Divergence>,
}

impl AuditOutcome {
    /// `true` when both runs produced the identical fingerprint.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The exact line the auditor prints for this arm — shared by the
    /// serial and the fleet-sharded audit paths so `--jobs K` output is
    /// byte-identical to serial.
    pub fn render(&self) -> String {
        match &self.result {
            Ok(hash) => format!("audit {}: ok {hash:016x}", self.name),
            Err(d) => format!("audit FAILED: {d}"),
        }
    }
}

/// Audits a scenario by running it twice with the same seed.
///
/// `hash_run` must stream-hash one execution's fingerprint (a pure
/// function of the seed — that is the property under test); the fast path
/// compares the two hashes and allocates nothing. Only on mismatch does
/// the auditor call `render_run` to materialize both fingerprints and
/// find the first differing byte. If the divergence then fails to
/// reproduce under re-rendering (flaky nondeterminism), the original
/// hashes are still reported so the failure is never swallowed.
pub fn audit_double_run<H, R>(
    scenario: &str,
    seed: u64,
    mut hash_run: H,
    mut render_run: R,
) -> Result<u64, Divergence>
where
    H: FnMut(u64) -> u64,
    R: FnMut(u64) -> String,
{
    let hash_a = hash_run(seed);
    let hash_b = hash_run(seed);
    if hash_a == hash_b {
        return Ok(hash_a);
    }
    let a = render_run(seed);
    let b = render_run(seed);
    match compare_runs(scenario, seed, &a, &b) {
        Some(d) => Err(d),
        // The hashed pair diverged but the re-rendered pair agreed: the
        // nondeterminism is flaky. Report the original hashes anyway.
        None => Err(Divergence {
            scenario: scenario.to_string(),
            seed,
            hash_a,
            hash_b,
            first_diff: "divergence did not reproduce on re-render (flaky nondeterminism)"
                .to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Audits a string-producing closure the way pre-streaming callers
    /// did: hash by rendering, re-render on mismatch.
    fn audit_rendered<F: FnMut(u64) -> String + Clone>(
        scenario: &str,
        seed: u64,
        run: F,
    ) -> Result<u64, Divergence> {
        let mut hash = run.clone();
        audit_double_run(scenario, seed, move |s| trace_hash(&hash(s)), run)
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_hash_equals_rendered_hash() {
        #[derive(Debug)]
        #[allow(dead_code)] // only Debug-rendered, never field-read
        struct Nested {
            label: String,
            counts: Vec<u64>,
            pair: (bool, Option<i32>),
        }
        let v = Nested {
            label: "escaped \"quotes\"\nand newlines\tand unicode: héllo".to_string(),
            counts: vec![0, 1, u64::MAX],
            pair: (true, Some(-7)),
        };
        assert_eq!(stream_hash(&v), trace_hash(&format!("{v:?}")));
        assert_eq!(fingerprint(&v).lines().count(), 1, "{}", fingerprint(&v));
    }

    #[test]
    fn hasher_is_fragment_boundary_invariant() {
        use std::fmt::Write as _;
        let mut whole = FingerHasher::new();
        whole.write_str("abcdef").expect("infallible");
        let mut split = FingerHasher::new();
        split.write_str("ab").expect("infallible");
        split.write_str("").expect("infallible");
        split.write_str("cdef").expect("infallible");
        assert_eq!(whole.finish(), split.finish());
        assert_eq!(whole.finish(), fnv1a_64(b"abcdef"));
    }

    #[test]
    fn identical_runs_pass() {
        let hash = audit_rendered("s", 7, |seed| format!("trace for {seed}"))
            .expect("identical runs must pass");
        assert_eq!(hash, trace_hash("trace for 7"));
    }

    #[test]
    fn fast_path_never_renders() {
        let result = audit_double_run(
            "s",
            7,
            |seed| trace_hash(&format!("trace for {seed}")),
            |_| unreachable!("equal hashes must not trigger a re-render"),
        );
        assert_eq!(result, Ok(trace_hash("trace for 7")));
    }

    #[test]
    fn diverging_runs_report_first_line() {
        let mut flips = (false, false);
        let err = audit_double_run(
            "s",
            7,
            |_| {
                flips.0 = !flips.0;
                trace_hash(&format!("line one\nline two {}", flips.0))
            },
            |_| {
                flips.1 = !flips.1;
                format!("line one\nline two {}", flips.1)
            },
        )
        .expect_err("diverging runs must fail");
        assert_eq!(err.seed, 7);
        // "line one\nline two " is 18 bytes; the runs differ at the next.
        assert_eq!(
            err.first_diff,
            r#"byte 18: "line one\nline two true" vs "line one\nline two false""#
        );
        assert_ne!(err.hash_a, err.hash_b);
    }

    #[test]
    fn unreproducible_divergence_is_still_reported() {
        let mut flip = false;
        let err = audit_double_run(
            "s",
            3,
            |_| {
                flip = !flip;
                trace_hash(&format!("run {flip}"))
            },
            |_| "stable".to_string(),
        )
        .expect_err("hash divergence must fail even if re-render agrees");
        assert!(
            err.first_diff.contains("did not reproduce"),
            "{}",
            err.first_diff
        );
        assert_ne!(err.hash_a, err.hash_b);
    }

    #[test]
    fn length_only_divergence_is_reported() {
        let d = compare_runs("s", 1, "a\nb", "a\nb\nc").expect("diverges");
        assert!(d.first_diff.contains("lengths differ"), "{}", d.first_diff);
    }

    #[test]
    fn strict_prefix_divergence_reports_the_first_extra_line() {
        let d = compare_runs("s", 1, "a\nb", "a\nb\nextra line").expect("diverges");
        assert_eq!(
            d.first_diff,
            r#"run lengths differ: 3 vs 14 bytes; first extra bytes at 3: "\nextra line""#
        );
        // Symmetric: the longer run may be the first one.
        let d = compare_runs("s", 1, "a\nb\nc\nd", "a").expect("diverges");
        assert_eq!(
            d.first_diff,
            r#"run lengths differ: 7 vs 1 bytes; first extra bytes at 1: "\nb\nc\nd""#
        );
    }

    #[test]
    fn the_report_window_is_bounded_and_cut_on_char_boundaries() {
        // 'é' is two bytes, so a window edge can fall inside one.
        let pad = "é".repeat(CONTEXT);
        let d = compare_runs("s", 1, &format!("{pad}x{pad}"), &format!("{pad}y{pad}"))
            .expect("diverges");
        let (before, after) = ("é".repeat(CONTEXT.div_ceil(2)), "é".repeat((CONTEXT - 1) / 2));
        assert_eq!(
            d.first_diff,
            format!(
                "byte {}: {:?} vs {:?}",
                2 * CONTEXT,
                format!("{before}x{after}"),
                format!("{before}y{after}")
            )
        );
    }

    #[test]
    fn outcome_renders_the_audit_lines() {
        let ok = AuditOutcome {
            name: "s/flawed".to_string(),
            result: Ok(0xabc),
        };
        assert!(ok.is_ok());
        assert_eq!(ok.render(), "audit s/flawed: ok 0000000000000abc");

        let failed = AuditOutcome {
            name: "s/flawed".to_string(),
            result: Err(compare_runs("s/flawed", 7, "x", "y").expect("diverges")),
        };
        assert!(!failed.is_ok());
        assert!(failed.render().starts_with("audit FAILED: s/flawed: seed 7"));
    }
}
