//! Property: for any value, `neat::audit::stream_hash(&v)` equals
//! `neat::audit::trace_hash(&format!("{v:?}"))`.
//!
//! This is the invariant the whole zero-allocation audit path rests on:
//! the streaming `FingerHasher` must fold exactly the byte stream the
//! rendered fingerprint contains, no matter how the formatter fragments
//! its `write_str` calls. Exercised here over arbitrary observability
//! timelines (the real fingerprint payload) and over adversarial nested
//! values full of escapes, newlines, and multi-byte unicode.

use neat::audit::{stream_hash, trace_hash};
use neat::obs::{PartitionKind, Recorder};
use proptest::collection::vec;
use proptest::prelude::*;
use simnet::NodeId;

/// Strings that stress `Debug` escaping: quotes, backslashes, newlines,
/// tabs, multi-byte unicode, and emptiness.
const PALETTE: &[&str] = &[
    "",
    "k",
    "key-é",
    "line\nbreak",
    "\"quoted\" and \\back\\slashed",
    "tab\there",
    "héllo ✓ ∀x∃y",
    "NUL\u{0} and DEL\u{7f}",
];

fn palette(i: usize) -> String {
    PALETTE[i % PALETTE.len()].to_string()
}

/// One generated recorder action: `(kind, time, node, string index)`.
type Action = (u8, u64, u64, usize);

fn apply(rec: &mut Recorder, &(kind, time, node, s): &Action) {
    let n = NodeId(node as usize % 7);
    match kind % 6 {
        0 => rec.partition_installed(
            time,
            node,
            PartitionKind::Partial,
            &[n],
            &[NodeId((node as usize + 1) % 7)],
            2,
        ),
        1 => rec.partition_healed(time, node),
        2 => rec.op(
            time,
            time + 5,
            n,
            palette(s),
            palette(s + 1),
            palette(s + 2),
        ),
        3 => rec.verdict(time, palette(s), palette(s + 3)),
        4 => rec.crashed(time, n),
        _ => rec.note(time, n, palette(s)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timeline_stream_hash_equals_rendered_hash(
        actions in vec((0u8..8, 0u64..10_000, 0u64..100, 0usize..32), 0..40),
    ) {
        let mut rec = Recorder::new(true);
        for a in &actions {
            apply(&mut rec, a);
        }
        let timeline = rec.snapshot();
        prop_assert_eq!(
            stream_hash(&timeline),
            trace_hash(&format!("{timeline:?}")),
            "streamed and rendered hashes diverged for {} events",
            timeline.events.len()
        );
    }

    #[test]
    fn nested_value_stream_hash_equals_rendered_hash(
        ints in vec(0u64..u64::MAX, 0..12),
        flags in vec(proptest::bool::ANY, 0..6),
        strings in vec(0usize..32, 0..8),
        pair in (0i64..1000, 0u8..255),
    ) {
        #[derive(Debug)]
        #[allow(dead_code)] // only Debug-rendered, never field-read
        struct Nested {
            ints: Vec<u64>,
            flags: Vec<bool>,
            strings: Vec<String>,
            pair: (i64, u8),
            inner: Option<Box<Nested>>,
        }
        let leaf = Nested {
            ints: ints.clone(),
            flags: flags.clone(),
            strings: strings.iter().map(|&i| palette(i)).collect(),
            pair: (pair.0, pair.1),
            inner: None,
        };
        let value = Nested {
            ints,
            flags,
            strings: strings.iter().map(|&i| palette(i + 1)).collect(),
            pair: (pair.0 - 1, pair.1),
            inner: Some(Box::new(leaf)),
        };
        prop_assert_eq!(stream_hash(&value), trace_hash(&format!("{value:?}")));
    }
}
