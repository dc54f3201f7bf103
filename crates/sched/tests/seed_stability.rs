//! Seed stability: same seed ⇒ identical scenario fingerprint and trace
//! hash (DESIGN.md determinism rules; the campaign-wide version runs via
//! `cargo run -p lint -- --audit`). The hash is taken both ways —
//! streamed via `neat::audit::stream_hash` (the allocation-free audit
//! fast path) and over the rendered bytes — and the two must agree.

use proptest::prelude::*;
use sched::mapred::{self, MrFlaws};

fn outcome(seed: u64) -> impl std::fmt::Debug {
    mapred::double_execution(
        MrFlaws {
            relaunch_without_checking: true,
        },
        seed,
        true,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_same_trace(seed in 0u64..100_000) {
        let (oa, ob) = (outcome(seed), outcome(seed));
        // The streamed hash (the audit fast path) must be seed-stable...
        let (ha, hb) = (neat::audit::stream_hash(&oa), neat::audit::stream_hash(&ob));
        prop_assert_eq!(ha, hb);
        // ...and equal byte-for-byte to hashing the rendered fingerprint.
        let (a, b) = (format!("{oa:?}"), format!("{ob:?}"));
        prop_assert_eq!(ha, neat::audit::trace_hash(&a));
        prop_assert_eq!(hb, neat::audit::trace_hash(&b));
        prop_assert_eq!(a, b);
    }
}
