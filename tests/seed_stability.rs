//! Seed stability: same seed ⇒ identical scenario fingerprint and trace
//! hash, for one arm of each system family (DESIGN.md determinism rules;
//! the campaign-wide version runs via `cargo run -p lint -- --audit`). The
//! hash is taken both ways — streamed via `neat::audit::stream_hash` (the
//! allocation-free audit fast path) and over the rendered bytes — and the
//! two must agree.

use std::fmt::Debug;

use neat_repro::consensus::{self, RaftTweaks};
use neat_repro::coord::{self, CoordFlaws};
use neat_repro::dfs::hdfs::{self, HdfsFlaws};
use neat_repro::gridstore::{self, GridFlaws};
use neat_repro::mqueue::{self, BrokerFlaws};
use neat_repro::neat::audit::{stream_hash, trace_hash};
use neat_repro::repkv::{self, Config};
use neat_repro::sched::mapred::{self, MrFlaws};
use proptest::prelude::*;

/// Runs the recorded arm `outcome` twice at `seed`: the streamed hash
/// must be seed-stable and equal to hashing the rendered fingerprint.
fn same_trace<O: Debug>(seed: u64, outcome: impl Fn(u64) -> O) -> Result<(), TestCaseError> {
    let (oa, ob) = (outcome(seed), outcome(seed));
    let (ha, hb) = (stream_hash(&oa), stream_hash(&ob));
    prop_assert_eq!(ha, hb);
    let (a, b) = (format!("{oa:?}"), format!("{ob:?}"));
    prop_assert_eq!(ha, trace_hash(&a));
    prop_assert_eq!(hb, trace_hash(&b));
    prop_assert_eq!(a, b);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn consensus_reconfig_split_brain_is_seed_stable(seed in 0u64..100_000) {
        same_trace(seed, |s| {
            consensus::scenarios::rethinkdb_reconfig_split_brain(RaftTweaks::default(), s, true)
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repkv_dirty_and_stale_read_is_seed_stable(seed in 0u64..100_000) {
        same_trace(seed, |s| repkv::scenarios::dirty_and_stale_read(Config::voltdb(), s, true))?;
    }

    #[test]
    fn gridstore_semaphore_double_lock_is_seed_stable(seed in 0u64..100_000) {
        same_trace(seed, |s| {
            gridstore::scenarios::semaphore_double_lock(GridFlaws::flawed(), s, true)
        })?;
    }

    #[test]
    fn mqueue_fig6_hang_is_seed_stable(seed in 0u64..100_000) {
        same_trace(seed, |s| mqueue::scenarios::fig6_hang(BrokerFlaws::flawed(), s, true))?;
    }

    #[test]
    fn coord_txnlog_sync_corruption_is_seed_stable(seed in 0u64..100_000) {
        same_trace(seed, |s| {
            coord::scenarios::txnlog_sync_corruption(CoordFlaws::default(), s, true)
        })?;
    }

    #[test]
    fn dfs_rack_placement_retry_is_seed_stable(seed in 0u64..100_000) {
        let flaws = HdfsFlaws {
            ignore_excluded_rack: true,
            heartbeat_only_health: true,
        };
        same_trace(seed, |s| hdfs::rack_placement_retry(flaws, s, true))?;
    }

    #[test]
    fn sched_double_execution_is_seed_stable(seed in 0u64..100_000) {
        let flaws = MrFlaws {
            relaunch_without_checking: true,
        };
        same_trace(seed, |s| mapred::double_execution(flaws, s, true))?;
    }
}
