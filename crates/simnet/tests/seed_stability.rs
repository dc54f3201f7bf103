//! Seed stability: the same seed must yield a byte-identical execution.
//! This is the per-crate slice of the determinism contract in DESIGN.md;
//! `cargo run -p fleet -- --audit` checks the same property campaign-wide.

use proptest::prelude::*;
use simnet::{
    net::bidirectional_pairs, Application, Ctx, DegradeRule, NodeId, Time, TimerId,
    WorldBuilder,
};

#[derive(Default)]
struct Echo {
    /// Every delivery: when, from whom, what.
    seen: Vec<(Time, NodeId, u64)>,
}

impl Application for Echo {
    type Msg = u64;
    fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.seen.push((ctx.now(), from, msg));
        if msg.is_multiple_of(3) {
            ctx.send(from, msg + 1);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _t: TimerId, _tag: u64) {}
}

/// A run that exercises jittered delivery, a partition window, and a
/// crash/restart, then renders everything observable about it.
fn fingerprint(seed: u64) -> String {
    let n = 3;
    let mut w = WorldBuilder::new(seed).build(n, |_| Echo::default());
    let all: Vec<NodeId> = (0..n).map(NodeId).collect();
    w.degrade_pairs(bidirectional_pairs(&all, &all), DegradeRule::slow(0, 9));
    // Burst sends so many messages are in flight at once; the jitter draws
    // decide how the links' traffic interleaves at each receiver.
    for k in 0..12u64 {
        let from = NodeId((k as usize) % n);
        let to = NodeId((k as usize + 1) % n);
        let _ = w.call(from, |_, ctx| ctx.send(to, k));
    }
    w.run_for(40);
    let rule = w.block_pairs(bidirectional_pairs(&[NodeId(0)], &[NodeId(1), NodeId(2)]));
    w.run_for(100);
    let _ = w.crash(NodeId(1));
    w.run_for(50);
    let _ = w.restart(NodeId(1));
    w.unblock(rule);
    w.run_for(300);
    let logs: Vec<_> = (0..n).map(|i| w.app(NodeId(i)).seen.clone()).collect();
    format!("{logs:?}\n{:?}\n{:?}", w.trace().notes(), w.trace().counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn same_seed_same_trace(seed in 0u64..100_000) {
        prop_assert_eq!(fingerprint(seed), fingerprint(seed));
    }

    #[test]
    fn different_seeds_change_the_schedule(seed in 0u64..100_000) {
        // Not a strict requirement per-pair, but across the jittered links
        // two adjacent seeds virtually always schedule differently; allow
        // the rare collision by only requiring inequality for one of three
        // neighbours.
        let base = fingerprint(seed);
        let diverged = (1..=3u64).any(|d| fingerprint(seed + d) != base);
        prop_assert!(diverged, "seeds {seed}..={} all produced identical runs", seed + 3);
    }
}
