//! Property tests for the simulator substrate: determinism, FIFO links,
//! and partition semantics under arbitrary fault schedules.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use simnet::{
    net::{bidirectional_pairs, simplex_pairs},
    Application, BlockRuleId, Ctx, DegradeRule, DegradeRuleId, LinkConfig, NodeId, TimerId,
    WorldBuilder,
};

/// Records every delivery in order; replies to even payloads.
#[derive(Default)]
struct Recorder {
    seen: Vec<(NodeId, u64)>,
}

impl Application for Recorder {
    type Msg = u64;
    fn on_start(&mut self, _ctx: &mut Ctx<'_, u64>) {}
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        self.seen.push((from, msg));
        if msg.is_multiple_of(2) {
            ctx.send(from, msg + 1);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, u64>, _t: TimerId, _tag: u64) {}
}

/// One abstract action of a random schedule.
#[derive(Clone, Debug)]
enum Act {
    Send { from: u8, to: u8, val: u64 },
    Partition { a: u8, b: u8 },
    /// Install a degrade rule between two nodes: `loss`/`dup` are quarters
    /// of a probability (0..=4 → 0.0..=1.0), `flap` a half-period in units
    /// of 50 ms (0 = always active).
    Degrade { a: u8, b: u8, loss: u8, dup: u8, extra: u8, flap: u8 },
    HealAll,
    /// Heal the `nth` live block / degrade rule (modulo the live count), so
    /// rules come out in a different order than they went in.
    Unblock { nth: u8 },
    Undegrade { nth: u8 },
    Crash { node: u8 },
    Restart { node: u8 },
    Advance { ms: u16 },
}

fn act_strategy(n: u8) -> impl Strategy<Value = Act> {
    prop_oneof![
        (0..n, 0..n, 0..1000u64)
            .prop_map(|(from, to, val)| Act::Send { from, to, val }),
        (0..n, 0..n).prop_map(|(a, b)| Act::Partition { a, b }),
        (0..n, 0..n, 0..=4u8, 0..=4u8, 0..20u8, 0..4u8).prop_map(
            |(a, b, loss, dup, extra, flap)| Act::Degrade { a, b, loss, dup, extra, flap }
        ),
        Just(Act::HealAll),
        (0..8u8).prop_map(|nth| Act::Unblock { nth }),
        (0..8u8).prop_map(|nth| Act::Undegrade { nth }),
        (0..n).prop_map(|node| Act::Crash { node }),
        (0..n).prop_map(|node| Act::Restart { node }),
        (1..200u16).prop_map(|ms| Act::Advance { ms }),
    ]
}

/// The rule behind `Act::Degrade`'s small-integer knobs (see there).
fn degrade_rule(loss: u8, dup: u8, extra: u8, flap: u8) -> DegradeRule {
    DegradeRule {
        loss: f64::from(loss) * 0.25,
        dup_probability: f64::from(dup) * 0.25,
        extra_latency: u64::from(extra),
        jitter: u64::from(extra) / 2,
        flap_period: u64::from(flap) * 50,
    }
}

/// Executes a schedule, returning a full fingerprint of the run.
fn run(seed: u64, acts: &[Act], n: usize) -> (Vec<Vec<(NodeId, u64)>>, simnet::trace::Counters) {
    let mut w = WorldBuilder::new(seed).build(n, |_| Recorder::default());
    let mut rules = Vec::new();
    let mut degrades = Vec::new();
    for act in acts {
        match act {
            Act::Send { from, to, val } => {
                let to = NodeId(*to as usize % n);
                let _ = w.call(NodeId(*from as usize % n), |_, ctx| ctx.send(to, *val));
            }
            Act::Partition { a, b } => {
                let a = NodeId(*a as usize % n);
                let b = NodeId(*b as usize % n);
                if a != b {
                    rules.push(w.block_pairs(bidirectional_pairs(&[a], &[b])));
                }
            }
            Act::Degrade { a, b, loss, dup, extra, flap } => {
                let a = NodeId(*a as usize % n);
                let b = NodeId(*b as usize % n);
                if a != b {
                    let rule = degrade_rule(*loss, *dup, *extra, *flap);
                    degrades.push(w.degrade_pairs(bidirectional_pairs(&[a], &[b]), rule));
                }
            }
            Act::HealAll => {
                for r in rules.drain(..) {
                    w.unblock(r);
                }
                for d in degrades.drain(..) {
                    w.undegrade(d);
                }
            }
            Act::Unblock { nth } => {
                if !rules.is_empty() {
                    w.unblock(rules.remove(*nth as usize % rules.len()));
                }
            }
            Act::Undegrade { nth } => {
                if !degrades.is_empty() {
                    w.undegrade(degrades.remove(*nth as usize % degrades.len()));
                }
            }
            Act::Crash { node } => {
                let _ = w.crash(NodeId(*node as usize % n));
            }
            Act::Restart { node } => {
                let _ = w.restart(NodeId(*node as usize % n));
            }
            Act::Advance { ms } => w.run_for(*ms as u64),
        }
    }
    w.run_for(1000);
    let logs = (0..n).map(|i| w.app(NodeId(i)).seen.clone()).collect();
    (logs, w.trace().counters)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same seed and schedule always produce the identical execution.
    #[test]
    fn determinism(seed in 0u64..1000, acts in proptest::collection::vec(act_strategy(4), 0..40)) {
        let a = run(seed, &acts, 4);
        let b = run(seed, &acts, 4);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// FIFO links never reorder messages between a fixed pair.
    #[test]
    fn fifo_per_link(seed in 0u64..1000, vals in proptest::collection::vec(0u64..10_000, 1..50)) {
        let mut w = WorldBuilder::new(seed)
            .link(LinkConfig { base_latency: 1, jitter: 5, fifo: true, drop_probability: 0.0 })
            .build(2, |_| Recorder::default());
        // Tag messages with their sequence (odd values avoid replies).
        for (i, v) in vals.iter().enumerate() {
            let payload = (i as u64) * 20_000 + (v * 2 + 1);
            w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), payload)).unwrap();
            w.run_for(1);
        }
        w.run_for(100);
        let seen = &w.app(NodeId(1)).seen;
        prop_assert_eq!(seen.len(), vals.len());
        for pair in seen.windows(2) {
            prop_assert!(pair[0].1 / 20_000 < pair[1].1 / 20_000, "reordered: {:?}", seen);
        }
    }

    /// While a bidirectional rule is installed, nothing crosses it, and the
    /// counters account for every send.
    #[test]
    fn partitions_are_absolute(seed in 0u64..1000, vals in proptest::collection::vec(0u64..100, 1..20)) {
        let mut w = WorldBuilder::new(seed).build(2, |_| Recorder::default());
        w.block_pairs(bidirectional_pairs(&[NodeId(0)], &[NodeId(1)]));
        for v in &vals {
            w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), *v)).unwrap();
        }
        w.run_for(1000);
        prop_assert!(w.app(NodeId(1)).seen.is_empty());
        let c = w.trace().counters;
        prop_assert_eq!(c.sent, vals.len() as u64);
        prop_assert_eq!(c.dropped_partition, vals.len() as u64);
        prop_assert_eq!(c.delivered, 0);
    }

    /// Degrade install/heal cycles are deterministic per seed: the same
    /// degrade-heavy schedule replayed with the same seed produces the
    /// identical delivery logs and counters, loss/dup/jitter draws
    /// included.
    #[test]
    fn degrade_install_and_heal_are_deterministic(
        seed in 0u64..1000,
        acts in proptest::collection::vec(
            prop_oneof![
                (0..4u8, 0..4u8, 0..1000u64)
                    .prop_map(|(from, to, val)| Act::Send { from, to, val }),
                (0..4u8, 0..4u8, 0..=4u8, 0..=4u8, 0..20u8, 0..4u8).prop_map(
                    |(a, b, loss, dup, extra, flap)| Act::Degrade { a, b, loss, dup, extra, flap }
                ),
                Just(Act::HealAll),
                (1..200u16).prop_map(|ms| Act::Advance { ms }),
            ],
            0..40,
        ),
    ) {
        let a = run(seed, &acts, 4);
        let b = run(seed, &acts, 4);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    /// A degrade rule with every knob at zero is byte-identical to no rule
    /// at all: zero-valued knobs consume no RNG draws, so the logs *and*
    /// every counter — including jitter-dependent delivery order — match.
    #[test]
    fn zero_knob_degrade_rule_equals_no_rule(
        seed in 0u64..1000,
        acts in proptest::collection::vec(
            prop_oneof![
                (0..4u8, 0..4u8, 0..1000u64)
                    .prop_map(|(from, to, val)| Act::Send { from, to, val }),
                (1..200u16).prop_map(|ms| Act::Advance { ms }),
            ],
            1..30,
        ),
    ) {
        let without = run(seed, &acts, 4);
        let mut w = WorldBuilder::new(seed).build(4, |_| Recorder::default());
        w.degrade_pairs(
            bidirectional_pairs(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]),
            DegradeRule::default(),
        );
        for act in &acts {
            match act {
                Act::Send { from, to, val } => {
                    let to = NodeId(*to as usize % 4);
                    let _ = w.call(NodeId(*from as usize % 4), |_, ctx| ctx.send(to, *val));
                }
                Act::Advance { ms } => w.run_for(*ms as u64),
                _ => unreachable!("strategy only generates sends and advances"),
            }
        }
        w.run_for(1000);
        let logs: Vec<_> = (0..4).map(|i| w.app(NodeId(i)).seen.clone()).collect();
        prop_assert_eq!(logs, without.0);
        prop_assert_eq!(w.trace().counters, without.1);
    }

    /// A crashed node receives nothing; after restart it receives again.
    #[test]
    fn crash_restart_delivery(seed in 0u64..1000, v in 0u64..1000) {
        let mut w = WorldBuilder::new(seed).build(2, |_| Recorder::default());
        w.crash(NodeId(1)).unwrap();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), v * 2 + 1)).unwrap();
        w.run_for(100);
        prop_assert!(w.app(NodeId(1)).seen.is_empty());
        w.restart(NodeId(1)).unwrap();
        w.call(NodeId(0), |_, ctx| ctx.send(NodeId(1), v * 2 + 1)).unwrap();
        w.run_for(100);
        prop_assert_eq!(w.app(NodeId(1)).seen.len(), 1);
    }
}

/// A single-knob (or, with `flap`, flapping lossy) degrade rule on `a ↔ b`.
fn gray(a: u8, b: u8, loss: u8, dup: u8, extra: u8, flap: u8) -> Act {
    Act::Degrade { a, b, loss, dup, extra, flap }
}

/// `rounds` rounds of traffic over the 0↔1 link and its neighbours, 7 ms
/// apart so consecutive rounds straddle 50 ms flap windows. Even payloads
/// are answered, so both directions of every covered pair carry messages.
fn traffic(acts: &mut Vec<Act>, rounds: u64, base: u64) {
    for r in 0..rounds {
        let v = base + r * 10;
        acts.push(Act::Send { from: 0, to: 1, val: v });
        acts.push(Act::Send { from: 1, to: 0, val: v + 2 });
        acts.push(Act::Send { from: 0, to: 2, val: v + 4 });
        acts.push(Act::Send { from: 2, to: 1, val: v + 5 });
        acts.push(Act::Advance { ms: 7 });
    }
}

/// Three fixed schedules in which 0↔1 is covered by at least three
/// overlapping degrade rules at once — lossy, slow with jitter,
/// duplicating and a flapping one — installed and healed out of order.
fn pinned_schedules() -> [(u64, usize, Vec<Act>); 3] {
    // Single-knob rules, healed from the middle, one re-installed later
    // under a higher id than the rules it used to precede.
    let mut a = vec![
        gray(0, 1, 1, 0, 0, 0),
        gray(0, 1, 0, 0, 9, 0),
        gray(0, 1, 0, 2, 0, 0),
        gray(0, 1, 2, 0, 0, 1),
    ];
    traffic(&mut a, 12, 0);
    a.push(Act::Undegrade { nth: 1 });
    traffic(&mut a, 12, 1000);
    a.push(gray(1, 0, 0, 0, 9, 0));
    a.push(Act::Undegrade { nth: 0 });
    traffic(&mut a, 12, 2000);
    a.push(Act::HealAll);
    traffic(&mut a, 4, 3000);

    // Block rules interleaved with the degrade rules; the flapping rule
    // holds the lowest id.
    let mut b = vec![
        gray(0, 1, 2, 0, 0, 1),
        Act::Partition { a: 0, b: 2 },
        gray(1, 0, 0, 2, 0, 0),
        gray(0, 1, 1, 0, 0, 0),
        Act::Partition { a: 1, b: 3 },
        gray(0, 1, 0, 0, 9, 0),
    ];
    traffic(&mut b, 10, 0);
    b.push(Act::Unblock { nth: 0 });
    b.push(Act::Undegrade { nth: 2 });
    traffic(&mut b, 10, 1000);
    b.push(gray(0, 1, 3, 0, 0, 2));
    b.push(Act::Undegrade { nth: 0 });
    b.push(Act::Partition { a: 0, b: 1 });
    traffic(&mut b, 4, 2000);
    b.push(Act::Unblock { nth: 1 });
    traffic(&mut b, 10, 3000);
    b.push(Act::HealAll);
    traffic(&mut b, 3, 4000);

    // Every knob of every rule live at once, a neighbouring pair degraded
    // too, healed in reverse and never fully: two rules outlive the
    // schedule.
    let mut c = vec![
        gray(0, 1, 1, 1, 9, 2),
        gray(1, 2, 1, 0, 0, 0),
        gray(0, 1, 2, 1, 5, 1),
        gray(1, 0, 1, 2, 3, 0),
    ];
    traffic(&mut c, 15, 0);
    c.push(Act::Undegrade { nth: 3 });
    c.push(Act::Undegrade { nth: 0 });
    traffic(&mut c, 15, 1000);

    [(8, 3, a), (42, 4, b), (7, 3, c)]
}

/// The RNG draw order of stacked degrade rules, recorded at the commit
/// before block and degrade rules were compiled into the per-link state:
/// every covering rule draws in id order and a zero knob draws nothing, so
/// counters and delivery logs repeat bit for bit.
#[test]
fn stacked_degrade_rules_draw_in_the_pinned_order() {
    use simnet::trace::Counters;
    let pin = |sent, delivered, dropped_partition, dropped_degraded, duplicated| Counters {
        sent,
        delivered,
        dropped_partition,
        dropped_degraded,
        duplicated,
        ..Counters::default()
    };
    let expected = [
        (pin(264, 249, 0, 84, 69), 0x14ea_9692_68fc_8cd6),
        (pin(246, 229, 27, 56, 66), 0x74c3_d16b_6788_ab1c),
        (pin(199, 169, 0, 71, 41), 0xd745_da69_c9a2_264c),
    ];
    for ((seed, n, acts), want) in pinned_schedules().iter().zip(expected) {
        let (logs, counters) = run(*seed, acts, *n);
        // FNV-1a over the compact `{:?}` of every node's delivery log.
        let got = (counters, neat::audit::stream_hash(&logs));
        assert_eq!(got, want, "seed {seed}: {:#018x}", got.1);
    }
}

/// Fabric size of the oracle test; node groups are bit masks over it.
const ORACLE_NODES: usize = 6;

type Pairs = BTreeSet<(NodeId, NodeId)>;

/// One fault-set change. Groups may overlap and hold several nodes; heal
/// ids are raw, so they also name rules already healed and never issued.
#[derive(Clone, Debug)]
enum FaultAct {
    Block { a: u8, b: u8, simplex: bool },
    Unblock { id: u64 },
    Degrade { a: u8, b: u8, simplex: bool, rule: DegradeRule },
    Undegrade { id: u64 },
}

fn fault_act_strategy() -> impl Strategy<Value = FaultAct> {
    let sides = || (1..64u8, 1..64u8, proptest::bool::ANY);
    prop_oneof![
        sides().prop_map(|(a, b, simplex)| FaultAct::Block { a, b, simplex }),
        (0..12u64).prop_map(|id| FaultAct::Unblock { id }),
        (sides(), (0..=4u8, 0..=4u8, 0..20u8, 0..4u8)).prop_map(
            |((a, b, simplex), (loss, dup, extra, flap))| FaultAct::Degrade {
                a,
                b,
                simplex,
                rule: degrade_rule(loss, dup, extra, flap),
            }
        ),
        (0..12u64).prop_map(|id| FaultAct::Undegrade { id }),
    ]
}

fn pairs_of(a: u8, b: u8, simplex: bool) -> Pairs {
    let group = |mask: u8| -> Vec<NodeId> {
        (0..ORACLE_NODES).filter(|i| mask >> i & 1 == 1).map(NodeId).collect()
    };
    if simplex {
        simplex_pairs(&group(a), &group(b))
    } else {
        bidirectional_pairs(&group(a), &group(b))
    }
}

/// The fabric's semantics stated as pair sets: a rule is the set of pairs
/// it was installed over, and a pair is blocked (degraded) while any
/// installed rule's set contains it. Ids count up from zero per namespace.
#[derive(Default)]
struct PairSetModel {
    blocks: BTreeMap<u64, Pairs>,
    degrades: BTreeMap<u64, Pairs>,
    next_block: u64,
    next_degrade: u64,
}

impl PairSetModel {
    fn is_blocked(&self, pair: (NodeId, NodeId)) -> bool {
        self.blocks.values().any(|set| set.contains(&pair))
    }

    fn is_degraded(&self, pair: (NodeId, NodeId)) -> bool {
        self.degrades.values().any(|set| set.contains(&pair))
    }

    /// Figure 1's rendering: `0` severed, `~` degraded, `1` clean; a block
    /// rule wins over a degrade rule and the diagonal is always `1`.
    fn matrix(&self) -> String {
        let mut out = String::new();
        for i in 0..ORACLE_NODES {
            let row: Vec<&str> = (0..ORACLE_NODES)
                .map(|j| match (NodeId(i), NodeId(j)) {
                    _ if i == j => "1",
                    pair if self.is_blocked(pair) => "0",
                    pair if self.is_degraded(pair) => "~",
                    _ => "1",
                })
                .collect();
            out += &row.join(" ");
            out.push('\n');
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The compiled per-link state answers exactly what the pair-set model
    /// answers, after every install and heal of any sequence.
    #[test]
    fn compiled_link_state_matches_the_pair_set_model(
        acts in proptest::collection::vec(fault_act_strategy(), 0..40),
    ) {
        let mut w = WorldBuilder::new(1).build(ORACLE_NODES, |_| Recorder::default());
        let mut model = PairSetModel::default();
        let check = |w: &simnet::World<Recorder>, model: &PairSetModel| {
            let net = w.net();
            for src in (0..ORACLE_NODES).map(NodeId) {
                for dst in (0..ORACLE_NODES).map(NodeId) {
                    let pair = (src, dst);
                    prop_assert_eq!(net.is_blocked(src, dst), model.is_blocked(pair), "{:?}", pair);
                    prop_assert_eq!(net.is_degraded(src, dst), model.is_degraded(pair), "{:?}", pair);
                }
            }
            prop_assert_eq!(net.rule_count(), model.blocks.len());
            prop_assert_eq!(net.degrade_count(), model.degrades.len());
            prop_assert_eq!(net.connectivity_matrix(ORACLE_NODES), model.matrix());
            Ok(())
        };
        for act in &acts {
            match *act {
                FaultAct::Block { a, b, simplex } => {
                    let pairs = pairs_of(a, b, simplex);
                    let id = w.block_pairs(pairs.clone());
                    prop_assert_eq!(id, BlockRuleId(model.next_block));
                    model.blocks.insert(model.next_block, pairs);
                    model.next_block += 1;
                }
                FaultAct::Unblock { id } => {
                    w.unblock(BlockRuleId(id));
                    model.blocks.remove(&id);
                }
                FaultAct::Degrade { a, b, simplex, rule } => {
                    let pairs = pairs_of(a, b, simplex);
                    let id = w.degrade_pairs(pairs.clone(), rule);
                    prop_assert_eq!(id, DegradeRuleId(model.next_degrade));
                    model.degrades.insert(model.next_degrade, pairs);
                    model.next_degrade += 1;
                }
                FaultAct::Undegrade { id } => {
                    w.undegrade(DegradeRuleId(id));
                    model.degrades.remove(&id);
                }
            }
            check(&w, &model)?;
        }
        for id in 0..model.next_block {
            w.unblock(BlockRuleId(id));
        }
        for id in 0..model.next_degrade {
            w.undegrade(DegradeRuleId(id));
        }
        check(&w, &PairSetModel::default())?;
    }
}
