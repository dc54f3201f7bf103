//! `fabric_storm`: a 12-node gossip world (3 racks x 4) under a seeded
//! nemesis that keeps up to 8 block rules and 8 degrade rules live, so the
//! `simnet` fabric — not construction, handlers or checkers — does most of
//! the work. Campaign arms carry 1-2 rules on 3-5 nodes; this is where a
//! change to rule evaluation has somewhere to show.

use std::collections::BTreeSet;

use rand::{rngs::StdRng, Rng, SeedableRng};
use simnet::net::{bidirectional_pairs, simplex_pairs};
use simnet::trace::Counters;
use simnet::{
    Application, BlockRuleId, Ctx, DegradeRule, DegradeRuleId, NodeId, TimerId, World, WorldBuilder,
};

use crate::trace::{span_if, Tracer};

pub const NODES: usize = 12;
const RACK: usize = 4;
/// `World::step` calls per round.
pub const STEPS: u64 = 250_000;
/// Steps between nemesis actions.
const NEMESIS_EVERY: u64 = 1_000;
pub const MAX_RULES: usize = 8;

pub const BUILD: &str = "fabric.build";
pub const STEP_SEGMENT: &str = "fabric.steps";
pub const NEMESIS: &str = "fabric.nemesis";

#[derive(Clone, Debug)]
pub struct Rumor {
    version: u64,
    hops: u8,
}

/// Every node keeps exactly one timer armed; each firing starts two
/// rumors that are forwarded twice, so a timer step buys ~6 delivery
/// steps and sends dominate.
pub struct Gossip {
    version: u64,
}

fn other_peer(ctx: &mut Ctx<'_, Rumor>) -> NodeId {
    let k = ctx.rand_below(NODES as u64 - 1) as usize;
    NodeId(if k >= ctx.id().0 { k + 1 } else { k })
}

impl Application for Gossip {
    type Msg = Rumor;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Rumor>) {
        let delay = 1 + (ctx.id().0 % 4) as u64;
        ctx.set_timer(delay, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Rumor>, _from: NodeId, msg: Rumor) {
        self.version = self.version.max(msg.version);
        if msg.hops > 0 {
            let to = other_peer(ctx);
            ctx.send(
                to,
                Rumor {
                    version: self.version,
                    hops: msg.hops - 1,
                },
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Rumor>, _timer: TimerId, _tag: u64) {
        self.version += 1;
        for _ in 0..2 {
            let to = other_peer(ctx);
            ctx.send(
                to,
                Rumor {
                    version: self.version,
                    hops: 2,
                },
            );
        }
        let delay = 2 + ctx.rand_below(3);
        ctx.set_timer(delay, 0);
    }
}

pub fn build_world(seed: u64) -> World<Gossip> {
    WorldBuilder::new(seed)
        .event_capacity(256)
        .build(NODES, |_| Gossip { version: 0 })
}

fn rack(i: usize) -> Vec<NodeId> {
    (i * RACK..(i + 1) * RACK).map(NodeId).collect()
}

/// The fault script: draws only from its own RNG, never from world state,
/// so the sequence of rules is a pure function of the seed.
pub struct Nemesis {
    rng: StdRng,
    blocks: Vec<BlockRuleId>,
    degrades: Vec<DegradeRuleId>,
    pub installs: u64,
}

impl Nemesis {
    pub fn new(seed: u64) -> Self {
        Nemesis {
            rng: StdRng::seed_from_u64(seed ^ 0x5707_4d5f_6e65_6d73),
            blocks: Vec::new(),
            degrades: Vec::new(),
            installs: 0,
        }
    }

    /// Two distinct racks, or one node of the first against the second.
    fn sides(&mut self) -> (Vec<NodeId>, Vec<NodeId>) {
        let a = self.rng.gen_range(0..NODES / RACK);
        let b = (a + self.rng.gen_range(1..NODES / RACK)) % (NODES / RACK);
        let mut src = rack(a);
        if self.rng.gen_range(0..2) == 0 {
            src = vec![src[self.rng.gen_range(0..RACK)]];
        }
        (src, rack(b))
    }

    fn pairs(&mut self) -> BTreeSet<(NodeId, NodeId)> {
        let (a, b) = self.sides();
        match self.rng.gen_range(0..3) {
            // complete: both racks, both ways
            0 => bidirectional_pairs(&a, &b),
            // partial: only half of the far side is cut off
            1 => bidirectional_pairs(&a, &b[..RACK / 2]),
            // simplex: one direction only
            _ => simplex_pairs(&a, &b),
        }
    }

    pub fn install_block(&mut self, world: &mut World<Gossip>) {
        let pairs = self.pairs();
        self.blocks.push(world.block_pairs(pairs));
        self.installs += 1;
    }

    pub fn install_degrade(&mut self, world: &mut World<Gossip>) {
        let pairs = self.pairs();
        let rule = match self.rng.gen_range(0..4) {
            0 => DegradeRule::lossy(0.2),
            1 => DegradeRule::slow(3, 2),
            2 => DegradeRule::duplicating(0.2),
            _ => DegradeRule::lossy(0.3).flapping(50),
        };
        self.degrades.push(world.degrade_pairs(pairs, rule));
        self.installs += 1;
    }

    /// One nemesis action: alternately a block-rule and a degrade-rule
    /// move; each installs while below `MAX_RULES` (three times in four)
    /// and otherwise heals a random live rule.
    fn act(&mut self, world: &mut World<Gossip>, turn: u64) {
        let block = turn.is_multiple_of(2);
        let live = if block {
            self.blocks.len()
        } else {
            self.degrades.len()
        };
        let install = live == 0 || (live < MAX_RULES && self.rng.gen_range(0..4) != 0);
        match (block, install) {
            (true, true) => self.install_block(world),
            (false, true) => self.install_degrade(world),
            (true, false) => {
                let id = self.blocks.swap_remove(self.rng.gen_range(0..live));
                world.unblock(id);
            }
            (false, false) => {
                let id = self.degrades.swap_remove(self.rng.gen_range(0..live));
                world.undegrade(id);
            }
        }
    }
}

pub struct StormOut {
    pub counters: Counters,
    pub rule_installs: u64,
    /// Messages sent (or duplicated) and not yet delivered or dropped.
    pub in_flight: u64,
}

impl StormOut {
    /// Every message that entered the fabric is delivered, dropped for a
    /// counted reason, or still in flight; every step handled one event.
    pub fn conserved(&self) -> bool {
        let c = &self.counters;
        let dropped = c.dropped_partition + c.dropped_flaky + c.dropped_degraded + c.dropped_dead;
        c.sent + c.duplicated == c.delivered + dropped + self.in_flight
            && c.delivered + dropped + c.timers_fired == STEPS
    }
}

/// One round: a fresh world, `STEPS` steps, a nemesis action every
/// `NEMESIS_EVERY` steps.
pub fn storm(seed: u64, t: Option<&Tracer>) -> StormOut {
    let mut world = span_if(t, BUILD, seed, || build_world(seed));
    let mut nemesis = Nemesis::new(seed);
    for turn in 0..STEPS / NEMESIS_EVERY {
        span_if(t, NEMESIS, turn, || nemesis.act(&mut world, turn));
        span_if(t, STEP_SEGMENT, turn, || {
            for _ in 0..NEMESIS_EVERY {
                world.step();
            }
        });
    }
    StormOut {
        counters: world.trace().counters,
        rule_installs: nemesis.installs,
        // Each node has exactly one timer pending between steps.
        in_flight: (world.pending_events() - NODES) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_is_a_pure_function_of_the_seed_and_conserves_messages() {
        let a = storm(8, None);
        let b = storm(8, None);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.rule_installs, b.rule_installs);
        assert!(a.conserved(), "{:?} in flight {}", a.counters, a.in_flight);
        assert_ne!(a.counters, storm(9, None).counters);
        assert!(a.counters.dropped_partition > 0);
        assert!(a.counters.dropped_degraded > 0);
        assert!(a.counters.duplicated > 0);
    }

    #[test]
    fn nemesis_never_exceeds_the_rule_caps() {
        let mut world = build_world(3);
        let mut nemesis = Nemesis::new(3);
        for turn in 0..400 {
            nemesis.act(&mut world, turn);
            assert!(nemesis.blocks.len() <= MAX_RULES && nemesis.degrades.len() <= MAX_RULES);
            assert_eq!(world.net().rule_count(), nemesis.blocks.len());
            assert_eq!(world.net().degrade_count(), nemesis.degrades.len());
        }
        assert!(nemesis.blocks.len() > MAX_RULES / 2);
    }
}
