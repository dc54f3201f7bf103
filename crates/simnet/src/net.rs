//! The network fabric: latency model, directional block rules, and
//! per-link degrade rules.
//!
//! Network partitions are expressed as *block rules*: sets of directed
//! `(src, dst)` pairs whose traffic is dropped. Rules stack — a pair is
//! blocked while at least one installed rule covers it — mirroring how the
//! paper's NEAT partitioner installs OpenFlow drop rules at a higher priority
//! than the learning-switch rules and removes them on heal.
//!
//! All three fault types of the paper's Figure 1 reduce to block rules:
//!
//! - **complete partition**: block both directions between two groups that
//!   together cover the cluster;
//! - **partial partition**: block both directions between two groups while a
//!   third group stays connected to both;
//! - **simplex partition**: block one direction only.
//!
//! *Gray failures* — the flaky, congested, or half-broken links the paper
//! traces most partial partitions back to (§2.1) — are expressed as
//! [`DegradeRule`]s: per-directed-pair loss probability, extra latency,
//! jitter, and duplication probability, optionally flapping on a fixed
//! period. Degrade rules stack like block rules and draw exclusively from
//! the world's seeded RNG, so a degraded run is as reproducible as a
//! clean one.
//!
//! Both kinds of rule are *compiled when the fault set changes*, the way
//! the partitioner pays for a partition when it installs its drop rules and
//! not once per packet per rule. Install adds a rule's pairs to a dense
//! per-link matrix — a block refcount and the covering degrade rules, in id
//! order, beside the link's FIFO clock — and heal takes them out again. A
//! message asks its link twice, one index each whatever the number of
//! rules: at send, when it arrives and whether it is duplicated; at
//! delivery, whether it is lost and why. Each link also keeps one flag per
//! degrade pass — some covering rule delays, duplicates, drops — so a pass
//! no covering rule needs is skipped. The per-rule pair sets are kept only
//! to say which pairs an id owns: heal walks them, and the rule counts
//! count them.

use std::collections::{BTreeMap, BTreeSet};

use rand::{rngs::StdRng, Rng};

use crate::{event::Time, NodeId};

/// Identifier of an installed block rule, used to remove it on heal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockRuleId(pub u64);

/// Identifier of an installed degrade rule, used to remove it on heal.
///
/// Degrade rules live in their own id namespace: a `DegradeRuleId` never
/// aliases a [`BlockRuleId`], so forensic tooling can pair install/remove
/// events per namespace without ambiguity.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DegradeRuleId(pub u64);

/// A gray-failure profile applied to a set of directed pairs: the link is
/// *degraded*, not severed.
///
/// Every probabilistic knob draws from the world's seeded RNG, and a knob
/// set to zero draws nothing at all — a rule whose knobs are all zero is
/// byte-identical to no rule, which the property tests pin.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct DegradeRule {
    /// Probability in `[0, 1]` that a message on a covered pair is lost.
    // lint:allow(float-nondet) -- probability knob compared against a single RNG draw, never accumulated
    pub loss: f64,
    /// Fixed extra one-way latency added to every covered message, in
    /// milliseconds — the congested-link cause of §2.1.
    pub extra_latency: Time,
    /// Maximum extra *random* latency; drawn uniformly from `0..=jitter`
    /// per message when non-zero.
    pub jitter: Time,
    /// Probability in `[0, 1]` that a covered message is delivered twice —
    /// the NIC/driver duplication gray failure. The duplicate is scheduled
    /// independently (its own latency draw) and is never re-duplicated.
    // lint:allow(float-nondet) -- probability knob compared against a single RNG draw, never accumulated
    pub dup_probability: f64,
    /// When non-zero, the rule *flaps*: it only applies while
    /// `(now / flap_period) % 2 == 0`, so the link alternates between
    /// degraded and healthy windows of `flap_period` milliseconds. Zero
    /// means always active.
    pub flap_period: Time,
}

impl DegradeRule {
    /// A rule that drops covered messages with probability `loss`.
    pub fn lossy(loss: f64) -> Self {
        Self {
            loss,
            ..Self::default()
        }
    }

    /// A rule that duplicates covered messages with probability `p`.
    pub fn duplicating(p: f64) -> Self {
        Self {
            dup_probability: p,
            ..Self::default()
        }
    }

    /// A rule that slows covered messages by `extra_latency` plus up to
    /// `jitter` of random delay.
    pub fn slow(extra_latency: Time, jitter: Time) -> Self {
        Self {
            extra_latency,
            jitter,
            ..Self::default()
        }
    }

    /// Makes this rule flap with the given period (builder style).
    pub fn flapping(mut self, period: Time) -> Self {
        self.flap_period = period;
        self
    }

    /// Whether the rule applies at virtual time `now` (flap phase check).
    #[inline]
    pub fn active_at(&self, now: Time) -> bool {
        self.flap_period == 0 || (now / self.flap_period).is_multiple_of(2)
    }
}

/// Fixed one-way latency of every message, in milliseconds.
const BASE_LATENCY: Time = 1;

/// Maximum extra latency of every message; the draw is uniform over
/// `0..=BASE_JITTER` from the world's seeded RNG.
const BASE_JITTER: Time = 1;

/// `now` plus the base latency and its jitter draw.
#[inline]
fn base_arrival(now: Time, rng: &mut StdRng) -> Time {
    now + BASE_LATENCY + rng.gen_range(0..=BASE_JITTER)
}

/// Why the fabric lost a delivery; each cause has its own counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Loss {
    /// A block rule covers the pair.
    Partition,
    /// An active degrade rule drew the loss.
    Degraded,
}

/// What the fabric keeps per directed link. Block and degrade rules are
/// compiled into it when they are installed and taken out when they are
/// healed, so a message indexes `Net::links` once at send and once at
/// delivery.
#[derive(Debug, Default)]
struct Link {
    /// Last scheduled delivery time: links are FIFO, like a TCP
    /// connection, so no message is due before the one sent ahead of it.
    last: Time,
    /// Installed block rules covering this pair; it is blocked while > 0.
    blocked: u32,
    /// Installed degrade rules covering this pair, in rule-id order (ids
    /// are monotonic, so install appends): the order they draw in.
    degrades: Vec<(DegradeRuleId, DegradeRule)>,
    /// Whether some covering rule adds latency or jitter, duplicates, or
    /// loses messages: one flag per degrade pass, recomputed by `compile`
    /// whenever `degrades` changes. A pass whose flag is clear would add
    /// nothing and draw nothing, so it is skipped.
    delays: bool,
    dups: bool,
    drops: bool,
}

impl Link {
    /// Degrade rules covering this link that apply at `now`, in id order.
    #[inline]
    fn active_degrades(&self, now: Time) -> impl Iterator<Item = &DegradeRule> {
        self.degrades
            .iter()
            .filter_map(move |(_, rule)| rule.active_at(now).then_some(rule))
    }

    /// Recomputes the pass flags from the covering rules.
    fn compile(&mut self) {
        let any = |f: fn(&DegradeRule) -> bool| self.degrades.iter().any(|(_, r)| f(r));
        (self.delays, self.dups, self.drops) = (
            any(|r| r.extra_latency > 0 || r.jitter > 0),
            any(|r| r.dup_probability > 0.0),
            any(|r| r.loss > 0.0),
        );
    }

    /// The delivery time of a message sent at `now`: base latency and
    /// jitter, the extra delay of the active covering rules in id order
    /// (zero-jitter rules draw nothing), then the FIFO clock.
    #[inline(always)]
    fn arrival(&mut self, now: Time, rng: &mut StdRng) -> Time {
        let mut at = base_arrival(now, rng);
        if self.delays {
            for rule in self.active_degrades(now) {
                at += rule.extra_latency;
                if rule.jitter > 0 {
                    at += rng.gen_range(0..=rule.jitter);
                }
            }
        }
        at = at.max(self.last);
        self.last = at;
        at
    }

    /// Whether an active rule hits a message at `now`: every active rule
    /// whose `probability` is non-zero draws once, in id order, even after
    /// an earlier one hit.
    #[inline(always)]
    fn draw(&self, now: Time, rng: &mut StdRng, probability: impl Fn(&DegradeRule) -> f64) -> bool {
        let mut hit = false;
        for rule in self.active_degrades(now) {
            let p = probability(rule);
            if p > 0.0 && rng.gen_bool(p.min(1.0)) {
                hit = true;
            }
        }
        hit
    }
}

/// The network fabric: computes delivery delays and answers "is this directed
/// pair currently blocked?".
#[derive(Debug)]
pub struct Net {
    /// The pairs each installed block rule owns. No message looks here:
    /// the map is what heal walks to take a rule back out of `links`, and
    /// what [`Net::rule_count`] counts.
    rules: BTreeMap<BlockRuleId, BTreeSet<(NodeId, NodeId)>>,
    next_rule: u64,
    /// The pairs each installed degrade rule owns; same role as `rules`.
    degrades: BTreeMap<DegradeRuleId, BTreeSet<(NodeId, NodeId)>>,
    next_degrade: u64,
    /// Per-link state, a dense src-major matrix (`src * nodes + dst`) sized
    /// once at build: a send or a delivery costs the same under sixteen
    /// rules as under none.
    links: Vec<Link>,
    /// Side length of `links`: the world's node count.
    nodes: usize,
}

impl Net {
    /// A fabric for a world of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            rules: BTreeMap::new(),
            next_rule: 0,
            degrades: BTreeMap::new(),
            next_degrade: 0,
            links: std::iter::repeat_with(Link::default)
                .take(nodes * nodes)
                .collect(),
            nodes,
        }
    }

    /// Index of `src → dst` in `links`. A pair naming a node the world does
    /// not have has no link and can never carry traffic: a rule keeps it
    /// (it counts in the rule's size), the matrix skips it.
    #[inline]
    fn index(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        (src.0 < self.nodes && dst.0 < self.nodes).then(|| src.0 * self.nodes + dst.0)
    }

    /// Applies `f` to the link of every pair in `pairs` that has one.
    fn update_links(&mut self, pairs: &BTreeSet<(NodeId, NodeId)>, mut f: impl FnMut(&mut Link)) {
        for &(src, dst) in pairs {
            if let Some(i) = self.index(src, dst) {
                f(&mut self.links[i]);
            }
        }
    }

    /// Installs a rule dropping traffic for every directed pair in `pairs`.
    pub fn block_pairs(&mut self, pairs: BTreeSet<(NodeId, NodeId)>) -> BlockRuleId {
        let id = BlockRuleId(self.next_rule);
        self.next_rule += 1;
        self.update_links(&pairs, |link| link.blocked += 1);
        self.rules.insert(id, pairs);
        id
    }

    /// Removes a previously installed rule and says whether there was one:
    /// removing an unknown or already removed rule is a no-op, so healing
    /// twice is harmless.
    pub fn unblock(&mut self, id: BlockRuleId) -> bool {
        let Some(pairs) = self.rules.remove(&id) else {
            return false;
        };
        self.update_links(&pairs, |link| link.blocked -= 1);
        true
    }

    /// Returns `true` while any installed rule blocks `src → dst`.
    pub fn is_blocked(&self, src: NodeId, dst: NodeId) -> bool {
        self.index(src, dst)
            .is_some_and(|i| self.links[i].blocked > 0)
    }

    /// Number of currently installed rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Installs a degrade rule over every directed pair in `pairs`.
    pub fn degrade_pairs(
        &mut self,
        pairs: BTreeSet<(NodeId, NodeId)>,
        rule: DegradeRule,
    ) -> DegradeRuleId {
        let id = DegradeRuleId(self.next_degrade);
        self.next_degrade += 1;
        self.update_links(&pairs, |link| {
            link.degrades.push((id, rule));
            link.compile();
        });
        self.degrades.insert(id, pairs);
        id
    }

    /// Removes a previously installed degrade rule and says whether there
    /// was one: removing an unknown or already removed rule is a no-op, so
    /// healing twice is harmless.
    pub fn undegrade(&mut self, id: DegradeRuleId) -> bool {
        let Some(pairs) = self.degrades.remove(&id) else {
            return false;
        };
        self.update_links(&pairs, |link| {
            link.degrades.retain(|&(owner, _)| owner != id);
            link.compile();
        });
        true
    }

    /// Returns `true` while any installed degrade rule covers `src → dst`
    /// (regardless of flap phase — an installed flapping rule counts).
    pub fn is_degraded(&self, src: NodeId, dst: NodeId) -> bool {
        self.index(src, dst)
            .is_some_and(|i| !self.links[i].degrades.is_empty())
    }

    /// Number of currently installed degrade rules.
    pub fn degrade_count(&self) -> usize {
        self.degrades.len()
    }

    /// Routes a message sent at `now` on `src → dst`: its delivery time and,
    /// when an active covering rule duplicates it, the copy's. The draws
    /// come in one fixed order — the original's latency, every duplication
    /// draw, then the copy's own latency (a copy is never re-duplicated) —
    /// and both times go through the link's FIFO clock. A pair naming a
    /// node the world does not have has no link: base latency and jitter
    /// only.
    #[inline(always)]
    pub(crate) fn route(
        &mut self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        rng: &mut StdRng,
    ) -> (Time, Option<Time>) {
        let Some(i) = self.index(src, dst) else {
            return (base_arrival(now, rng), None);
        };
        let link = &mut self.links[i];
        let at = link.arrival(now, rng);
        let copy = link.dups && link.draw(now, rng, |r| r.dup_probability);
        (at, copy.then(|| link.arrival(now, rng)))
    }

    /// Whether a message delivered at `now` on `src → dst` is lost, and
    /// why: a block rule (no draw), else one draw per active lossy degrade
    /// rule.
    #[inline(always)]
    pub(crate) fn admit(
        &self,
        now: Time,
        src: NodeId,
        dst: NodeId,
        rng: &mut StdRng,
    ) -> Option<Loss> {
        let link = self.index(src, dst).map(|i| &self.links[i]);
        if link.is_some_and(|l| l.blocked > 0) {
            Some(Loss::Partition)
        } else if link.is_some_and(|l| l.drops && l.draw(now, rng, |r| r.loss)) {
            Some(Loss::Degraded)
        } else {
            None
        }
    }

    /// Renders the connectivity matrix as a string of `1`/`0`/`~` rows, used
    /// by the Figure 1 reproduction. Row `i`, column `j` is `1` when `i → j`
    /// traffic flows cleanly, `0` when a block rule severs it, and `~` when a
    /// degrade rule covers it (lossy, not severed — a block rule wins over a
    /// degrade rule). The diagonal is always `1`.
    pub fn connectivity_matrix(&self, n: usize) -> String {
        let mut out = String::new();
        for i in 0..n {
            for j in 0..n {
                let glyph = if i == j {
                    '1'
                } else if self.is_blocked(NodeId(i), NodeId(j)) {
                    '0'
                } else if self.is_degraded(NodeId(i), NodeId(j)) {
                    '~'
                } else {
                    '1'
                };
                out.push(glyph);
                if j + 1 < n {
                    out.push(' ');
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the set of directed pairs for a bidirectional split of `a` from `b`.
pub fn bidirectional_pairs(a: &[NodeId], b: &[NodeId]) -> BTreeSet<(NodeId, NodeId)> {
    let mut pairs = BTreeSet::new();
    for &x in a {
        for &y in b {
            if x != y {
                pairs.insert((x, y));
                pairs.insert((y, x));
            }
        }
    }
    pairs
}

/// Builds the set of directed pairs dropping only `src → dst` traffic
/// (simplex partition: replies still flow).
pub fn simplex_pairs(src: &[NodeId], dst: &[NodeId]) -> BTreeSet<(NodeId, NodeId)> {
    let mut pairs = BTreeSet::new();
    for &x in src {
        for &y in dst {
            if x != y {
                pairs.insert((x, y));
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    /// The fabric of a three-node world.
    fn fabric() -> Net {
        Net::new(3)
    }

    #[test]
    fn bidirectional_blocks_both_ways() {
        let mut net = fabric();
        let rule = net.block_pairs(bidirectional_pairs(&ids(&[0]), &ids(&[1, 2])));
        assert!(net.is_blocked(NodeId(0), NodeId(1)));
        assert!(net.is_blocked(NodeId(1), NodeId(0)));
        assert!(net.is_blocked(NodeId(2), NodeId(0)));
        assert!(!net.is_blocked(NodeId(1), NodeId(2)));
        net.unblock(rule);
        assert!(!net.is_blocked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn simplex_blocks_one_way_only() {
        let mut net = fabric();
        net.block_pairs(simplex_pairs(&ids(&[1]), &ids(&[0])));
        assert!(net.is_blocked(NodeId(1), NodeId(0)));
        assert!(!net.is_blocked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn rules_stack_independently() {
        let mut net = fabric();
        let r1 = net.block_pairs(bidirectional_pairs(&ids(&[0]), &ids(&[1])));
        let r2 = net.block_pairs(bidirectional_pairs(&ids(&[0]), &ids(&[1, 2])));
        net.unblock(r2);
        // r1 still blocks 0↔1 even after the broader rule is healed.
        assert!(net.is_blocked(NodeId(0), NodeId(1)));
        assert!(!net.is_blocked(NodeId(0), NodeId(2)));
        net.unblock(r1);
        assert_eq!(net.rule_count(), 0);
    }

    #[test]
    fn double_heal_is_noop() {
        let mut net = fabric();
        let r = net.block_pairs(bidirectional_pairs(&ids(&[0]), &ids(&[1])));
        net.unblock(r);
        net.unblock(r);
        assert!(!net.is_blocked(NodeId(0), NodeId(1)));
    }

    #[test]
    fn pairs_naming_a_missing_node_count_in_the_rule_and_answer_false() {
        let mut net = fabric();
        let ghost = NodeId(7);
        let pairs = bidirectional_pairs(&ids(&[0]), &[NodeId(1), ghost]);
        let r = net.block_pairs(pairs.clone());
        let d = net.degrade_pairs(pairs, DegradeRule::slow(50, 0));
        assert_eq!((net.rule_count(), net.degrade_count()), (1, 1));
        assert!(net.is_blocked(NodeId(0), NodeId(1)) && net.is_degraded(NodeId(1), NodeId(0)));
        for (src, dst) in [(NodeId(0), ghost), (ghost, NodeId(0)), (ghost, ghost)] {
            assert!(!net.is_blocked(src, dst) && !net.is_degraded(src, dst));
        }
        // No link, so no degrade delay, no duplicate, no loss and no FIFO
        // clock either.
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            net.route(0, NodeId(0), ghost, &mut rng),
            (0..=2, None)
        ));
        assert_eq!(net.admit(0, ghost, NodeId(0), &mut rng), None);
        assert_eq!(net.connectivity_matrix(8).lines().count(), 8);
        assert!(net.unblock(r) && net.undegrade(d));
        assert!(!net.is_blocked(NodeId(0), NodeId(1)) && !net.is_degraded(NodeId(0), NodeId(1)));
    }

    #[test]
    fn self_pairs_never_generated() {
        let pairs = bidirectional_pairs(&ids(&[0, 1]), &ids(&[1, 2]));
        assert!(!pairs.contains(&(NodeId(1), NodeId(1))));
    }

    #[test]
    fn fifo_links_never_reorder() {
        let mut net = fabric();
        net.degrade_pairs(
            simplex_pairs(&ids(&[0]), &ids(&[1])),
            DegradeRule::slow(0, 10),
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut prev = 0;
        for now in 0..50 {
            let (at, _) = net.route(now, NodeId(0), NodeId(1), &mut rng);
            assert!(at >= prev, "FIFO link delivered out of order");
            prev = at;
        }
    }

    #[test]
    fn connectivity_matrix_renders_partition() {
        let mut net = fabric();
        net.block_pairs(simplex_pairs(&ids(&[0]), &ids(&[1])));
        let m = net.connectivity_matrix(2);
        assert_eq!(m, "1 0\n1 1\n");
    }

    #[test]
    fn connectivity_matrix_distinguishes_lossy_from_severed() {
        let mut net = fabric();
        net.block_pairs(simplex_pairs(&ids(&[0]), &ids(&[1])));
        let d = net.degrade_pairs(
            bidirectional_pairs(&ids(&[1]), &ids(&[2])),
            DegradeRule::lossy(0.5),
        );
        // 0→1 severed, 1↔2 lossy, everything else clean.
        assert_eq!(net.connectivity_matrix(3), "1 0 1\n1 1 ~\n1 ~ 1\n");
        net.undegrade(d);
        assert_eq!(net.connectivity_matrix(3), "1 0 1\n1 1 1\n1 1 1\n");
    }

    #[test]
    fn block_rule_wins_over_degrade_in_matrix() {
        let mut net = fabric();
        net.degrade_pairs(
            simplex_pairs(&ids(&[0]), &ids(&[1])),
            DegradeRule::lossy(0.9),
        );
        net.block_pairs(simplex_pairs(&ids(&[0]), &ids(&[1])));
        assert_eq!(net.connectivity_matrix(2), "1 0\n1 1\n");
    }

    #[test]
    fn degrade_rules_stack_and_heal_independently() {
        let mut net = fabric();
        let d1 = net.degrade_pairs(
            simplex_pairs(&ids(&[0]), &ids(&[1])),
            DegradeRule::lossy(0.5),
        );
        let d2 = net.degrade_pairs(
            bidirectional_pairs(&ids(&[0]), &ids(&[1])),
            DegradeRule::duplicating(0.5),
        );
        assert!(net.is_degraded(NodeId(0), NodeId(1)));
        assert!(net.is_degraded(NodeId(1), NodeId(0)));
        // The pass flags follow the covering rules through install and heal.
        let passes = |net: &Net| {
            let link = &net.links[net.index(NodeId(0), NodeId(1)).unwrap()];
            (link.delays, link.dups, link.drops)
        };
        assert_eq!(passes(&net), (false, true, true));
        net.undegrade(d2);
        assert_eq!(passes(&net), (false, false, true));
        assert!(net.is_degraded(NodeId(0), NodeId(1)));
        assert!(!net.is_degraded(NodeId(1), NodeId(0)));
        net.undegrade(d1);
        net.undegrade(d1); // double heal is a no-op
        assert_eq!(net.degrade_count(), 0);
    }

    #[test]
    fn zero_knob_rules_consume_no_rng() {
        let (mut net, mut bare) = (fabric(), fabric());
        net.degrade_pairs(
            bidirectional_pairs(&ids(&[0]), &ids(&[1])),
            DegradeRule::default(),
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut bare_rng = rng.clone();
        assert_eq!(net.admit(0, NodeId(0), NodeId(1), &mut rng), None);
        assert_eq!(
            rng.clone().next_u64(),
            bare_rng.clone().next_u64(),
            "zero-knob rule drew at delivery"
        );
        assert_eq!(
            net.route(0, NodeId(0), NodeId(1), &mut rng),
            bare.route(0, NodeId(0), NodeId(1), &mut bare_rng),
            "zero-knob rule must not delay or duplicate"
        );
        assert_eq!(
            rng.next_u64(),
            bare_rng.next_u64(),
            "zero-knob rule drew beyond the base jitter"
        );
    }

    #[test]
    fn total_loss_always_drops_and_slow_rules_delay() {
        let mut net = fabric();
        net.degrade_pairs(
            simplex_pairs(&ids(&[0]), &ids(&[1])),
            DegradeRule::lossy(1.0),
        );
        net.degrade_pairs(
            simplex_pairs(&ids(&[0]), &ids(&[1])),
            DegradeRule::slow(50, 0),
        );
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            net.admit(0, NodeId(0), NodeId(1), &mut rng),
            Some(Loss::Degraded)
        );
        // The uncovered direction is untouched.
        assert_eq!(net.admit(0, NodeId(1), NodeId(0), &mut rng), None);
        assert!(matches!(
            net.route(0, NodeId(0), NodeId(1), &mut rng),
            (51..=52, None)
        ));
        assert!(matches!(
            net.route(0, NodeId(1), NodeId(0), &mut rng),
            (1..=2, None)
        ));
        // A block rule wins over the loss, and draws nothing.
        net.block_pairs(simplex_pairs(&ids(&[0]), &ids(&[1])));
        let before = rng.clone().next_u64();
        assert_eq!(
            net.admit(0, NodeId(0), NodeId(1), &mut rng),
            Some(Loss::Partition)
        );
        assert_eq!(
            rng.next_u64(),
            before,
            "a blocked delivery drew from the RNG"
        );
    }

    #[test]
    fn flapping_rules_alternate_active_windows() {
        let rule = DegradeRule::lossy(1.0).flapping(100);
        assert!(rule.active_at(0));
        assert!(rule.active_at(99));
        assert!(!rule.active_at(100));
        assert!(!rule.active_at(199));
        assert!(rule.active_at(200));

        let mut net = fabric();
        net.degrade_pairs(simplex_pairs(&ids(&[0]), &ids(&[1])), rule);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            net.admit(50, NodeId(0), NodeId(1), &mut rng),
            Some(Loss::Degraded)
        );
        assert_eq!(
            net.admit(150, NodeId(0), NodeId(1), &mut rng),
            None,
            "flapping rule must be inactive in its healthy window"
        );
    }

    /// The per-message path before `route` and `admit`: one question per
    /// draw, each indexing the link again and walking every covering rule.
    /// Kept as the oracle the compiled passes must match draw for draw.
    impl Net {
        fn active_degrades(
            &self,
            now: Time,
            src: NodeId,
            dst: NodeId,
        ) -> impl Iterator<Item = &DegradeRule> {
            self.index(src, dst)
                .into_iter()
                .flat_map(move |i| self.links[i].active_degrades(now))
        }

        fn degrade_drop(&self, now: Time, src: NodeId, dst: NodeId, rng: &mut StdRng) -> bool {
            let mut dropped = false;
            for rule in self.active_degrades(now, src, dst) {
                if rule.loss > 0.0 && rng.gen_bool(rule.loss.min(1.0)) {
                    dropped = true;
                }
            }
            dropped
        }

        fn degrade_dup(&self, now: Time, src: NodeId, dst: NodeId, rng: &mut StdRng) -> bool {
            let mut dup = false;
            for rule in self.active_degrades(now, src, dst) {
                if rule.dup_probability > 0.0 && rng.gen_bool(rule.dup_probability.min(1.0)) {
                    dup = true;
                }
            }
            dup
        }

        fn delivery_time(&mut self, now: Time, src: NodeId, dst: NodeId, rng: &mut StdRng) -> Time {
            let mut at = now + BASE_LATENCY + rng.gen_range(0..=BASE_JITTER);
            let Some(i) = self.index(src, dst) else {
                return at;
            };
            let link = &mut self.links[i];
            for rule in link.active_degrades(now) {
                at += rule.extra_latency;
                if rule.jitter > 0 {
                    at += rng.gen_range(0..=rule.jitter);
                }
            }
            if at < link.last {
                at = link.last;
            }
            link.last = at;
            at
        }

        /// What the world asked at send: the time, the duplication draws,
        /// and the copy's time.
        fn route_oracle(
            &mut self,
            now: Time,
            src: NodeId,
            dst: NodeId,
            rng: &mut StdRng,
        ) -> (Time, Option<Time>) {
            let at = self.delivery_time(now, src, dst, rng);
            let dup = self.degrade_dup(now, src, dst, rng);
            (at, dup.then(|| self.delivery_time(now, src, dst, rng)))
        }

        /// What the world asked at delivery, in its order.
        fn admit_oracle(
            &self,
            now: Time,
            src: NodeId,
            dst: NodeId,
            rng: &mut StdRng,
        ) -> Option<Loss> {
            if self.is_blocked(src, dst) {
                Some(Loss::Partition)
            } else if self.degrade_drop(now, src, dst, rng) {
                Some(Loss::Degraded)
            } else {
                None
            }
        }
    }

    /// One step of a fabric's life. Node ids run to 5 in a four-node
    /// fabric, so pairs naming missing nodes come up in rules and traffic.
    #[derive(Clone, Debug)]
    enum Op {
        Block(Vec<(usize, usize)>),
        Degrade(Vec<(usize, usize)>, DegradeRule),
        /// Heals the rule with this id, installed or not, in any order.
        Unblock(u64),
        Undegrade(u64),
        Send(Time, usize, usize),
        Deliver(Time, usize, usize),
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, usize)> {
        (0usize..6, 0usize..6)
    }

    fn pairs(p: &[(usize, usize)]) -> BTreeSet<(NodeId, NodeId)> {
        p.iter().map(|&(s, d)| (NodeId(s), NodeId(d))).collect()
    }

    /// Every knob, each zero or not; flap periods of 1, 7 and 50 ms against
    /// message times up to 400 ms put sends on both sides of flap edges.
    fn rule() -> impl Strategy<Value = DegradeRule> {
        let knobs = (0usize..3, 0usize..3, 0u64..3, 0u64..4, 0usize..4);
        knobs.prop_map(|(loss, dup, extra, jitter, flap)| DegradeRule {
            loss: [0.0, 0.4, 1.0][loss],
            dup_probability: [0.0, 0.5, 1.0][dup],
            extra_latency: extra * 5,
            jitter,
            flap_period: [0, 1, 7, 50][flap],
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            1 => vec(pair(), 0..10).prop_map(Op::Block),
            3 => (vec(pair(), 0..10), rule()).prop_map(|(p, r)| Op::Degrade(p, r)),
            1 => (0u64..8).prop_map(Op::Unblock),
            2 => (0u64..8).prop_map(Op::Undegrade),
            6 => (0u64..400, pair()).prop_map(|(t, (s, d))| Op::Send(t, s, d)),
            6 => (0u64..400, pair()).prop_map(|(t, (s, d))| Op::Deliver(t, s, d)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn route_and_admit_draw_exactly_like_the_per_question_path(
            seed in 0u64..1_000,
            ops in vec(op(), 0..80),
        ) {
            let (mut net, mut oracle) = (Net::new(4), Net::new(4));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    Op::Block(ref p) => {
                        prop_assert_eq!(net.block_pairs(pairs(p)), oracle.block_pairs(pairs(p)));
                    }
                    Op::Degrade(ref p, rule) => {
                        let id = net.degrade_pairs(pairs(p), rule);
                        prop_assert_eq!(id, oracle.degrade_pairs(pairs(p), rule));
                    }
                    Op::Unblock(id) => {
                        let id = BlockRuleId(id);
                        prop_assert_eq!(net.unblock(id), oracle.unblock(id));
                    }
                    Op::Undegrade(id) => {
                        let id = DegradeRuleId(id);
                        prop_assert_eq!(net.undegrade(id), oracle.undegrade(id));
                    }
                    Op::Send(now, s, d) => {
                        let (s, d) = (NodeId(s), NodeId(d));
                        let want = oracle.route_oracle(now, s, d, &mut oracle_rng);
                        prop_assert_eq!(net.route(now, s, d, &mut rng), want, "step {}", step);
                    }
                    Op::Deliver(now, s, d) => {
                        let (s, d) = (NodeId(s), NodeId(d));
                        let want = oracle.admit_oracle(now, s, d, &mut oracle_rng);
                        prop_assert_eq!(net.admit(now, s, d, &mut rng), want, "step {}", step);
                    }
                }
                let (state, want) = (format!("{rng:?}"), format!("{oracle_rng:?}"));
                prop_assert_eq!(state, want, "RNG state after step {}", step);
            }
        }
    }
}
