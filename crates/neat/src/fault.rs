//! Network-partitioning fault specifications (the paper's Figure 1).

use std::collections::BTreeSet;

use simnet::{
    net::{bidirectional_pairs, simplex_pairs},
    BlockRuleId, NodeId,
};

pub use obs::PartitionKind;

/// A network-partitioning fault to inject.
///
/// `Complete` and `Partial` have identical *mechanics* (both directions
/// between group `a` and group `b` are blocked); they differ in intent and in
/// group composition — a complete partition's groups cover the whole cluster,
/// while a partial partition leaves a third group connected to both sides.
/// Keeping both mirrors the paper's `Partitioner.complete`/`partial` API and
/// lets harnesses classify the faults they injected (Table 6).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PartitionSpec {
    /// Split `a` from `b` completely.
    Complete { a: Vec<NodeId>, b: Vec<NodeId> },
    /// Split `a` from `b` while every node outside `a ∪ b` reaches both.
    Partial { a: Vec<NodeId>, b: Vec<NodeId> },
    /// Drop traffic from `src` to `dst` only; replies still flow.
    Simplex { src: Vec<NodeId>, dst: Vec<NodeId> },
}

impl PartitionSpec {
    /// The taxonomy bucket of this fault.
    pub fn kind(&self) -> PartitionKind {
        match self {
            PartitionSpec::Complete { .. } => PartitionKind::Complete,
            PartitionSpec::Partial { .. } => PartitionKind::Partial,
            PartitionSpec::Simplex { .. } => PartitionKind::Simplex,
        }
    }

    /// The two groups: `(a, b)`, or `(src, dst)` for a simplex fault.
    pub fn groups(&self) -> (&[NodeId], &[NodeId]) {
        match self {
            PartitionSpec::Complete { a, b } | PartitionSpec::Partial { a, b } => (a, b),
            PartitionSpec::Simplex { src, dst } => (src, dst),
        }
    }

    /// The directed pairs this fault blocks.
    pub fn pairs(&self) -> BTreeSet<(NodeId, NodeId)> {
        let (a, b) = self.groups();
        match self.kind() {
            PartitionKind::Simplex => simplex_pairs(a, b),
            PartitionKind::Complete | PartitionKind::Partial => bidirectional_pairs(a, b),
        }
    }

    /// A fault of `kind` aimed at `victim`, the rest of `servers` on the
    /// other side: complete `[victim] | rest`; partial `[victim] | rest`
    /// minus its last node, which stays a bridge to both sides (Figure
    /// 1.b) whenever `rest` has two or more nodes; simplex `rest ->
    /// [victim]`, so the victim still sends but hears nothing. Isolating
    /// one node can trigger 88% of the paper's failures (Finding 9).
    pub fn isolating(kind: PartitionKind, victim: NodeId, servers: &[NodeId]) -> Self {
        let mut rest = rest_of(servers, &[victim]);
        match kind {
            PartitionKind::Complete => PartitionSpec::Complete { a: vec![victim], b: rest },
            PartitionKind::Partial => {
                if rest.len() > 1 {
                    rest.pop();
                }
                PartitionSpec::Partial { a: vec![victim], b: rest }
            }
            PartitionKind::Simplex => PartitionSpec::Simplex { src: rest, dst: vec![victim] },
        }
    }
}

/// An installed partition, used to heal it later.
///
/// Returned by [`crate::engine::Neat::partition`]; pass it back to
/// [`crate::engine::Neat::heal`].
#[derive(Clone, Debug)]
pub struct Partition {
    pub(crate) rule: BlockRuleId,
    /// The specification that was installed, for logging/classification.
    pub spec: PartitionSpec,
}

impl Partition {
    /// The taxonomy bucket of the installed fault.
    pub fn kind(&self) -> PartitionKind {
        self.spec.kind()
    }
}

/// Returns `all` minus `group`, preserving order — the paper's
/// `Partitioner.rest(minority)` helper (Listing 2).
pub fn rest_of(all: &[NodeId], group: &[NodeId]) -> Vec<NodeId> {
    all.iter().copied().filter(|n| !group.contains(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn complete_and_partial_share_mechanics() {
        let c = PartitionSpec::Complete {
            a: ids(&[0]),
            b: ids(&[1, 2]),
        };
        let p = PartitionSpec::Partial {
            a: ids(&[0]),
            b: ids(&[1, 2]),
        };
        assert_eq!(c.pairs(), p.pairs());
        assert_ne!(c.kind(), p.kind());
    }

    #[test]
    fn simplex_pairs_are_one_directional() {
        let s = PartitionSpec::Simplex {
            src: ids(&[0]),
            dst: ids(&[1]),
        };
        let pairs = s.pairs();
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(!pairs.contains(&(NodeId(1), NodeId(0))));
    }

    #[test]
    fn isolate_builds_single_node_split() {
        let s = PartitionSpec::isolating(PartitionKind::Complete, NodeId(2), &ids(&[0, 1, 2]));
        assert_eq!(s.kind(), PartitionKind::Complete);
        assert_eq!(s.pairs().len(), 4);
    }

    #[test]
    fn isolating_partial_leaves_a_bridge() {
        let servers = ids(&[0, 1, 2, 3]);
        let spec = PartitionSpec::isolating(PartitionKind::Partial, NodeId(0), &servers);
        assert_eq!(spec, PartitionSpec::Partial { a: ids(&[0]), b: ids(&[1, 2]) });
        // Two servers leave no bridge to keep: the victim is cut off.
        let pair = PartitionSpec::isolating(PartitionKind::Partial, NodeId(1), &ids(&[0, 1]));
        assert_eq!(pair.groups(), (&ids(&[1])[..], &ids(&[0])[..]));
    }

    #[test]
    fn isolating_aims_every_kind_at_the_victim() {
        let servers = ids(&[0, 1, 2]);
        let complete = PartitionSpec::isolating(PartitionKind::Complete, NodeId(1), &servers);
        assert_eq!(complete, PartitionSpec::Complete { a: ids(&[1]), b: ids(&[0, 2]) });
        let simplex = PartitionSpec::isolating(PartitionKind::Simplex, NodeId(1), &servers);
        assert_eq!(simplex.groups(), (&ids(&[0, 2])[..], &ids(&[1])[..]));
        assert_eq!(simplex.pairs().len(), 2);
    }

    #[test]
    fn rest_of_excludes_group() {
        let all = ids(&[0, 1, 2, 3]);
        assert_eq!(rest_of(&all, &ids(&[1, 3])), ids(&[0, 2]));
        assert_eq!(rest_of(&all, &[]), all);
    }

    #[test]
    fn kind_display_matches_table6_labels() {
        assert_eq!(PartitionKind::Complete.to_string(), "complete");
        assert_eq!(PartitionKind::Partial.to_string(), "partial");
        assert_eq!(PartitionKind::Simplex.to_string(), "simplex");
    }
}
