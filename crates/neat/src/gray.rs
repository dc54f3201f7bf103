//! Gray-failure fault specifications: targeted link degradation.
//!
//! The paper traces most *partial* partitions to flaky, congested, or
//! half-broken links (§2.1) — not clean cuts. A [`DegradeSpec`] is the
//! gray-failure sibling of [`crate::PartitionSpec`]: instead of blocking
//! a set of directed pairs outright, it installs a
//! [`simnet::DegradeRule`] over them — probabilistic loss, extra latency,
//! jitter, and duplication, optionally flapping between active and
//! healthy windows.

#![deny(missing_docs)]

use std::collections::BTreeSet;

use simnet::{
    net::{bidirectional_pairs, simplex_pairs},
    DegradeRule, DegradeRuleId, NodeId, Time,
};

pub use obs::DegradeKind;

/// A gray-failure fault to inject.
///
/// Like [`crate::PartitionSpec`], the two variants differ in *direction*:
/// `Partial` degrades both directions between group `a` and group `b`,
/// while `Simplex` degrades traffic from `src` to `dst` only. The attached
/// [`DegradeRule`] carries the degradation knobs; when its `flap_period`
/// is nonzero the fault classifies as [`DegradeKind::Flapping`] regardless
/// of direction.
#[derive(Clone, PartialEq, Debug)]
pub enum DegradeSpec {
    /// Degrade both directions between `a` and `b`.
    Partial {
        /// First group.
        a: Vec<NodeId>,
        /// Second group.
        b: Vec<NodeId>,
        /// The degradation applied to every directed pair.
        rule: DegradeRule,
    },
    /// Degrade traffic from `src` to `dst` only; replies flow cleanly.
    Simplex {
        /// Source group.
        src: Vec<NodeId>,
        /// Destination group.
        dst: Vec<NodeId>,
        /// The degradation applied to every directed pair.
        rule: DegradeRule,
    },
}

impl DegradeSpec {
    /// The taxonomy bucket of this fault.
    pub fn kind(&self) -> DegradeKind {
        if self.rule().flap_period > 0 {
            return DegradeKind::Flapping;
        }
        match self {
            DegradeSpec::Partial { .. } => DegradeKind::GrayPartial,
            DegradeSpec::Simplex { .. } => DegradeKind::GraySimplex,
        }
    }

    /// The two groups: `(a, b)`, or `(src, dst)` for a simplex fault.
    pub fn groups(&self) -> (&[NodeId], &[NodeId]) {
        match self {
            DegradeSpec::Partial { a, b, .. } => (a, b),
            DegradeSpec::Simplex { src, dst, .. } => (src, dst),
        }
    }

    /// The directed pairs this fault degrades.
    pub fn pairs(&self) -> BTreeSet<(NodeId, NodeId)> {
        let (a, b) = self.groups();
        match self {
            DegradeSpec::Partial { .. } => bidirectional_pairs(a, b),
            DegradeSpec::Simplex { .. } => simplex_pairs(a, b),
        }
    }

    /// The degradation rule this fault installs.
    pub fn rule(&self) -> DegradeRule {
        match self {
            DegradeSpec::Partial { rule, .. } | DegradeSpec::Simplex { rule, .. } => *rule,
        }
    }

    /// Convenience: a flapping bidirectional degradation — `rule` active
    /// for `period` virtual milliseconds, then healthy for `period`, and
    /// so on (the paper's intermittently flaky link).
    pub fn flapping(a: Vec<NodeId>, b: Vec<NodeId>, rule: DegradeRule, period: Time) -> Self {
        DegradeSpec::Partial {
            a,
            b,
            rule: rule.flapping(period),
        }
    }
}

/// An installed gray failure, used to heal it later.
///
/// Returned by [`crate::engine::Neat::degrade`]; pass it back to
/// [`crate::engine::Neat::heal_degrade`]. Degrade rules live in their own
/// id namespace, separate from partition block rules.
#[derive(Clone, Debug)]
pub struct Degrade {
    pub(crate) rule: DegradeRuleId,
    /// The specification that was installed, for logging/classification.
    pub spec: DegradeSpec,
}

impl Degrade {
    /// The taxonomy bucket of the installed fault.
    pub fn kind(&self) -> DegradeKind {
        self.spec.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<NodeId> {
        v.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn partial_degrades_both_directions() {
        let s = DegradeSpec::Partial {
            a: ids(&[0]),
            b: ids(&[1, 2]),
            rule: DegradeRule::lossy(0.5),
        };
        assert_eq!(s.kind(), DegradeKind::GrayPartial);
        let pairs = s.pairs();
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(pairs.contains(&(NodeId(1), NodeId(0))));
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn simplex_degrades_one_direction() {
        let s = DegradeSpec::Simplex {
            src: ids(&[0]),
            dst: ids(&[1]),
            rule: DegradeRule::duplicating(1.0),
        };
        assert_eq!(s.kind(), DegradeKind::GraySimplex);
        let pairs = s.pairs();
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(!pairs.contains(&(NodeId(1), NodeId(0))));
    }

    #[test]
    fn nonzero_flap_period_classifies_as_flapping() {
        let s = DegradeSpec::flapping(ids(&[0]), ids(&[1]), DegradeRule::lossy(1.0), 200);
        assert_eq!(s.kind(), DegradeKind::Flapping);
        assert_eq!(s.rule().flap_period, 200);
        let simplex = DegradeSpec::Simplex {
            src: ids(&[0]),
            dst: ids(&[1]),
            rule: DegradeRule::lossy(1.0).flapping(50),
        };
        assert_eq!(simplex.kind(), DegradeKind::Flapping);
    }

    #[test]
    fn kind_display_matches_registry_labels() {
        assert_eq!(DegradeKind::GrayPartial.to_string(), "gray-partial");
        assert_eq!(DegradeKind::GraySimplex.to_string(), "gray-simplex");
        assert_eq!(DegradeKind::Flapping.to_string(), "flapping");
    }
}
