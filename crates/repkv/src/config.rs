//! Configuration: the pluggable policies and flaw toggles.
//!
//! Every design flaw the paper documents for the primary-backup family is an
//! explicit, individually toggleable policy here, so the same protocol core
//! can run as a *flawed* profile (reproducing a studied failure) or as a
//! *fixed* baseline (the ablation the benches compare against).

use simnet::Time;

/// Leader-election victory criterion (Table 4's "electing bad leaders" all
/// stem from the first three).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ElectionPolicy {
    /// The node with the longest log wins — VoltDB's criterion; uncommitted
    /// entries count, so a stale minority can erase committed writes
    /// (ENG-10486).
    LongestLog,
    /// The node with the latest operation timestamp wins — MongoDB's
    /// pre-pv1 criterion (SERVER-17975 family).
    LatestTimestamp,
    /// The node with the lowest id wins — Elasticsearch's criterion
    /// (issue #2488, Listing 1).
    LowestId,
    /// The fixed baseline: highest `(term, committed, log length)` wins and
    /// nodes vote at most once per term.
    MajorityFreshest,
}

/// How the leader serves reads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReadPolicy {
    /// Reply from the local copy without validating leadership — the flaw
    /// behind the paper's dirty/stale read failures (Figure 2).
    LocalPrimary,
    /// Reply only while holding a majority-acknowledged lease; otherwise
    /// fail the read. The fixed baseline.
    LeasedPrimary,
}

/// When a write is acknowledged to the client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Replication {
    /// Acknowledge after the local apply, replicate in the background —
    /// Redis-style; acknowledged writes die with the old primary.
    Async,
    /// Acknowledge after a majority of data replicas applied the write.
    SyncMajority,
    /// Acknowledge after every data replica applied the write.
    SyncAll,
}

/// Tunable protocol parameters and flaw toggles.
#[derive(Clone, Debug)]
pub struct Config {
    pub election: ElectionPolicy,
    pub read: ReadPolicy,
    pub replication: Replication,
    /// Apply writes to the visible store before replication acknowledges
    /// (`true` = the flawed apply-then-replicate order of Figure 2). The
    /// fixed baseline buffers entries until committed.
    pub apply_before_commit: bool,
    /// On replication timeout, return an explicit *failure* to the client
    /// even though the local apply may survive (`true` = flawed; the fixed
    /// baseline leaves the outcome unknown, which clients observe as a
    /// timeout).
    pub fail_on_repl_timeout: bool,
    /// Allow a node to grant votes while it still receives heartbeats from
    /// a live leader — the Elasticsearch intersecting-split-brain flaw
    /// (issue #2488).
    pub vote_while_connected_to_leader: bool,
    /// Followers accept replication traffic from any node claiming
    /// leadership, regardless of term (part of the Elasticsearch profile).
    pub followers_accept_any_leader: bool,
    /// Non-primary replicas act as coordinators, forwarding client requests
    /// to the primary (Elasticsearch request routing, issue #9967).
    pub coordinator_routing: bool,
    /// Index of a server with absolute election priority; other candidates
    /// are vetoed — combined with a freshness veto this reproduces
    /// MongoDB's conflicting-criteria livelock (SERVER-14885).
    pub priority_node: Option<usize>,
    /// Append multi-key batches to the log as one unit and acknowledge only
    /// once the whole batch commits (`true` = fixed). The flawed default
    /// acknowledges on the first entry's append and drips the tail out one
    /// entry per replication round trip, so a partition mid-batch tears it.
    pub atomic_batch: bool,
    /// Heartbeat broadcast interval, ms.
    pub heartbeat_interval: Time,
    /// Base follower election timeout, ms (jittered up to +50%).
    pub election_timeout: Time,
    /// How long a leader waits for replication acks before giving up, ms.
    pub replication_timeout: Time,
    /// How many heartbeat rounds without a majority of acks before the
    /// leader steps down (every profile steps down; only the patience
    /// varies).
    pub step_down_rounds: u32,
    /// Coordinator wait before reporting a forwarded request failed, ms.
    pub coordinator_timeout: Time,
}

impl Config {
    /// Common defaults shared by every profile.
    fn base(election: ElectionPolicy) -> Self {
        Self {
            election,
            read: ReadPolicy::LocalPrimary,
            replication: Replication::SyncMajority,
            apply_before_commit: true,
            fail_on_repl_timeout: true,
            vote_while_connected_to_leader: false,
            followers_accept_any_leader: false,
            coordinator_routing: false,
            priority_node: None,
            atomic_batch: false,
            heartbeat_interval: 50,
            election_timeout: 300,
            replication_timeout: 200,
            step_down_rounds: 3,
            coordinator_timeout: 250,
        }
    }

    /// VoltDB-like profile: longest-log election, local-primary reads,
    /// apply-then-replicate (Figure 2, ENG-10389/10486).
    pub fn voltdb() -> Self {
        Self::base(ElectionPolicy::LongestLog)
    }

    /// MongoDB-like profile: latest-timestamp election (SERVER-17975).
    pub fn mongodb() -> Self {
        Self::base(ElectionPolicy::LatestTimestamp)
    }

    /// MongoDB profile with a priority replica whose veto conflicts with
    /// the freshness criterion (SERVER-14885).
    pub fn mongodb_with_priority(priority_node: usize) -> Self {
        Self {
            priority_node: Some(priority_node),
            ..Self::mongodb()
        }
    }

    /// Elasticsearch-like profile: lowest-id election, votes granted while
    /// still connected to a leader, term-less replication acceptance, and
    /// coordinator request routing (issues #2488 and #9967, Listing 1).
    pub fn elasticsearch() -> Self {
        Self {
            vote_while_connected_to_leader: true,
            followers_accept_any_leader: true,
            coordinator_routing: true,
            ..Self::base(ElectionPolicy::LowestId)
        }
    }

    /// Redis-like profile: asynchronous replication acknowledges writes
    /// that only exist on the primary (Jepsen: Redis). Failover itself is
    /// epoch-based (like Sentinel), so the new majority-side master wins
    /// consolidation and the old master's acknowledged writes roll back.
    pub fn redis() -> Self {
        Self {
            replication: Replication::Async,
            ..Self::base(ElectionPolicy::MajorityFreshest)
        }
    }

    /// The fixed baseline: majority-freshest election with one vote per
    /// term, commit-before-apply, leased reads, no explicit failure answers
    /// for unknown outcomes.
    pub fn fixed() -> Self {
        Self {
            read: ReadPolicy::LeasedPrimary,
            apply_before_commit: false,
            fail_on_repl_timeout: false,
            atomic_batch: true,
            ..Self::base(ElectionPolicy::MajorityFreshest)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_in_the_documented_flaws() {
        assert_eq!(Config::voltdb().election, ElectionPolicy::LongestLog);
        assert_eq!(Config::mongodb().election, ElectionPolicy::LatestTimestamp);
        assert_eq!(Config::elasticsearch().election, ElectionPolicy::LowestId);
        assert!(Config::elasticsearch().vote_while_connected_to_leader);
        assert!(Config::elasticsearch().coordinator_routing);
        assert_eq!(Config::redis().replication, Replication::Async);
    }

    #[test]
    fn fixed_profile_disables_every_flaw() {
        let f = Config::fixed();
        assert_eq!(f.election, ElectionPolicy::MajorityFreshest);
        assert_eq!(f.read, ReadPolicy::LeasedPrimary);
        assert!(!f.apply_before_commit);
        assert!(!f.fail_on_repl_timeout);
        assert!(!f.vote_while_connected_to_leader);
        assert!(!f.followers_accept_any_leader);
        assert!(f.priority_node.is_none());
        assert!(f.atomic_batch);
        assert!(!Config::voltdb().atomic_batch, "flawed profiles tear batches");
    }

    #[test]
    fn priority_profile_sets_the_veto_node() {
        assert_eq!(Config::mongodb_with_priority(0).priority_node, Some(0));
    }
}
