//! The failure-study schema: every dimension the paper classifies
//! failures along (Chapters 3–5).

/// The 25 studied systems (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum System {
    MongoDb,
    VoltDb,
    RethinkDb,
    HBase,
    Riak,
    Cassandra,
    Aerospike,
    Geode,
    Redis,
    Hazelcast,
    Elasticsearch,
    ZooKeeper,
    Hdfs,
    Kafka,
    RabbitMq,
    MapReduce,
    Chronos,
    Mesos,
    Infinispan,
    Ignite,
    Terracotta,
    Ceph,
    MooseFs,
    ActiveMq,
    Dkron,
}

impl System {
    /// Human-readable name as printed in Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            System::MongoDb => "MongoDB",
            System::VoltDb => "VoltDB",
            System::RethinkDb => "RethinkDB",
            System::HBase => "HBase",
            System::Riak => "Riak",
            System::Cassandra => "Cassandra",
            System::Aerospike => "Aerospike",
            System::Geode => "Geode",
            System::Redis => "Redis",
            System::Hazelcast => "Hazelcast",
            System::Elasticsearch => "Elasticsearch",
            System::ZooKeeper => "ZooKeeper",
            System::Hdfs => "HDFS",
            System::Kafka => "Kafka",
            System::RabbitMq => "RabbitMQ",
            System::MapReduce => "MapReduce",
            System::Chronos => "Chronos",
            System::Mesos => "Mesos",
            System::Infinispan => "Infinispan",
            System::Ignite => "Ignite",
            System::Terracotta => "Terracotta",
            System::Ceph => "Ceph",
            System::MooseFs => "MooseFS",
            System::ActiveMq => "ActiveMQ",
            System::Dkron => "DKron",
        }
    }

    /// The consistency model column of Table 1.
    pub fn consistency(&self) -> &'static str {
        match self {
            System::MongoDb
            | System::VoltDb
            | System::RethinkDb
            | System::HBase
            | System::Cassandra
            | System::Geode
            | System::ZooKeeper
            | System::Infinispan
            | System::Ignite
            | System::Terracotta
            | System::Ceph => "Strong",
            System::Riak => "Strong/Eventual",
            System::Aerospike | System::Redis | System::Elasticsearch | System::MooseFs => {
                "Eventual"
            }
            System::Hazelcast => "Best Effort",
            System::Hdfs => "Custom",
            System::Kafka
            | System::RabbitMq
            | System::MapReduce
            | System::Chronos
            | System::Mesos
            | System::ActiveMq
            | System::Dkron => "-",
        }
    }

    /// All systems, in Table 1 order.
    pub fn all() -> Vec<System> {
        vec![
            System::MongoDb,
            System::VoltDb,
            System::RethinkDb,
            System::HBase,
            System::Riak,
            System::Cassandra,
            System::Aerospike,
            System::Geode,
            System::Redis,
            System::Hazelcast,
            System::Elasticsearch,
            System::ZooKeeper,
            System::Hdfs,
            System::Kafka,
            System::RabbitMq,
            System::MapReduce,
            System::Chronos,
            System::Mesos,
            System::Infinispan,
            System::Ignite,
            System::Terracotta,
            System::Ceph,
            System::MooseFs,
            System::ActiveMq,
            System::Dkron,
        ]
    }
}

/// Where the failure report came from (Chapter 3: 88 + 16 + 32).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Source {
    IssueTracker,
    Jepsen,
    Neat,
}

/// Failure impact (Table 2's categories).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Impact {
    DataLoss,
    StaleRead,
    BrokenLocks,
    SystemCrashHang,
    DataUnavailability,
    ReappearanceOfDeletedData,
    DataCorruption,
    DirtyRead,
    PerformanceDegradation,
    Other,
}

impl Impact {
    /// Table 2 label.
    pub fn label(&self) -> &'static str {
        match self {
            Impact::DataLoss => "Data loss",
            Impact::StaleRead => "Stale read",
            Impact::BrokenLocks => "Broken locks",
            Impact::SystemCrashHang => "System crash/hang",
            Impact::DataUnavailability => "Data unavailability",
            Impact::ReappearanceOfDeletedData => "Reappearance of deleted data",
            Impact::DataCorruption => "Data corruption",
            Impact::DirtyRead => "Dirty read",
            Impact::PerformanceDegradation => "Performance degradation",
            Impact::Other => "Other",
        }
    }

    /// Severity rank for catastrophic-quota alignment (lower = worse).
    pub fn severity(&self) -> u8 {
        match self {
            Impact::DataLoss => 0,
            Impact::DataCorruption => 1,
            Impact::DirtyRead => 2,
            Impact::ReappearanceOfDeletedData => 3,
            Impact::BrokenLocks => 4,
            Impact::StaleRead => 5,
            Impact::DataUnavailability => 6,
            Impact::SystemCrashHang => 7,
            Impact::PerformanceDegradation => 8,
            Impact::Other => 9,
        }
    }

    /// Whether the impact *category* can be catastrophic (Table 2).
    pub fn can_be_catastrophic(&self) -> bool {
        !matches!(self, Impact::PerformanceDegradation | Impact::Other)
    }
}

/// Network-partitioning fault type (Table 6, Figure 1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PartitionType {
    Complete,
    Partial,
    Simplex,
}

/// Timing constraints (Table 11 / Appendix A legend).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Timing {
    /// No timing constraints: manifests given the events.
    Deterministic,
    /// Known (hard-coded or configurable) constraint, e.g. heartbeat counts.
    Fixed,
    /// Must overlap an internal operation, but still testable.
    Bounded,
    /// Nondeterministic (thread interleavings etc.).
    Unknown,
}

/// System mechanisms a failure involves (Table 3; multi-label).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Mechanism {
    LeaderElection,
    ConfigChangeAddNode,
    ConfigChangeRemoveNode,
    ConfigChangeMembership,
    ConfigChangeOther,
    DataConsolidation,
    RequestRouting,
    ReplicationProtocol,
    ReconfigurationOnPartition,
    Scheduling,
    DataMigration,
    SystemIntegration,
}

impl Mechanism {
    /// Table 3 label.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::LeaderElection => "Leader election",
            Mechanism::ConfigChangeAddNode => "Configuration change: adding a node",
            Mechanism::ConfigChangeRemoveNode => "Configuration change: removing a node",
            Mechanism::ConfigChangeMembership => "Configuration change: membership management",
            Mechanism::ConfigChangeOther => "Configuration change: other",
            Mechanism::DataConsolidation => "Data consolidation",
            Mechanism::RequestRouting => "Request routing",
            Mechanism::ReplicationProtocol => "Replication protocol",
            Mechanism::ReconfigurationOnPartition => "Reconfiguration due to a network partition",
            Mechanism::Scheduling => "Scheduling",
            Mechanism::DataMigration => "Data migration",
            Mechanism::SystemIntegration => "System integration",
        }
    }
}

/// Leader-election flaw classes (Table 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LeaderElectionFlaw {
    OverlappingLeaders,
    ElectingBadLeaders,
    VotingForTwoCandidates,
    ConflictingElectionCriteria,
}

/// Client access requirement (Table 5).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ClientAccess {
    NoneNeeded,
    OneSide,
    BothSides,
}

/// Event types participating in the manifestation sequence (Table 8).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum EventType {
    NetworkFaultOnly,
    Write,
    Read,
    AcquireLock,
    AdminNodeChange,
    Delete,
    ReleaseLock,
    ClusterReboot,
}

/// Ordering characteristics (Table 9).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Ordering {
    PartitionNotFirst,
    FirstOrderUnimportant,
    FirstNaturalOrder,
    FirstOtherOrder,
}

/// Connectivity requirement (Table 10).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Connectivity {
    AnyReplica,
    TheLeader,
    CentralService,
    SpecialRole,
    OtherSpecific,
}

/// Resolution class (Table 12; tracker-reported failures only).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Resolution {
    Design,
    Implementation,
    Unresolved,
}

/// One fully classified failure.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Stable index within the catalog.
    pub id: usize,
    pub system: System,
    pub source: Source,
    /// Citation key as printed in the appendix.
    pub reference: &'static str,
    pub impact: Impact,
    pub partition: PartitionType,
    pub timing: Timing,
    /// Catastrophic flag aligned with Table 1 (see `catalog::enrich`).
    pub catastrophic: bool,
    pub mechanisms: Vec<Mechanism>,
    pub leader_flaw: Option<LeaderElectionFlaw>,
    pub client_access: ClientAccess,
    /// Minimum number of events, counting the partition itself (Table 7).
    pub min_events: u8,
    pub event_types: Vec<EventType>,
    pub ordering: Ordering,
    pub connectivity: Connectivity,
    /// Whether isolating a single node suffices (Finding 9).
    pub single_node_isolation: bool,
    /// Nodes needed to reproduce (Table 13: 3 or 5).
    pub nodes_needed: u8,
    /// Number of distinct partitions required (§4.3: 99% need one).
    pub partitions_required: u8,
    /// Reproducible through tests with fault injection (Finding 13).
    pub reproducible: bool,
    /// Resolution class (tracker failures only).
    pub resolution: Option<Resolution>,
    /// Resolution time in days (resolved tracker failures only).
    pub resolution_days: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_five_systems() {
        assert_eq!(System::all().len(), 25);
    }

    #[test]
    fn severity_orders_data_loss_first() {
        assert!(Impact::DataLoss.severity() < Impact::StaleRead.severity());
        assert!(Impact::StaleRead.severity() < Impact::PerformanceDegradation.severity());
    }

    #[test]
    fn perf_degradation_never_catastrophic() {
        assert!(!Impact::PerformanceDegradation.can_be_catastrophic());
        assert!(!Impact::Other.can_be_catastrophic());
        assert!(Impact::DataLoss.can_be_catastrophic());
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Impact::DirtyRead.label(), "Dirty read");
        assert_eq!(Mechanism::LeaderElection.label(), "Leader election");
        assert_eq!(System::MongoDb.name(), "MongoDB");
        assert_eq!(System::MongoDb.consistency(), "Strong");
        assert_eq!(System::Hazelcast.consistency(), "Best Effort");
    }

    #[test]
    fn failure_serializes_to_json() {
        let f = Failure {
            id: 0,
            system: System::Redis,
            source: Source::Jepsen,
            reference: "[144]",
            impact: Impact::DataLoss,
            partition: PartitionType::Complete,
            timing: Timing::Fixed,
            catastrophic: true,
            mechanisms: vec![Mechanism::LeaderElection],
            leader_flaw: Some(LeaderElectionFlaw::OverlappingLeaders),
            client_access: ClientAccess::OneSide,
            min_events: 3,
            event_types: vec![EventType::Write],
            ordering: Ordering::FirstNaturalOrder,
            connectivity: Connectivity::TheLeader,
            single_node_isolation: true,
            nodes_needed: 3,
            partitions_required: 1,
            reproducible: true,
            resolution: None,
            resolution_days: None,
        };
        let s = crate::json::Value::from(&f).to_json();
        assert!(s.contains("\"Redis\""));
        assert!(s.contains("\"leader_flaw\":\"OverlappingLeaders\""));
        assert!(s.contains("\"resolution\":null"));
    }
}
