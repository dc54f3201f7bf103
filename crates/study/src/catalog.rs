//! The 136-failure catalog.
//!
//! The fields the paper publishes *per failure* (Appendix A: system,
//! impact, partition type, timing constraint, citation; Appendix B: system,
//! impact, partition type, status) are transcribed verbatim. Dimensions the
//! paper reports only in aggregate — mechanisms, client access, event
//! counts and types, ordering, connectivity, cluster size, resolution — are
//! assigned by deterministic quota so that every marginal matches the
//! published table exactly (see [`catalog`]); per-failure values of those
//! fields are therefore synthetic, which EXPERIMENTS.md documents.

use crate::types::{
    ClientAccess, Connectivity, EventType, Failure, Impact, LeaderElectionFlaw, Mechanism,
    Ordering, PartitionType, Resolution, Source, System, Timing,
};

use Impact as I;
use PartitionType as P;
use Source as So;
use System as Sy;
use Timing as T;

/// One transcribed appendix row.
type Raw = (System, Source, &'static str, Impact, PartitionType, Timing);

/// Appendix A (Table 14): 104 failures from issue trackers and Jepsen.
pub const APPENDIX_A: &[Raw] = &[
    // MongoDB (19).
    (Sy::MongoDb, So::Jepsen, "[120]", I::DataLoss, P::Complete, T::Fixed),
    (Sy::MongoDb, So::Jepsen, "[65]", I::DirtyRead, P::Complete, T::Fixed),
    (Sy::MongoDb, So::Jepsen, "[65]", I::StaleRead, P::Complete, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[121]", I::DataLoss, P::Complete, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[122]", I::DataLoss, P::Partial, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[122]", I::StaleRead, P::Partial, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[123]", I::PerformanceDegradation, P::Partial, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[124]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::MongoDb, So::IssueTracker, "[125]", I::DataLoss, P::Partial, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[125]", I::StaleRead, P::Partial, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[126]", I::StaleRead, P::Complete, T::Fixed),
    (Sy::MongoDb, So::IssueTracker, "[127]", I::DataLoss, P::Complete, T::Unknown),
    (Sy::MongoDb, So::IssueTracker, "[127]", I::StaleRead, P::Complete, T::Unknown),
    (Sy::MongoDb, So::IssueTracker, "[128]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::MongoDb, So::IssueTracker, "[129]", I::DataLoss, P::Partial, T::Deterministic),
    (Sy::MongoDb, So::IssueTracker, "[130]", I::SystemCrashHang, P::Complete, T::Bounded),
    (Sy::MongoDb, So::IssueTracker, "[68]", I::PerformanceDegradation, P::Complete, T::Deterministic),
    (Sy::MongoDb, So::IssueTracker, "[131]", I::DataLoss, P::Simplex, T::Deterministic),
    (Sy::MongoDb, So::IssueTracker, "[73]", I::SystemCrashHang, P::Complete, T::Deterministic),
    // VoltDB (4).
    (Sy::VoltDb, So::IssueTracker, "[132]", I::DataLoss, P::Complete, T::Fixed),
    (Sy::VoltDb, So::IssueTracker, "[133]", I::DataLoss, P::Complete, T::Fixed),
    (Sy::VoltDb, So::IssueTracker, "[70]", I::DirtyRead, P::Complete, T::Fixed),
    (Sy::VoltDb, So::IssueTracker, "[70]", I::StaleRead, P::Complete, T::Fixed),
    // RethinkDB (3).
    (Sy::RethinkDb, So::IssueTracker, "[72]", I::DataLoss, P::Complete, T::Bounded),
    (Sy::RethinkDb, So::IssueTracker, "[72]", I::DirtyRead, P::Complete, T::Bounded),
    (Sy::RethinkDb, So::IssueTracker, "[72]", I::StaleRead, P::Complete, T::Bounded),
    // HBase (5).
    (Sy::HBase, So::IssueTracker, "[76]", I::DataLoss, P::Partial, T::Unknown),
    (Sy::HBase, So::IssueTracker, "[134]", I::PerformanceDegradation, P::Partial, T::Bounded),
    (Sy::HBase, So::IssueTracker, "[135]", I::DataUnavailability, P::Partial, T::Deterministic),
    (Sy::HBase, So::IssueTracker, "[136]", I::DataUnavailability, P::Complete, T::Unknown),
    (Sy::HBase, So::IssueTracker, "[137]", I::SystemCrashHang, P::Complete, T::Deterministic),
    // Riak (1).
    (Sy::Riak, So::IssueTracker, "[67]", I::DataLoss, P::Complete, T::Deterministic),
    // Cassandra (4).
    (Sy::Cassandra, So::IssueTracker, "[138]", I::StaleRead, P::Complete, T::Deterministic),
    (Sy::Cassandra, So::IssueTracker, "[138]", I::DataUnavailability, P::Complete, T::Deterministic),
    (Sy::Cassandra, So::IssueTracker, "[139]", I::DataLoss, P::Complete, T::Bounded),
    (Sy::Cassandra, So::IssueTracker, "[84]", I::SystemCrashHang, P::Complete, T::Bounded),
    // Aerospike (3).
    (Sy::Aerospike, So::IssueTracker, "[140]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Aerospike, So::IssueTracker, "[140]", I::StaleRead, P::Complete, T::Deterministic),
    (Sy::Aerospike, So::IssueTracker, "[140]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    // Geode (2).
    (Sy::Geode, So::IssueTracker, "[141]", I::DataUnavailability, P::Complete, T::Deterministic),
    (Sy::Geode, So::IssueTracker, "[142]", I::StaleRead, P::Complete, T::Unknown),
    // Redis (3).
    (Sy::Redis, So::IssueTracker, "[82]", I::DataCorruption, P::Complete, T::Bounded),
    (Sy::Redis, So::IssueTracker, "[143]", I::SystemCrashHang, P::Complete, T::Deterministic),
    (Sy::Redis, So::Jepsen, "[144]", I::DataLoss, P::Complete, T::Fixed),
    // Hazelcast (7).
    (Sy::Hazelcast, So::IssueTracker, "[145]", I::DataLoss, P::Complete, T::Fixed),
    (Sy::Hazelcast, So::IssueTracker, "[81]", I::DataLoss, P::Complete, T::Bounded),
    (Sy::Hazelcast, So::IssueTracker, "[146]", I::DataLoss, P::Complete, T::Bounded),
    (Sy::Hazelcast, So::IssueTracker, "[147]", I::PerformanceDegradation, P::Complete, T::Bounded),
    (Sy::Hazelcast, So::IssueTracker, "[148]", I::PerformanceDegradation, P::Complete, T::Deterministic),
    (Sy::Hazelcast, So::Jepsen, "[118]", I::DataLoss, P::Complete, T::Fixed),
    (Sy::Hazelcast, So::Jepsen, "[118]", I::BrokenLocks, P::Complete, T::Fixed),
    // ZooKeeper (3).
    (Sy::ZooKeeper, So::IssueTracker, "[149]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    (Sy::ZooKeeper, So::IssueTracker, "[150]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    (Sy::ZooKeeper, So::IssueTracker, "[74]", I::DataCorruption, P::Complete, T::Deterministic),
    // Elasticsearch (22).
    (Sy::Elasticsearch, So::IssueTracker, "[151]", I::StaleRead, P::Complete, T::Fixed),
    (Sy::Elasticsearch, So::IssueTracker, "[151]", I::DataLoss, P::Complete, T::Fixed),
    (Sy::Elasticsearch, So::IssueTracker, "[152]", I::DirtyRead, P::Complete, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[153]", I::StaleRead, P::Complete, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[153]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[154]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[155]", I::StaleRead, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[155]", I::DataLoss, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[156]", I::StaleRead, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[156]", I::DataLoss, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[80]", I::StaleRead, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[80]", I::DataLoss, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[75]", I::DataCorruption, P::Complete, T::Bounded),
    (Sy::Elasticsearch, So::IssueTracker, "[157]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[158]", I::PerformanceDegradation, P::Complete, T::Bounded),
    (Sy::Elasticsearch, So::IssueTracker, "[159]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Elasticsearch, So::IssueTracker, "[160]", I::DataLoss, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::Jepsen, "[161]", I::StaleRead, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::Jepsen, "[161]", I::DataLoss, P::Partial, T::Deterministic),
    (Sy::Elasticsearch, So::Jepsen, "[161]", I::StaleRead, P::Complete, T::Bounded),
    (Sy::Elasticsearch, So::Jepsen, "[161]", I::DataLoss, P::Complete, T::Bounded),
    (Sy::Elasticsearch, So::Jepsen, "[161]", I::DirtyRead, P::Complete, T::Fixed),
    // HDFS (4).
    (Sy::Hdfs, So::IssueTracker, "[162]", I::DataCorruption, P::Partial, T::Deterministic),
    (Sy::Hdfs, So::IssueTracker, "[163]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::Hdfs, So::IssueTracker, "[164]", I::PerformanceDegradation, P::Simplex, T::Bounded),
    (Sy::Hdfs, So::IssueTracker, "[79]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    // Kafka (5).
    (Sy::Kafka, So::IssueTracker, "[165]", I::SystemCrashHang, P::Complete, T::Deterministic),
    (Sy::Kafka, So::IssueTracker, "[166]", I::DataUnavailability, P::Complete, T::Deterministic),
    (Sy::Kafka, So::IssueTracker, "[167]", I::PerformanceDegradation, P::Complete, T::Deterministic),
    (Sy::Kafka, So::IssueTracker, "[168]", I::SystemCrashHang, P::Partial, T::Deterministic),
    (Sy::Kafka, So::Jepsen, "[169]", I::DataLoss, P::Complete, T::Deterministic),
    // RabbitMQ (7).
    (Sy::RabbitMq, So::IssueTracker, "[69]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::RabbitMq, So::IssueTracker, "[170]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::RabbitMq, So::IssueTracker, "[171]", I::PerformanceDegradation, P::Complete, T::Deterministic),
    (Sy::RabbitMq, So::IssueTracker, "[83]", I::SystemCrashHang, P::Partial, T::Deterministic),
    (Sy::RabbitMq, So::IssueTracker, "[172]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::RabbitMq, So::Jepsen, "[173]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::RabbitMq, So::Jepsen, "[173]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    // MapReduce (6).
    (Sy::MapReduce, So::IssueTracker, "[174]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::MapReduce, So::IssueTracker, "[175]", I::PerformanceDegradation, P::Complete, T::Deterministic),
    (Sy::MapReduce, So::IssueTracker, "[176]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::MapReduce, So::IssueTracker, "[177]", I::DataCorruption, P::Partial, T::Deterministic),
    (Sy::MapReduce, So::IssueTracker, "[78]", I::DataCorruption, P::Partial, T::Deterministic),
    (Sy::MapReduce, So::IssueTracker, "[178]", I::PerformanceDegradation, P::Complete, T::Bounded),
    // Chronos (2).
    (Sy::Chronos, So::Jepsen, "[179]", I::PerformanceDegradation, P::Complete, T::Deterministic),
    (Sy::Chronos, So::Jepsen, "[179]", I::SystemCrashHang, P::Complete, T::Deterministic),
    // Mesos (4).
    (Sy::Mesos, So::IssueTracker, "[180]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::Mesos, So::IssueTracker, "[181]", I::PerformanceDegradation, P::Partial, T::Deterministic),
    (Sy::Mesos, So::IssueTracker, "[182]", I::PerformanceDegradation, P::Complete, T::Deterministic),
    (Sy::Mesos, So::IssueTracker, "[183]", I::PerformanceDegradation, P::Simplex, T::Deterministic),
];

/// Appendix B (Table 15): the 32 failures NEAT found. Timing constraints
/// are assigned (the appendix omits them) to keep the Table 11 marginal.
pub const APPENDIX_B: &[Raw] = &[
    (Sy::Ceph, So::Neat, "[184]", I::DataLoss, P::Partial, T::Deterministic),
    (Sy::Ceph, So::Neat, "[184]", I::DataCorruption, P::Partial, T::Unknown),
    (Sy::ActiveMq, So::Neat, "[185]", I::SystemCrashHang, P::Partial, T::Unknown),
    (Sy::ActiveMq, So::Neat, "[186]", I::ReappearanceOfDeletedData, P::Complete, T::Fixed),
    (Sy::Terracotta, So::Neat, "[187]", I::StaleRead, P::Complete, T::Fixed),
    (Sy::Terracotta, So::Neat, "[188]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::Terracotta, So::Neat, "[189]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Terracotta, So::Neat, "[190]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Terracotta, So::Neat, "[190]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Terracotta, So::Neat, "[190]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Terracotta, So::Neat, "[191]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    (Sy::Terracotta, So::Neat, "[191]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    (Sy::Terracotta, So::Neat, "[191]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[192]", I::StaleRead, P::Complete, T::Fixed),
    (Sy::Ignite, So::Neat, "[193]", I::DataUnavailability, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[192]", I::DataUnavailability, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[193]", I::ReappearanceOfDeletedData, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[194]", I::DataUnavailability, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[195]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[195]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[195]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[195]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[195]", I::DataLoss, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[196]", I::BrokenLocks, P::Complete, T::Fixed),
    (Sy::Ignite, So::Neat, "[197]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[198]", I::BrokenLocks, P::Complete, T::Deterministic),
    (Sy::Ignite, So::Neat, "[199]", I::SystemCrashHang, P::Complete, T::Unknown),
    (Sy::Ignite, So::Neat, "[200]", I::Other, P::Complete, T::Deterministic),
    (Sy::Infinispan, So::Neat, "[201]", I::DirtyRead, P::Complete, T::Deterministic),
    (Sy::Dkron, So::Neat, "[202]", I::DataCorruption, P::Partial, T::Unknown),
    (Sy::MooseFs, So::Neat, "[203]", I::DataUnavailability, P::Partial, T::Deterministic),
    (Sy::MooseFs, So::Neat, "[204]", I::SystemCrashHang, P::Partial, T::Unknown),
];

/// Table 1's catastrophic counts per system, used to align the per-failure
/// catastrophic flags (the paper's per-failure classification is not
/// published; we mark the most severe impacts first, capped by eligibility).
fn catastrophic_quota(system: System) -> usize {
    match system {
        System::MongoDb => 11,
        System::VoltDb => 4,
        System::RethinkDb => 3,
        System::HBase => 3,
        System::Riak => 1,
        System::Cassandra => 4,
        System::Aerospike => 3,
        System::Geode => 2,
        System::Redis => 2,
        System::Hazelcast => 5,
        System::Elasticsearch => 21,
        System::ZooKeeper => 3,
        System::Hdfs => 2,
        System::Kafka => 3,
        System::RabbitMq => 4,
        System::MapReduce => 2,
        System::Chronos => 1,
        System::Mesos => 0,
        System::Infinispan => 1,
        System::Ignite => 13,
        System::Terracotta => 9,
        System::Ceph => 2,
        System::MooseFs => 2,
        System::ActiveMq => 2,
        System::Dkron => 1,
    }
}

/// A deterministic bijective shuffle over the 136 catalog indices, so the
/// quota assignment does not correlate with systems or appendices.
fn shuffled_indices(n: usize) -> Vec<usize> {
    // 67 is coprime with every n we use (n = 136).
    (0..n).map(|i| (i * 67 + 13) % n).collect()
}

/// Expands `(value, count)` pairs into a quota list of length `n`.
fn quota<Tq: Copy>(parts: &[(Tq, usize)], n: usize) -> Vec<Tq> {
    let out: Vec<Tq> = parts
        .iter()
        .flat_map(|&(v, c)| std::iter::repeat_n(v, c))
        .collect();
    assert_eq!(out.len(), n, "quota must cover the catalog exactly");
    out
}

/// Builds the fully classified catalog.
pub fn catalog() -> Vec<Failure> {
    let raw: Vec<Raw> = APPENDIX_A.iter().chain(APPENDIX_B.iter()).copied().collect();
    let n = raw.len();
    assert_eq!(n, 136);
    let order = shuffled_indices(n);

    // --- Quotas matching the published marginals -------------------------
    let client_access = quota(
        &[
            (ClientAccess::NoneNeeded, 38),
            (ClientAccess::OneSide, 49),
            (ClientAccess::BothSides, 49),
        ],
        n,
    );
    let min_events = quota(&[(1u8, 17), (2, 19), (3, 58), (4, 19), (5, 23)], n);
    let ordering = quota(
        &[
            (Ordering::PartitionNotFirst, 22),
            (Ordering::FirstOrderUnimportant, 38),
            (Ordering::FirstNaturalOrder, 37),
            (Ordering::FirstOtherOrder, 39),
        ],
        n,
    );
    let connectivity = quota(
        &[
            (Connectivity::AnyReplica, 61),
            (Connectivity::TheLeader, 49),
            (Connectivity::CentralService, 12),
            (Connectivity::SpecialRole, 5),
            (Connectivity::OtherSpecific, 9),
        ],
        n,
    );
    let single_node = quota(&[(true, 120), (false, 16)], n);
    let nodes = quota(&[(3u8, 113), (5, 23)], n);

    // Mechanisms: 162 labels over 136 failures (Table 3 is multi-label).
    let mech_pool: Vec<Mechanism> = quota(
        &[
            (Mechanism::LeaderElection, 54),
            (Mechanism::ConfigChangeAddNode, 14),
            (Mechanism::ConfigChangeRemoveNode, 5),
            (Mechanism::ConfigChangeMembership, 5),
            (Mechanism::ConfigChangeOther, 3),
            (Mechanism::DataConsolidation, 19),
            (Mechanism::RequestRouting, 18),
            (Mechanism::ReplicationProtocol, 17),
            (Mechanism::ReconfigurationOnPartition, 16),
            (Mechanism::Scheduling, 4),
            (Mechanism::DataMigration, 5),
            (Mechanism::SystemIntegration, 2),
        ],
        162,
    );

    // Event types: 148 labels over the 119 multi-event failures.
    let event_pool: Vec<EventType> = quota(
        &[
            (EventType::Write, 66),
            (EventType::Read, 47),
            (EventType::AcquireLock, 11),
            (EventType::AdminNodeChange, 11),
            (EventType::Delete, 6),
            (EventType::ReleaseLock, 5),
            (EventType::ClusterReboot, 2),
        ],
        148,
    );

    let le_flaws = quota(
        &[
            (LeaderElectionFlaw::OverlappingLeaders, 31),
            (LeaderElectionFlaw::ElectingBadLeaders, 11),
            (LeaderElectionFlaw::VotingForTwoCandidates, 10),
            (LeaderElectionFlaw::ConflictingElectionCriteria, 2),
        ],
        54,
    );

    let mut failures: Vec<Failure> = raw
        .iter()
        .enumerate()
        .map(|(id, &(system, source, reference, impact, partition, timing))| Failure {
            id,
            system,
            source,
            reference,
            impact,
            partition,
            timing,
            catastrophic: false,
            mechanisms: Vec::new(),
            leader_flaw: None,
            client_access: ClientAccess::BothSides,
            min_events: 3,
            event_types: Vec::new(),
            ordering: Ordering::FirstNaturalOrder,
            connectivity: Connectivity::AnyReplica,
            single_node_isolation: true,
            nodes_needed: 3,
            partitions_required: 1,
            // Finding 13: exactly the nondeterministic failures resist
            // testing.
            reproducible: timing != Timing::Unknown,
            resolution: None,
            resolution_days: None,
        })
        .collect();

    // --- Assign single-valued quotas over the shuffled order -------------
    for (slot, &idx) in order.iter().enumerate() {
        let f = &mut failures[idx];
        f.client_access = client_access[slot];
        f.min_events = min_events[slot];
        f.ordering = ordering[slot];
        f.connectivity = connectivity[slot];
        f.single_node_isolation = single_node[slot];
        f.nodes_needed = nodes[slot];
    }
    // Exactly one failure needs two partitions (§4.3: ~1%).
    failures[order[0]].partitions_required = 2;

    // --- Mechanisms: primary by quota, 26 secondary labels ---------------
    for (slot, &idx) in order.iter().enumerate() {
        failures[idx].mechanisms.push(mech_pool[slot]);
    }
    for (extra, &idx) in order.iter().take(162 - n).enumerate() {
        let m = mech_pool[n + extra];
        if !failures[idx].mechanisms.contains(&m) {
            failures[idx].mechanisms.push(m);
        }
    }
    // Leader-election flaw classes for the LE failures, in catalog order.
    let mut flaw_iter = le_flaws.into_iter();
    for f in failures.iter_mut() {
        if f.mechanisms.contains(&Mechanism::LeaderElection) {
            f.leader_flaw = flaw_iter.next();
        }
    }

    // --- Event types ------------------------------------------------------
    // Single-event failures involve only the network fault.
    let multi: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&idx| failures[idx].min_events > 1)
        .collect();
    assert_eq!(multi.len(), 119);
    for (slot, &idx) in multi.iter().enumerate() {
        failures[idx].event_types.push(event_pool[slot]);
    }
    // Deal the 29 remaining labels to failures with three or more events.
    let mut extra = 119;
    for &idx in multi.iter() {
        if extra >= event_pool.len() {
            break;
        }
        if failures[idx].min_events >= 3 && !failures[idx].event_types.contains(&event_pool[extra])
        {
            failures[idx].event_types.push(event_pool[extra]);
            extra += 1;
        }
    }
    for f in failures.iter_mut() {
        if f.min_events == 1 {
            f.event_types = vec![EventType::NetworkFaultOnly];
        }
    }

    // --- Catastrophic flags aligned with Table 1 -------------------------
    for system in System::all() {
        let mut ids: Vec<usize> = failures
            .iter()
            .filter(|f| f.system == system && f.impact.can_be_catastrophic())
            .map(|f| f.id)
            .collect();
        ids.sort_by_key(|&id| (failures[id].impact.severity(), id));
        for &id in ids.iter().take(catastrophic_quota(system)) {
            failures[id].catastrophic = true;
        }
    }

    // --- Resolution (tracker failures only, Table 12) --------------------
    let tracker: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&idx| failures[idx].source == Source::IssueTracker)
        .collect();
    assert_eq!(tracker.len(), 88);
    let resolutions = quota(
        &[
            (Resolution::Design, 41),
            (Resolution::Implementation, 28),
            (Resolution::Unresolved, 19),
        ],
        88,
    );
    let mut design_i = 0i64;
    let mut impl_i = 0i64;
    for (slot, &idx) in tracker.iter().enumerate() {
        let r = resolutions[slot];
        failures[idx].resolution = Some(r);
        failures[idx].resolution_days = match r {
            Resolution::Design => {
                // Mean exactly 205 days across the 41 design fixes.
                let d = 205 + (design_i - 20) * 5;
                design_i += 1;
                Some(d as u32)
            }
            Resolution::Implementation => {
                // Mean exactly 81 days across the 28 implementation fixes.
                let d = 81 + (2 * impl_i - 27);
                impl_i += 1;
                Some(d as u32)
            }
            Resolution::Unresolved => None,
        };
    }

    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_136_failures() {
        let c = catalog();
        assert_eq!(c.len(), 136);
        assert_eq!(APPENDIX_A.len(), 104);
        assert_eq!(APPENDIX_B.len(), 32);
    }

    #[test]
    fn sources_split_88_16_32() {
        let c = catalog();
        let count = |s: Source| c.iter().filter(|f| f.source == s).count();
        assert_eq!(count(Source::IssueTracker), 88);
        assert_eq!(count(Source::Jepsen), 16);
        assert_eq!(count(Source::Neat), 32);
    }

    #[test]
    fn per_system_totals_match_table1() {
        let c = catalog();
        let count = |s: System| c.iter().filter(|f| f.system == s).count();
        assert_eq!(count(System::MongoDb), 19);
        assert_eq!(count(System::Elasticsearch), 22);
        assert_eq!(count(System::Ignite), 15);
        assert_eq!(count(System::Terracotta), 9);
        assert_eq!(count(System::Mesos), 4);
        assert_eq!(count(System::Dkron), 1);
    }

    #[test]
    fn shuffle_is_a_bijection() {
        let mut idx = shuffled_indices(136);
        idx.sort();
        assert_eq!(idx, (0..136).collect::<Vec<_>>());
    }

    #[test]
    fn catastrophic_total_near_table1() {
        let c = catalog();
        let total = c.iter().filter(|f| f.catastrophic).count();
        // Table 1 sums to 104; HDFS's published count (2) exceeds its
        // catastrophic-eligible rows (1), so we land one short.
        assert!((103..=104).contains(&total), "{total}");
        // Mesos: zero catastrophic, as in Table 1.
        assert!(c
            .iter()
            .filter(|f| f.system == System::Mesos)
            .all(|f| !f.catastrophic));
    }

    #[test]
    fn quota_marginals_hold() {
        let c = catalog();
        let events1 = c.iter().filter(|f| f.min_events == 1).count();
        assert_eq!(events1, 17);
        let le = c
            .iter()
            .filter(|f| f.mechanisms.contains(&Mechanism::LeaderElection))
            .count();
        assert_eq!(le, 54);
        let flaws = c.iter().filter(|f| f.leader_flaw.is_some()).count();
        assert_eq!(flaws, 54);
        let three_nodes = c.iter().filter(|f| f.nodes_needed == 3).count();
        assert_eq!(three_nodes, 113);
        let single = c.iter().filter(|f| f.single_node_isolation).count();
        assert_eq!(single, 120);
    }

    #[test]
    fn single_event_failures_have_network_fault_only() {
        let c = catalog();
        for f in &c {
            if f.min_events == 1 {
                assert_eq!(f.event_types, vec![EventType::NetworkFaultOnly], "{}", f.id);
            } else {
                assert!(!f.event_types.contains(&EventType::NetworkFaultOnly));
                assert!(!f.event_types.is_empty());
                assert!(f.event_types.len() <= (f.min_events as usize - 1).max(1));
            }
        }
    }

    #[test]
    fn event_type_counts_match_table8() {
        let c = catalog();
        let count = |e: EventType| c.iter().filter(|f| f.event_types.contains(&e)).count();
        assert_eq!(count(EventType::NetworkFaultOnly), 17);
        assert_eq!(count(EventType::Write), 66);
        assert_eq!(count(EventType::Read), 47);
        assert_eq!(count(EventType::AcquireLock), 11);
        assert_eq!(count(EventType::AdminNodeChange), 11);
        assert_eq!(count(EventType::Delete), 6);
        assert_eq!(count(EventType::ReleaseLock), 5);
        assert_eq!(count(EventType::ClusterReboot), 2);
    }

    #[test]
    fn resolution_means_match_table12() {
        let c = catalog();
        let mean = |r: Resolution| {
            let days: Vec<u32> = c
                .iter()
                .filter(|f| f.resolution == Some(r))
                .filter_map(|f| f.resolution_days)
                .collect();
            days.iter().sum::<u32>() as f64 / days.len() as f64
        };
        assert_eq!(mean(Resolution::Design), 205.0);
        assert_eq!(mean(Resolution::Implementation), 81.0);
        let unresolved = c
            .iter()
            .filter(|f| f.resolution == Some(Resolution::Unresolved))
            .count();
        assert_eq!(unresolved, 19);
    }

    #[test]
    fn catalog_exports_as_json() {
        let c = catalog();
        let json = crate::json::Value::Arr(c.iter().map(Into::into).collect()).to_json();
        assert!(json.contains("\"MongoDb\"") || json.contains("\"MongoDB\""));
        // Every entry carries its citation key.
        assert!(c.iter().all(|f| f.reference.starts_with('[')));
    }

    #[test]
    fn reproducibility_tracks_nondeterminism() {
        let c = catalog();
        let repro = c.iter().filter(|f| f.reproducible).count();
        let nondet = c.iter().filter(|f| f.timing == Timing::Unknown).count();
        assert_eq!(repro + nondet, 136);
        assert_eq!(nondet, 10);
    }
}
