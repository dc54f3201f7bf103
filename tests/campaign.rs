//! End-to-end campaign: every scenario must reproduce its failure under
//! the flawed configuration and come up clean under the repaired baseline
//! — the §6.4 headline, regenerated.

use neat_repro::campaign::{run_all_scenarios, table15};

#[test]
fn every_scenario_reproduces_its_failure() {
    let results = run_all_scenarios(8);
    for r in &results {
        assert!(
            !r.flawed.is_empty(),
            "{} ({} {}) found nothing under the flawed configuration",
            r.name,
            r.system,
            r.reference
        );
    }
}

#[test]
fn repaired_baselines_are_clean() {
    let results = run_all_scenarios(8);
    for r in &results {
        // The thrashing scenario's fixed arm is validated in its unit test
        // (it needs a different deployment shape).
        if r.name == "arbiter_thrashing" {
            continue;
        }
        assert!(
            r.fixed.is_empty(),
            "{} still fails when fixed: {:?}",
            r.name,
            r.fixed
        );
    }
}

#[test]
fn table15_reproduces_at_least_thirty_of_thirty_two() {
    let results = run_all_scenarios(8);
    let rows = table15(&results);
    assert_eq!(rows.len(), 32, "Table 15 has 32 rows");
    let found = rows.iter().filter(|r| r.detected).count();
    assert!(
        found >= 30,
        "paper found 32; we reproduce {found} (2 rows are not modelled)"
    );
}

#[test]
fn campaign_covers_all_seven_neat_systems_and_more() {
    let results = run_all_scenarios(8);
    let mut systems: Vec<&str> = results.iter().map(|r| r.system).collect();
    systems.sort();
    systems.dedup();
    for s in [
        "ActiveMQ",
        "Aerospike",
        "Ceph",
        "DKron",
        "Elasticsearch",
        "Hazelcast",
        "HBase",
        "HDFS",
        "Kafka",
        "Ignite",
        "MapReduce",
        "MongoDB",
        "MooseFS",
        "RabbitMQ",
        "Redis",
        "RethinkDB",
        "Terracotta",
        "VoltDB",
        "ZooKeeper",
    ] {
        assert!(systems.contains(&s), "campaign misses {s}: {systems:?}");
    }
}

#[test]
fn campaign_is_deterministic() {
    let a = run_all_scenarios(8);
    let b = run_all_scenarios(8);
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.flawed, y.flawed, "{}", x.name);
        assert_eq!(x.fixed, y.fixed, "{}", x.name);
    }
}

#[test]
fn campaign_impacts_cover_the_paper_taxonomy() {
    use neat_repro::neat::ViolationKind;
    let results = run_all_scenarios(8);
    let all: Vec<ViolationKind> = results.iter().flat_map(|r| r.flawed.clone()).collect();
    for kind in [
        ViolationKind::DataLoss,
        ViolationKind::StaleRead,
        ViolationKind::DirtyRead,
        ViolationKind::ReappearanceOfDeletedData,
        ViolationKind::DataCorruption,
        ViolationKind::DataUnavailability,
        ViolationKind::DoubleLocking,
        ViolationKind::BrokenLock,
        ViolationKind::DoubleDequeue,
        ViolationKind::DoubleExecution,
        ViolationKind::SystemHang,
    ] {
        assert!(all.contains(&kind), "no scenario produced {kind}");
    }
}

/// Every scenario name the campaign repeats outside its registry — the
/// `catalog_coverage` map and the Table 15 rows — is registered, and every
/// coverage reference is a catalog citation. No regenerated artifact reads
/// a row whose scenario is unregistered, so a rename would otherwise decay
/// into a silent "not modelled" row.
#[test]
fn catalog_coverage_references_are_real() {
    let coverage = neat_repro::campaign::catalog_coverage();
    let catalog = neat_repro::study::catalog();
    let refs: std::collections::BTreeSet<&str> =
        catalog.iter().map(|f| f.reference).collect();
    let scenarios: std::collections::BTreeSet<&str> =
        neat_repro::campaign::registry().iter().map(|s| s.name).collect();
    for (reference, scenario) in &coverage {
        assert!(
            refs.contains(reference),
            "{reference} is not a catalog citation"
        );
        assert!(
            scenarios.contains(scenario),
            "{scenario} is not a campaign scenario"
        );
    }
    for row in table15(&[]) {
        if let Some(scenario) = row.scenario {
            assert!(
                scenarios.contains(scenario),
                "Table 15 row {} {} maps to {scenario}, which is not a campaign scenario",
                row.system,
                row.reference
            );
        }
    }
    // A meaningful share of the study is executable.
    let covered = catalog
        .iter()
        .filter(|f| coverage.iter().any(|(r, _)| r == &f.reference))
        .count();
    assert!(covered >= 45, "only {covered}/136 covered");
}

/// Every partition label has exactly one class, and the three special
/// classes claim exactly the labels their reports are built from — in
/// particular `load-gray-loss` and `load-flapping` are load scenarios, not
/// gray ones.
#[test]
fn every_scenario_has_one_class_read_off_its_label() {
    use neat_repro::campaign::{registry, scenarios_of, ScenarioClass};
    let labels = |class| -> std::collections::BTreeSet<&str> {
        scenarios_of(class).map(|s| s.partition).collect()
    };
    assert_eq!(
        labels(ScenarioClass::Partition),
        ["complete", "partial", "simplex"].into()
    );
    assert_eq!(
        labels(ScenarioClass::Gray),
        ["flapping", "gray-partial", "gray-simplex"].into()
    );
    assert_eq!(
        labels(ScenarioClass::Load),
        ["load-batch-simplex", "load-flapping", "load-gray-loss", "load-heal", "load-hot-key"]
            .into()
    );
    assert_eq!(
        labels(ScenarioClass::Explored),
        ["explored-complete", "explored-simplex", "explored-simplex-heal"].into()
    );
    let classed: usize = [
        ScenarioClass::Partition,
        ScenarioClass::Gray,
        ScenarioClass::Load,
        ScenarioClass::Explored,
    ]
    .map(|c| scenarios_of(c).count())
    .iter()
    .sum();
    assert_eq!(classed, registry().len());
}
