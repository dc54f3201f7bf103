//! Tier-1 gate: every registered scenario arm must be reproducible —
//! running it twice with the same seed must yield byte-identical
//! execution fingerprints. This is the `cargo run -p lint -- --audit`
//! check wired into `cargo test`, sharded across the fleet pool the same
//! way `lint --audit --jobs K` runs it (the outcomes are index-ordered,
//! so the worker count cannot change what this test sees).

use neat_repro::campaign::{arm_ids, run_arm, scenarios_of, RunMode, ScenarioClass};

#[test]
fn every_scenario_arm_double_runs_identically() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(8);
    let outcomes = fleet::campaign::audit(42, jobs);
    let failures: Vec<String> = outcomes
        .iter()
        .filter(|o| !o.is_ok())
        .map(|o| o.render())
        .collect();
    assert!(
        failures.is_empty(),
        "scenarios diverged across same-seed runs:\n{}",
        failures.join("\n")
    );
    assert!(
        outcomes.len() >= 93,
        "registry shrank: only {} arms audited",
        outcomes.len()
    );
    // The gray-failure arms (flapping / gray-simplex / gray-partial
    // degradations) are part of the audited registry: double-run identity
    // covers degraded-link RNG draws too.
    let gray = scenarios_of(ScenarioClass::Gray).count();
    assert!(gray >= 6, "only {gray} gray scenarios registered");
    // So are the load-driven arms: double-run identity covers the
    // workload driver's RNG (arrival gaps, key sampling, op mix) too.
    let load = scenarios_of(ScenarioClass::Load).count();
    assert!(load >= 5, "only {load} load scenarios registered");
    // And the delta-minimized explorer regressions: replaying a ddmin'd
    // schedule must be as reproducible as any hand-written scenario.
    let explored = scenarios_of(ScenarioClass::Explored).count();
    assert!(explored >= 2, "only {explored} explored regressions registered");
}

/// The audit's streamed FNV-1a hash must equal the hash of the fully
/// rendered fingerprint for every arm — the end-to-end proof that the
/// zero-allocation fast path hashes exactly the bytes the rendered
/// fingerprint contains, and therefore that every committed
/// `audit <arm>: ok <hash>` line survives the streaming rewrite unchanged.
#[test]
fn streamed_audit_hashes_equal_rendered_fingerprint_hashes() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(8);
    let outcomes = fleet::campaign::audit(42, jobs);
    let rendered = fleet::campaign::fingerprints(42, jobs);
    assert_eq!(outcomes.len(), rendered.len());
    for (o, (name, fingerprint)) in outcomes.iter().zip(rendered.iter()) {
        assert_eq!(&o.name, name, "audit and fingerprint sweeps disagree on arm order");
        assert_eq!(
            o.result,
            Ok(neat::audit::trace_hash(fingerprint)),
            "{name}: streamed audit hash disagrees with the rendered fingerprint bytes"
        );
    }
}

/// Recording must not perturb a run (ROADMAP "Trust the verdicts" (b)):
/// with the trace and the `obs` timeline off (`Quick`), on (`Trace`) and on
/// with the fingerprint hashed (`Hash`), every arm reaches the same
/// verdicts and the same always-on counters — events simulated, messages
/// dropped, partition / heal / crash counts and the rest.
#[test]
fn recording_does_not_perturb_any_arm() {
    for seed in [8, 42] {
        for arm in arm_ids() {
            let quiet = run_arm(&arm, seed, RunMode::Quick);
            for mode in [RunMode::Trace, RunMode::Hash] {
                let recorded = run_arm(&arm, seed, mode);
                assert_eq!(
                    recorded.violations, quiet.violations,
                    "{} seed {seed}: {mode:?} verdicts differ from Quick",
                    arm.name
                );
                assert_eq!(
                    recorded.timeline.counters, quiet.timeline.counters,
                    "{} seed {seed}: {mode:?} counters differ from Quick",
                    arm.name
                );
            }
        }
    }
}

/// The refactoring invariant (ROADMAP aim 2): every `audit <arm>: ok <hash>`
/// line of `lint --audit` at seeds 8 and 42 is committed in
/// `audit_hashes.txt`, and a change that moves one byte of any arm's
/// execution fingerprint fails here.
#[test]
fn audit_hashes_match_the_committed_file() {
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(8);
    let mut regenerated = String::new();
    for seed in [8, 42] {
        let outcomes = fleet::campaign::audit(seed, jobs);
        for o in &outcomes {
            regenerated.push_str(&o.render());
            regenerated.push('\n');
        }
        regenerated.push_str(&format!(
            "audit: {} scenario arm(s) double-run with seed {seed}, 0 divergence(s)\n",
            outcomes.len()
        ));
    }
    let committed = include_str!("../audit_hashes.txt");
    let first_diff = committed
        .lines()
        .zip(regenerated.lines())
        .find(|(a, b)| a != b);
    assert!(
        committed == regenerated,
        "audit_hashes.txt differs (first: {first_diff:?}); a behaviour change refreshes it with \
         `(cargo run --release -p lint -- --audit --seed 8; \
         cargo run --release -p lint -- --audit --seed 42) > audit_hashes.txt`"
    );
}
