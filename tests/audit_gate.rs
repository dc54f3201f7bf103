//! Tier-1 gate: every registered scenario arm must be reproducible —
//! running it twice with the same seed must yield byte-identical
//! execution fingerprints. This is the `cargo run -p fleet -- --audit`
//! check wired into `cargo test`, sharded across the fleet pool the same
//! way `fleet --audit --jobs K` runs it (the outcomes are index-ordered,
//! so the worker count cannot change what this test sees). The committed
//! `audit_hashes.txt` and `verdicts.txt` are rows of `bench::ARTIFACTS`,
//! regenerated here and compared byte for byte.

use neat_repro::campaign::{arm_ids, render_arm, run_arm, scenarios_of, RunMode, ScenarioClass};

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
        assert_eq!(fingerprint.lines().count(), 1, "{name}: a fingerprint is one line");
    }
}

/// A divergence report is a byte offset and both runs around it: add one
/// to the first op's `end` in a recorded arm's fingerprint, and the report
/// names a byte inside that number and shows both values.
#[test]
fn a_doctored_op_end_is_named_by_its_byte_offset() {
    let real = arm_ids()
        .iter()
        .map(|arm| render_arm(arm, 8))
        .find(|f| f.contains("Op { start: "))
        .expect("some arm records an op at seed 8");
    let op = real.find("Op { start: ").expect("found above");
    let end = op + real[op..].find("end: ").expect("an op has an end") + "end: ".len();
    let digits = real[end..].bytes().take_while(u8::is_ascii_digit).count();
    let value: u64 = real[end..end + digits].parse().expect("an end is a virtual time");
    let doctored = format!("{}{}{}", &real[..end], value + 1, &real[end + digits..]);
    let d = neat::audit::compare_runs("arm", 8, &real, &doctored).expect("the runs differ");
    let offset: usize = d
        .first_diff
        .strip_prefix("byte ")
        .and_then(|rest| rest.split(':').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no byte offset in {}", d.first_diff));
    assert!((end..end + digits).contains(&offset), "byte {offset} is outside `end: {value}`");
    for v in [value, value + 1] {
        assert!(d.first_diff.contains(&format!("end: {v},")), "{}", d.first_diff);
    }
}

/// Recording must not perturb a run (ROADMAP "Trust the verdicts" (b)):
/// with the note log and the `obs` timeline off (`Quick`) and on with the
/// fingerprint hashed (`Hash`), every arm reaches the same verdicts and the
/// same always-on counters — events simulated, messages dropped, partition
/// / heal / crash counts and the rest — at seeds 8 and 42.
#[test]
fn recording_does_not_perturb_any_arm() {
    for seed in [8, 42] {
        for arm in arm_ids() {
            let (quick, hash) = (run_arm(&arm, seed, RunMode::Quick), run_arm(&arm, seed, RunMode::Hash));
            let name = &arm.name;
            assert_eq!(
                hash.violations, quick.violations,
                "{name} seed {seed}: recorded verdicts differ from Quick"
            );
            assert_eq!(
                hash.timeline.counters, quick.timeline.counters,
                "{name} seed {seed}: recorded counters differ from Quick"
            );
        }
    }
}

/// The verdict oracle: what every arm observed at seeds 8 and 42 — its
/// counters, verdicts and timeline events, rendered through `Display` — is
/// committed in `verdicts.txt`. Unlike `audit_hashes.txt` it does not
/// depend on how the outcome types are named or laid out, so it is the
/// file that must not move when they are reshaped.
#[test]
fn verdicts_match_the_committed_oracle() {
    bench::check_fresh("verdicts.txt").unwrap_or_else(|stale| panic!("{stale}"));
}

/// The refactoring invariant (ROADMAP aim 2): every `audit <arm>: ok <hash>`
/// line of `fleet --audit` at seeds 8 and 42 is committed in
/// `audit_hashes.txt`, and a change that moves one byte of any arm's
/// execution fingerprint fails here.
#[test]
fn audit_hashes_match_the_committed_file() {
    bench::check_fresh("audit_hashes.txt").unwrap_or_else(|stale| panic!("{stale}"));
}
