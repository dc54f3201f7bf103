//! Raft safety under randomized network-partitioning schedules: the
//! proven-protocol control arm of the study. Whatever faults we throw at
//! baseline Raft, the checkers must stay silent.

mod common;

use std::collections::BTreeMap;

use neat_repro::consensus::{Cmd, RaftRole, RaftTarget, RaftTweaks};
use neat_repro::neat::{
    checkers::check_linearizable_register,
    explore::{run_schedule, Deployment, SchedulePlan, TestTarget},
    Violation,
};
use neat_repro::simnet::NodeId;
use proptest::prelude::*;

fn baseline() -> RaftTarget {
    RaftTarget::new(RaftTweaks::default(), 3)
}

/// Plans of fewer than 20 steps with sleeps of 50–400 ms, crashes
/// included.
fn raft_plans() -> impl Strategy<Value = SchedulePlan> {
    common::plans(&mut baseline(), true, 50..400, 20)
}

/// Runs `plan` on a freshly reset baseline cluster and returns the
/// cluster with the verdicts of its own checkers.
fn run(seed: u64, plan: &SchedulePlan) -> (RaftTarget, Vec<Violation>) {
    let mut target = baseline();
    target.reset(seed, false);
    let verdicts = run_schedule(&mut target, plan);
    (target, verdicts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Election safety: never two leaders in the same term.
    #[test]
    fn at_most_one_leader_per_term(
        seed in 0u64..500,
        plan in raft_plans(),
    ) {
        let (mut target, _) = run(seed, &plan);
        let servers = target.nodes();
        let neat = target.neat();
        let mut by_term: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for s in servers {
            let sv = neat.world.app(s).server();
            if sv.role() == RaftRole::Leader {
                by_term.entry(sv.term()).or_default().push(s);
            }
        }
        for (term, leaders) in by_term {
            prop_assert!(leaders.len() <= 1, "term {term} has leaders {leaders:?}\nplan: {}", plan.render());
        }
    }

    /// No acknowledged write is ever lost (the target's checkers stay
    /// silent), and per-key histories stay linearizable — regardless of
    /// the fault schedule.
    #[test]
    fn no_acknowledged_write_lost(
        seed in 0u64..500,
        plan in raft_plans(),
    ) {
        let (mut target, verdicts) = run(seed, &plan);
        let history = target.neat().history();
        prop_assert!(verdicts.is_empty(), "{verdicts:?}\nplan: {}\n{}", plan.render(), history.render());
        for key in ["k0", "k1", "k2"] {
            let lin = check_linearizable_register(history, key, None);
            prop_assert!(lin.is_empty(), "{key}: {lin:?}\nplan: {}\n{}", plan.render(), history.render());
        }
    }

    /// Committed logs on any two servers are prefixes of one another
    /// (log matching, observed after quiescence).
    #[test]
    fn committed_logs_agree(
        seed in 0u64..500,
        plan in raft_plans(),
    ) {
        let (mut target, _) = run(seed, &plan);
        let servers = target.nodes();
        let neat = target.neat();
        let logs: Vec<Vec<Cmd>> = servers
            .into_iter()
            .map(|s| {
                let sv = neat.world.app(s).server();
                sv.log()[..sv.commit()].iter().map(|e| e.cmd.clone()).collect()
            })
            .collect();
        for i in 0..logs.len() {
            for j in i + 1..logs.len() {
                let n = logs[i].len().min(logs[j].len());
                prop_assert_eq!(
                    &logs[i][..n],
                    &logs[j][..n],
                    "committed prefixes diverge between servers {} and {}\nplan: {}",
                    i,
                    j,
                    plan.render()
                );
            }
        }
    }
}
