//! Raft safety under randomized network-partitioning schedules: the
//! proven-protocol control arm of the study. Whatever faults we throw at
//! baseline Raft, the checkers must stay silent.

use std::collections::BTreeMap;

use neat_repro::consensus::{RaftCluster, RaftClusterSpec, RaftRole};
use neat_repro::neat::{
    checkers::{check_linearizable_register, check_register, RegisterSemantics},
    rest_of,
};
use proptest::prelude::*;
use simnet::NodeId;

#[derive(Clone, Debug)]
enum Step {
    Put { key: u8, client: u8 },
    Get { key: u8, client: u8 },
    IsolateLeader,
    IsolateRandom { which: u8 },
    HealAll,
    CrashLeader,
    RestartAll,
    Settle { ms: u16 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0u8..2, 0u8..2).prop_map(|(key, client)| Step::Put { key, client }),
        3 => (0u8..2, 0u8..2).prop_map(|(key, client)| Step::Get { key, client }),
        1 => Just(Step::IsolateLeader),
        1 => (0u8..3).prop_map(|which| Step::IsolateRandom { which }),
        2 => Just(Step::HealAll),
        1 => Just(Step::CrashLeader),
        1 => Just(Step::RestartAll),
        2 => (50u16..400).prop_map(|ms| Step::Settle { ms }),
    ]
}

fn run_schedule(seed: u64, steps: &[Step]) -> RaftCluster {
    let mut c = RaftCluster::build(RaftClusterSpec::baseline(3, seed));
    c.wait_for_leader(3000);
    let mut val = 0u64;
    for step in steps {
        match step {
            Step::Put { key, client } => {
                val += 1;
                let target = c.leader().unwrap_or(c.servers[0]);
                let cl = c.client(*client as usize % 2).via(target);
                cl.put(&mut c.neat, &format!("k{key}"), val);
            }
            Step::Get { key, client } => {
                let target = c.leader().unwrap_or(c.servers[0]);
                let cl = c.client(*client as usize % 2).via(target);
                cl.get(&mut c.neat, &format!("k{key}"));
            }
            Step::IsolateLeader => {
                if let Some(l) = c.leader() {
                    let rest = rest_of(&c.servers, &[l]);
                    c.neat.partition_complete(&[l], &rest);
                }
            }
            Step::IsolateRandom { which } => {
                let s = c.servers[*which as usize % c.servers.len()];
                let rest = rest_of(&c.servers, &[s]);
                c.neat.partition_partial(&[s], &rest);
            }
            Step::HealAll => c.neat.heal_all(),
            Step::CrashLeader => {
                // At most one server down at a time, so a majority survives.
                let all_alive = c.servers.iter().all(|&s| c.neat.world.is_alive(s));
                if all_alive {
                    if let Some(l) = c.leader() {
                        c.neat.crash(&[l]);
                    }
                }
            }
            Step::RestartAll => {
                let servers = c.servers.clone();
                c.neat.restart(&servers);
            }
            Step::Settle { ms } => c.neat.sleep(*ms as u64),
        }
    }
    c.neat.heal_all();
    let servers = c.servers.clone();
    c.neat.restart(&servers);
    c.neat.sleep(4000);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Election safety: never two leaders in the same term.
    #[test]
    fn at_most_one_leader_per_term(
        seed in 0u64..500,
        steps in proptest::collection::vec(step_strategy(), 0..20),
    ) {
        let c = run_schedule(seed, &steps);
        let mut by_term: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for &s in &c.servers {
            let sv = c.neat.world.app(s).server();
            if sv.role() == RaftRole::Leader {
                by_term.entry(sv.term()).or_default().push(s);
            }
        }
        for (term, leaders) in by_term {
            prop_assert!(leaders.len() <= 1, "term {term} has leaders {leaders:?}");
        }
    }

    /// No acknowledged write is ever lost, and per-key histories stay
    /// linearizable — regardless of the fault schedule.
    #[test]
    fn no_acknowledged_write_lost(
        seed in 0u64..500,
        steps in proptest::collection::vec(step_strategy(), 0..20),
    ) {
        let c = run_schedule(seed, &steps);
        let final_state = c.final_state(&["k0", "k1"]);
        let violations = check_register(
            c.neat.history(),
            RegisterSemantics::Strong,
            &final_state,
        );
        prop_assert!(
            violations.is_empty(),
            "{violations:?}\nhistory:\n{}",
            c.neat.history().render()
        );
        for key in ["k0", "k1"] {
            let lin = check_linearizable_register(c.neat.history(), key, None);
            prop_assert!(lin.is_empty(), "{key}: {lin:?}\n{}", c.neat.history().render());
        }
    }

    /// Committed logs on any two servers are prefixes of one another
    /// (log matching, observed after quiescence).
    #[test]
    fn committed_logs_agree(
        seed in 0u64..500,
        steps in proptest::collection::vec(step_strategy(), 0..16),
    ) {
        let c = run_schedule(seed, &steps);
        let logs: Vec<Vec<neat_repro::consensus::Cmd>> = c
            .servers
            .iter()
            .map(|&s| {
                let sv = c.neat.world.app(s).server();
                sv.log()[..sv.commit()].iter().map(|e| e.cmd.clone()).collect()
            })
            .collect();
        for i in 0..logs.len() {
            for j in i + 1..logs.len() {
                let n = logs[i].len().min(logs[j].len());
                prop_assert_eq!(
                    &logs[i][..n],
                    &logs[j][..n],
                    "committed prefixes diverge between servers {} and {}",
                    i,
                    j
                );
            }
        }
    }
}
