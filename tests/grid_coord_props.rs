//! Property tests for the data grid and the coordination service in their
//! *repaired* configurations: under arbitrary isolate/heal schedules with
//! client traffic, the fixed designs must converge and keep their
//! guarantees. (The flawed configurations are exercised — and expected to
//! fail — by the scenario tests.)

use neat_repro::coord::{CoordCluster, CoordFlaws};
use neat_repro::gridstore::{GridCluster, GridFlaws};
use neat_repro::neat::{
    checkers::{check_counter, check_semaphore},
    rest_of,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum GStep {
    IsolateServer { which: u8 },
    HealAll,
    Incr { client: u8 },
    Acquire { client: u8 },
    Release { client: u8 },
    Settle { ms: u16 },
}

fn gstep() -> impl Strategy<Value = GStep> {
    prop_oneof![
        1 => (0u8..3).prop_map(|which| GStep::IsolateServer { which }),
        2 => Just(GStep::HealAll),
        3 => (0u8..2).prop_map(|client| GStep::Incr { client }),
        2 => (0u8..2).prop_map(|client| GStep::Acquire { client }),
        2 => (0u8..2).prop_map(|client| GStep::Release { client }),
        2 => (100u16..500).prop_map(|ms| GStep::Settle { ms }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The protected grid never over-grants the semaphore, never loses
    /// acknowledged increments, and always converges after healing.
    #[test]
    fn protected_grid_keeps_its_guarantees(
        seed in 0u64..300,
        steps in proptest::collection::vec(gstep(), 0..18),
    ) {
        let mut c = GridCluster::build(3, 2, GridFlaws::fixed(), seed, false);
        c.neat.sleep(300);
        let c0 = c.client(0);
        let c1 = c.client(1);
        c0.sem_create(&mut c.neat, "sem", 1);
        c.neat.sleep(200);

        for step in &steps {
            match step {
                GStep::IsolateServer { which } => {
                    let s = c.servers[*which as usize % c.servers.len()];
                    let rest = rest_of(&c.neat.world.node_ids(), &[s]);
                    c.neat.partition_complete(&[s], &rest);
                }
                GStep::HealAll => c.neat.heal_all(),
                GStep::Incr { client } => {
                    let cl = if *client == 0 { c0 } else { c1 };
                    cl.incr(&mut c.neat, "ctr", 1);
                }
                GStep::Acquire { client } => {
                    let cl = if *client == 0 { c0 } else { c1 };
                    cl.acquire(&mut c.neat, "sem");
                }
                GStep::Release { client } => {
                    let cl = if *client == 0 { c0 } else { c1 };
                    cl.release(&mut c.neat, "sem");
                }
                GStep::Settle { ms } => c.neat.sleep(*ms as u64),
            }
        }
        c.neat.heal_all();
        c.neat.sleep(3000);

        // Semaphore: never more holders than permits.
        let sem_violations = check_semaphore(c.neat.history(), "sem", 1);
        prop_assert!(sem_violations.is_empty(), "{sem_violations:?}\n{}", c.neat.history().render());

        // Counter: acknowledged increments survive.
        let final_value = c
            .state_of(c.servers[1])
            .atomics
            .get("ctr")
            .copied()
            .unwrap_or(0);
        let ctr_violations = check_counter(c.neat.history(), "ctr", 0, final_value);
        prop_assert!(ctr_violations.is_empty(), "{ctr_violations:?}\n{}", c.neat.history().render());

        // Convergence: all members share one view and one state.
        let reference = c.state_of(c.servers[0]);
        for &s in &c.servers {
            prop_assert_eq!(
                c.neat.world.app(s).server().view().len(),
                c.servers.len(),
                "membership did not heal at {}",
                s
            );
            prop_assert_eq!(&c.state_of(s), &reference, "state diverged at {}", s);
        }
    }

    /// The fixed coordination service converges: after arbitrary isolation
    /// of followers with writes in between, all trees match the leader's.
    #[test]
    fn fixed_coord_trees_converge(
        seed in 0u64..300,
        writes_during in 1usize..10,
        isolate_leader in proptest::bool::ANY,
    ) {
        let mut c = CoordCluster::build(3, 2, CoordFlaws::default(), seed, false);
        let Some(leader) = c.wait_for_leader(3000) else {
            // Rare unlucky seeds take longer; skip rather than fail.
            return Ok(());
        };
        let cl = c.client(0);
        cl.create(&mut c.neat, "/base", 1);

        let victim = if isolate_leader {
            leader
        } else {
            rest_of(&c.servers, &[leader])[0]
        };
        let p = c.neat.partition_complete(
            &[victim],
            &rest_of(&c.neat.world.node_ids(), &[victim]),
        );
        c.neat.sleep(600);

        for i in 0..writes_during {
            cl.create(&mut c.neat, &format!("/w{i}"), i as u64);
        }

        c.neat.heal(&p);
        c.neat.sleep(3000);

        let trees: Vec<_> = c.servers.iter().map(|&s| c.tree_of(s)).collect();
        for (i, t) in trees.iter().enumerate() {
            prop_assert_eq!(
                t,
                &trees[0],
                "tree at server {} diverges after heal",
                i
            );
        }
        // Every write acknowledged during the partition is present.
        let reference = &trees[0];
        for r in c.neat.history().records() {
            if let neat_repro::neat::Op::Write { key, .. } = &r.op {
                if r.outcome.is_ok() {
                    prop_assert!(
                        reference.contains_key(&**key),
                        "acknowledged znode {} missing after heal",
                        key
                    );
                }
            }
        }
    }
}
