//! Property tests for the data grid and the coordination service in their
//! *repaired* configurations: under arbitrary isolate/heal schedules with
//! client traffic, the fixed designs must converge and keep their
//! guarantees. (The flawed configurations are exercised — and expected to
//! fail — by the scenario tests.)

mod common;

use neat_repro::coord::{CoordCluster, CoordFlaws};
use neat_repro::gridstore::{GridFlaws, GridTarget};
use neat_repro::neat::{
    explore::{run_schedule, Deployment, TestTarget},
    rest_of,
};
use proptest::prelude::*;

fn protected() -> GridTarget {
    GridTarget::new(GridFlaws::fixed())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// The protected grid never over-grants the semaphore, never loses
    /// acknowledged increments or enqueues, and always converges after
    /// healing: every member has the full view and one state.
    #[test]
    fn protected_grid_keeps_its_guarantees(
        seed in 0u64..300,
        plan in common::plans(&mut protected(), false, 100..500, 18),
    ) {
        let mut target = protected();
        target.reset(seed, false);
        let verdicts = run_schedule(&mut target, &plan);
        let servers = target.nodes();
        let neat = target.neat();
        prop_assert!(
            verdicts.is_empty(),
            "{verdicts:?}\nplan: {}\n{}",
            plan.render(),
            neat.history().render()
        );
        let reference = neat.world.app(servers[0]).server().state();
        for &s in &servers {
            let server = neat.world.app(s).server();
            prop_assert_eq!(
                server.view().len(),
                servers.len(),
                "membership did not heal at {}\nplan: {}",
                s,
                plan.render()
            );
            prop_assert_eq!(server.state(), reference, "state diverged at {}\nplan: {}", s, plan.render());
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
            return Err(TestCaseError::fail(format!("no coord leader within 3000 ms at seed {seed}")));
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
