//! Figure 4 counterpart: the NEAT framework's own overhead.
//!
//! The paper's NEAT is 1553 lines of Java driving real machines; ours is a
//! virtual-time engine, so the relevant costs are simulator throughput,
//! partition-rule installation/heal, and the per-operation cost of the
//! globally ordered test engine.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::{
    net::bidirectional_pairs, Application, Ctx, NodeId, TimerId, WorldBuilder,
};

/// Ping-pong forever between two nodes.
struct Pinger;
impl Application for Pinger {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        if ctx.id() == NodeId(0) {
            ctx.send(NodeId(1), 0);
        }
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, msg: u64) {
        ctx.send(from, msg + 1);
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, u64>, _: TimerId, _: u64) {}
}

fn simulator_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("simnet");
    for events in [1_000u64, 10_000, 100_000] {
        g.bench_with_input(
            BenchmarkId::new("ping_pong_events", events),
            &events,
            |b, &events| {
                b.iter(|| {
                    let mut w = WorldBuilder::new(1).build(2, |_| Pinger);
                    for _ in 0..events {
                        w.step();
                    }
                    w.trace().counters.delivered
                })
            },
        );
    }
    g.finish();
}

fn partition_rules(c: &mut Criterion) {
    let mut g = c.benchmark_group("partitioner");
    for nodes in [5usize, 20, 50] {
        g.bench_with_input(
            BenchmarkId::new("install_and_heal", nodes),
            &nodes,
            |b, &nodes| {
                let ids: Vec<NodeId> = (0..nodes).map(NodeId).collect();
                let (a, rest) = ids.split_at(nodes / 2);
                b.iter(|| {
                    let mut w = WorldBuilder::new(1).build(nodes, |_| Pinger);
                    let r = w.block_pairs(bidirectional_pairs(a, rest));
                    w.unblock(r);
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("delivery_with_rules", nodes),
            &nodes,
            |b, &nodes| {
                // Message delivery cost while many unrelated rules are
                // installed. Rules are compiled into per-link state at
                // install, so this must stay flat in `nodes` (= rules).
                let mut w = WorldBuilder::new(1).build(nodes, |_| Pinger);
                for i in 2..nodes {
                    w.block_pairs(bidirectional_pairs(&[NodeId(i)], &[NodeId((i + 1) % nodes)]));
                }
                b.iter(|| {
                    for _ in 0..1_000 {
                        w.step();
                    }
                })
            },
        );
    }
    g.finish();
}

fn engine_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.bench_function("repkv_write_read_pair", |b| {
        let mut cluster = repkv::Cluster::build(repkv::ClusterSpec::three_by_two(
            repkv::Config::fixed(),
            1,
        ));
        let leader = cluster.wait_for_leader(3000).expect("leader");
        let client = cluster.client(0).via(leader);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            client.write(&mut cluster.neat, "bench", i);
            client.read(&mut cluster.neat, "bench")
        })
    });
    g.bench_function("cluster_boot_to_leader", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let mut cluster = repkv::Cluster::build(repkv::ClusterSpec::three_by_two(
                repkv::Config::fixed(),
                seed,
            ));
            cluster.wait_for_leader(3000)
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = simulator_throughput, partition_rules, engine_ops
}
criterion_main!(benches);
