//! Tier-1 perf gate: deterministic performance proxies, no wall clock.
//!
//! Wall-clock timings cannot be asserted in CI (they depend on the
//! machine), so this gate pins the two proxies that are pure functions of
//! the seed: the *allocation count* of a run under the counting global
//! allocator, and the *event volume* of the campaign. The headline
//! property of the streaming fingerprint pipeline — hashing a recorded
//! outcome (`RunMode::Hash`) allocates **nothing** — is asserted per arm,
//! across every arm in the registry.
//!
//! The committed `BENCH_perf.json` (`bench::perf_bench::machine_json`) is
//! a row of `bench::ARTIFACTS`, regenerated here and compared byte for
//! byte, so a hot-path regression both fails here and shows up as a stale
//! artifact.

use neat_repro::campaign::{self, RunMode};
use simnet::net::{bidirectional_pairs, simplex_pairs};
use simnet::trace::Counters;
use simnet::{Application, Ctx, DegradeRule, NodeId, TimerId, World, WorldBuilder};

// Route this test binary's heap through the counting allocator; the
// counters are thread-local, so the parallel test harness cannot bleed
// counts across tests.
#[global_allocator]
static ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

#[test]
fn the_counting_allocator_is_live() {
    assert!(
        alloc_counter::is_counting(),
        "perf_gate.rs must install CountingAlloc as #[global_allocator]"
    );
}

#[test]
fn stream_hash_allocates_nothing() {
    // Warm one run so lazy one-time setup cannot be billed to the
    // measured call, then hash a value with plenty of nested structure.
    let arm = &campaign::arm_ids()[0];
    let artifacts = campaign::run_arm(arm, 8, RunMode::Hash);
    let _ = neat::audit::stream_hash(&artifacts.timeline);
    let (_, allocs) =
        alloc_counter::count_allocations(|| neat::audit::stream_hash(&artifacts.timeline));
    assert_eq!(
        allocs, 0,
        "stream_hash must fold Debug output straight into FNV-1a without materializing it"
    );
}

#[test]
fn fingerprint_fast_path_allocates_nothing_across_every_arm() {
    let d = bench::perf_bench::deterministic_counts(8);
    assert!(d.counting_allocator, "allocator probe failed");
    assert!(d.arms >= 70, "registry shrank: only {} arms counted", d.arms);
    assert_eq!(
        d.fingerprint_alloc_delta_total, 0,
        "hashing a recorded outcome allocated: the streaming fingerprint fast path regressed"
    );
    // The rendered fingerprint is the cost the fast path avoids — if
    // rendering were free too, this gate would be testing nothing.
    assert!(
        d.render_allocs_sample > 0,
        "rendering a fingerprint allocated nothing; the zero-delta assertion above is vacuous"
    );
    // What the audit hashes twice an arm: the compact `Debug` of the 93
    // recorded outcomes is 221,188 bytes at seed 8 (513,729 pretty-printed).
    // A bloated `Debug` or a return to pretty-printing fails here instead
    // of only slowing the ledger.
    assert!(
        d.fingerprint_bytes_total <= 240_000,
        "the {} fingerprints are {} bytes at seed 8, over 240,000",
        d.arms,
        d.fingerprint_bytes_total
    );
}

/// Ping-pong forever between two nodes: every step is one delivery.
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

/// Keeps eight short timers armed per node: every step fires one and arms one.
struct Storm;
impl Application for Storm {
    type Msg = ();
    fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
        for i in 0..8 {
            ctx.set_timer(1 + i, i);
        }
    }
    fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
    fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _: TimerId, tag: u64) {
        ctx.set_timer(1 + (tag % 7), tag);
    }
}

/// Steps a world takes before a steady-state window opens. Everything that
/// grows — the queue's slab and far heap, the action buffer — grows with the
/// number of events pending at once, which both worlds below reach in
/// their first few steps.
const WARM_UP_STEPS: usize = 200;

/// Allocations of `steps` steps after the warm-up.
fn window_allocs<A: Application>(mut w: World<A>, steps: usize) -> u64 {
    for _ in 0..WARM_UP_STEPS {
        assert!(w.step(), "the world ran dry during warm-up");
    }
    let (_, allocs) = alloc_counter::count_allocations(|| {
        for _ in 0..steps {
            w.step();
        }
    });
    allocs
}

/// Warm 10k-step ping-pong window; `record` switches the trace on.
fn delivery_window_allocs(record: bool) -> u64 {
    // Ping-pong delivery must run allocation-free: a send takes the slab
    // slot the pop before it freed.
    let w = WorldBuilder::new(1).record_trace(record).event_capacity(16).build(2, |_| Pinger);
    window_allocs(w, 10_000)
}

#[test]
fn steady_state_delivery_path_allocates_nothing() {
    assert_eq!(
        delivery_window_allocs(false),
        0,
        "steady-state message delivery allocated: the slab/ring hot path regressed"
    );
}

#[test]
fn recorded_delivery_path_allocates_nothing() {
    assert_eq!(
        delivery_window_allocs(true),
        0,
        "a recorded world allocated per message: sends and deliveries are counted, not logged"
    );
}

/// Warm 5k-step timer-storm window; `record` switches the trace on.
fn timer_window_allocs(record: bool) -> u64 {
    // 32 timers pending at every step: each fire re-arms one.
    let w = WorldBuilder::new(1).record_trace(record).event_capacity(64).build(4, |_| Storm);
    window_allocs(w, 5_000)
}

#[test]
fn steady_state_timer_path_allocates_nothing() {
    assert_eq!(
        timer_window_allocs(false),
        0,
        "steady-state timer fire/re-arm allocated: the queue hot path regressed"
    );
}

#[test]
fn recorded_timer_path_allocates_nothing() {
    assert_eq!(
        timer_window_allocs(true),
        0,
        "a recorded world allocated per timer fire: fires are counted, not logged"
    );
}

/// Every node keeps one heartbeat timer armed and pings its successor on
/// each beat; the successor answers. The shape of a healthy campaign arm.
struct Heartbeat;
impl Application for Heartbeat {
    /// `true` asks for an answer.
    type Msg = bool;
    fn on_start(&mut self, ctx: &mut Ctx<'_, bool>) {
        ctx.set_timer(10 + ctx.id().0 as u64, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, bool>, from: NodeId, ping: bool) {
        if ping {
            ctx.send(from, false);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, bool>, _: TimerId, _: u64) {
        ctx.send(NodeId((ctx.id().0 + 1) % 5), true);
        ctx.set_timer(10, 0);
    }
}

#[test]
fn a_fresh_world_stops_allocating_within_its_first_64_events() {
    // No `event_capacity` hint and no long warm-up: a world as short-lived
    // as an exploration trial (a few hundred events) must reach the state
    // the steady-state gates pin almost at once, or they pin a state no
    // real run is ever in.
    let mut w = WorldBuilder::new(1).build(5, |_| Heartbeat);
    for _ in 0..64 {
        assert!(w.step());
    }
    let (_, allocs) = alloc_counter::count_allocations(|| {
        for _ in 0..2_000 {
            w.step();
        }
    });
    assert_eq!(allocs, 0, "the queue still grew after a fresh world's first 64 events");
    let depth = w.queue_stats().high_water;
    assert!(depth <= 10, "{depth} events pending at once");
}

#[test]
fn no_arm_ever_has_more_than_64_events_pending() {
    // How deep the queue gets, as a checked fact: at seed 8 the deepest
    // queue of any arm is 31 events. A family that outgrows this by an
    // order of magnitude should re-measure the queue.
    let deep: Vec<String> = bench::perf_bench::arm_costs(8)
        .iter()
        .filter(|c| c.queue.high_water > 64)
        .map(|c| format!("{} {}", c.arm, c.queue.high_water))
        .collect();
    assert!(deep.is_empty(), "arms with more than 64 events pending (arm qmax):\n{}", deep.join("\n"));
}

#[test]
fn most_events_are_due_inside_the_queue_window() {
    // The traffic the ring of millisecond buckets is fitted to, as a
    // checked fact: at seed 8, 84.6 % of the events the 93 arms schedule
    // (32,585 of 38,533) are due within the ring's 64 ms of the last pop,
    // so they never touch the far heap; nearly all the rest are periodic
    // timers. The gate is that share rounded down to 5 %.
    let mut all = simnet::QueueStats::default();
    for c in bench::perf_bench::arm_costs(8) {
        all.merge(c.queue);
    }
    let near = all.scheduled - all.far;
    assert!(
        near * 100 >= 80 * all.scheduled,
        "only {near} of {} scheduled events were due inside the queue's window",
        all.scheduled
    );
}

/// Twelve gossiping nodes: each keeps one 4 ms timer armed and every firing
/// starts two rumors that are forwarded twice, so sends dominate.
struct Gossip;
const GOSSIPERS: usize = 12;

fn other_peer(ctx: &mut Ctx<'_, u8>) -> NodeId {
    let k = ctx.rand_below(GOSSIPERS as u64 - 1) as usize;
    NodeId(if k >= ctx.id().0 { k + 1 } else { k })
}

impl Application for Gossip {
    /// Hops left.
    type Msg = u8;
    fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
        ctx.set_timer(1 + ctx.id().0 as u64 % 4, 0);
    }
    fn on_message(&mut self, ctx: &mut Ctx<'_, u8>, _: NodeId, hops: u8) {
        if hops > 0 {
            let to = other_peer(ctx);
            ctx.send(to, hops - 1);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u8>, _: TimerId, _: u64) {
        for _ in 0..2 {
            let to = other_peer(ctx);
            ctx.send(to, 2);
        }
        ctx.set_timer(4, 0);
    }
}

fn gossip_world() -> World<Gossip> {
    WorldBuilder::new(1).event_capacity(256).build(GOSSIPERS, |_| Gossip)
}

/// Installs 8 block and 8 degrade rules of every shape (complete, partial,
/// simplex; lossy, slow, duplicating, flapping) over three racks of four,
/// overlapping on most cross-rack links.
fn install_sixteen_rules(w: &mut World<Gossip>) {
    let rack = |r: usize| -> Vec<NodeId> { (r * 4..r * 4 + 4).map(NodeId).collect() };
    let gray = [
        DegradeRule::lossy(0.2),
        DegradeRule::slow(3, 2),
        DegradeRule::duplicating(0.2),
        DegradeRule::lossy(0.3).flapping(50),
    ];
    for i in 0..8 {
        let (a, b) = (rack(i % 3), rack((i + 1) % 3));
        w.block_pairs(match i % 3 {
            0 => bidirectional_pairs(&a[..1], &b),
            1 => bidirectional_pairs(&a[1..3], &b[..2]),
            _ => simplex_pairs(&a[3..], &b),
        });
        w.degrade_pairs(bidirectional_pairs(&a, &b), gray[i % 4]);
    }
}

#[test]
fn delivery_under_sixteen_live_rules_allocates_nothing() {
    // Rules are compiled into the per-link state when they are installed;
    // a message reads that state and must not allocate, however many rules
    // cover its link.
    let mut w = gossip_world();
    install_sixteen_rules(&mut w);
    for _ in 0..WARM_UP_STEPS {
        assert!(w.step(), "gossip ran dry during warm-up");
    }
    let before = w.trace().counters;
    let (_, allocs) = alloc_counter::count_allocations(|| {
        for _ in 0..10_000 {
            w.step();
        }
    });
    let c = w.trace().counters;
    assert!(
        c.dropped_partition > before.dropped_partition
            && c.dropped_degraded > before.dropped_degraded
            && c.duplicated > before.duplicated,
        "the window exercised no rule: {c:?}"
    );
    assert_eq!(allocs, 0, "a message under live rules allocated");
    // What the window computed, not just what it allocated: 12 nodes with
    // drops, duplicates, delays and a flapping rule all live, so a
    // reordered draw anywhere on the delivery path moves these. Derived
    // before the path was marked for inlining.
    let want = Counters {
        sent: 7_880,
        delivered: 6_354,
        dropped_partition: 1_213,
        dropped_flaky: 0,
        dropped_degraded: 1_022,
        duplicated: 765,
        dropped_dead: 0,
        timers_fired: 1_611,
        crashes: 0,
        restarts: 0,
    };
    assert_eq!(c, want, "the gossip world under sixteen rules computed other counters");
    assert_eq!((w.now(), w.pending_events()), (537, 68), "clock and queue depth moved");
}

#[test]
fn install_and_heal_allocate_only_per_link_degrade_lists() {
    let mut w = gossip_world();
    install_sixteen_rules(&mut w);
    let racks: Vec<NodeId> = (0..8).map(NodeId).collect();
    let pairs = || bidirectional_pairs(&racks[..4], &racks[4..]);

    // A block rule is a refcount per link plus the caller's pair set,
    // which moves into the rule map.
    let block = pairs();
    let (_, allocs) = alloc_counter::count_allocations(|| {
        let id = w.block_pairs(block);
        w.unblock(id);
    });
    assert_eq!(allocs, 0, "installing and healing a block rule allocated");

    // A degrade rule joins each covered link's list: at most one (re)sizing
    // per pair, and none once the links have held as many rules before.
    let mut degrade_cycle = || {
        let degrade = pairs();
        alloc_counter::count_allocations(|| {
            let id = w.degrade_pairs(degrade, DegradeRule::slow(3, 2));
            w.undegrade(id);
        })
        .1
    };
    let (first, second) = (degrade_cycle(), degrade_cycle());
    let covered = pairs().len() as u64;
    assert!(first <= covered, "a degrade rule over {covered} pairs allocated {first} times");
    assert_eq!(second, 0, "re-installing over links that kept their capacity allocated");
}

/// Allocations of every registry arm at seed 8, summed.
fn campaign_allocs(mode: RunMode) -> u64 {
    campaign::arm_ids()
        .iter()
        .map(|arm| alloc_counter::count_allocations(|| campaign::run_arm(arm, 8, mode)).1)
        .sum()
}

#[test]
fn a_quiet_campaign_allocates_no_more_than_when_sync_payloads_stopped_copying() {
    // 12,000 is the Quick-mode total of the 93 arms in the debug build
    // tier-1 runs (11,898), rounded up to the next thousand, at the PR that
    // made periodic sync messages share their sender's state: mqueue's
    // queues, gridstore's grid state and the coordination session's paths
    // (21,338 before it; in release, 20,067 before and 10,627 after).
    // Earlier caps followed repkv sharing its log (146,233 to 41,571), one
    // event heap with payloads written once (24,484), and outcomes that
    // stopped rendering repkv's history. Debug builds pay for the replay
    // that `rebuild_kv`'s debug assertion compares against.
    let quick = campaign_allocs(RunMode::Quick);
    assert!(
        quick <= 12_000,
        "Quick-mode arms allocated {quick} times at seed 8, more than the 12,000 \
         they take with shared sync payloads"
    );
}

#[test]
fn no_busy_arm_allocates_more_than_four_times_per_event() {
    // A simulator whose steady state allocates nothing leaves construction,
    // the history and protocol code: 0.6-2.7 per event on every arm busy
    // enough to amortise its construction. An arm far above its peers is
    // re-copying something per message (repkv's log: 23.4).
    let offenders: Vec<String> = bench::perf_bench::arm_costs(8)
        .iter()
        .filter(|c| c.events >= 100 && c.allocations > 4 * c.events)
        .map(|c| {
            let ratio = c.allocations as f64 / c.events as f64;
            format!("{} {} {} {ratio:.2}", c.arm, c.events, c.allocations)
        })
        .collect();
    assert!(
        offenders.is_empty(),
        "arms over 4 allocations per event (arm events allocations ratio):\n{}",
        offenders.join("\n")
    );
}

/// Allocations of four consecutive blocks of 200 acknowledged writes over
/// eight keys through one client of one healthy three-by-two cluster.
fn write_block_allocs(config: repkv::Config) -> Vec<u64> {
    let mut c = repkv::Cluster::build(repkv::ClusterSpec::three_by_two(config, 8));
    let leader = c.wait_for_leader(3000).expect("a healthy cluster elects a leader");
    let client = c.client(0).via(leader);
    (0..4)
        .map(|_| {
            let block = || {
                for i in 0..200 {
                    let acked = client.write(&mut c.neat, &format!("k{}", i % 8), i);
                    assert_eq!(acked, neat::Outcome::Ok(None), "write {i} to a healthy cluster");
                }
            };
            alloc_counter::count_allocations(block).1
        })
        .collect()
}

#[test]
fn a_write_costs_the_same_however_long_the_log_is() {
    // One profile that applies at commit and one that applies at append.
    // Copying the log per message made writes 201-400 cost 2.9x and writes
    // 601-800 6.8x what writes 1-200 did, on both; sharing it leaves only
    // the history's growth between the blocks.
    for config in [repkv::Config::fixed(), repkv::Config::voltdb()] {
        let blocks = write_block_allocs(config);
        assert!(
            blocks.iter().all(|later| later * 10 <= blocks[0] * 11),
            "blocks of 200 writes allocated {blocks:?} times: a later one costs > 1.1x the first"
        );
    }
}

#[test]
fn recording_adds_at_most_ten_thousand_allocations_to_a_quiet_campaign() {
    // What recording still allocates is what its readers read: the obs
    // timeline and the note strings — 8,747 over the 93 arms at seed 8,
    // about ninety an arm (9,701 while simnet logged every crash and rule
    // change a second time and outcomes rendered that log into a summary).
    // Rendering every message into the trace added some 60,000. A
    // difference, not a ratio: making the quiet run cheaper must not fail
    // the gate on recording.
    let (quick, hash) = (campaign_allocs(RunMode::Quick), campaign_allocs(RunMode::Hash));
    assert!(
        hash <= quick + 10_000,
        "Hash-mode arms allocated {hash} times against {quick} in Quick mode (> 10,000 more)"
    );
}

#[test]
fn an_open_loop_read_allocates_nothing_once_its_key_is_interned() {
    // The difference of two shard lengths cancels cluster construction.
    // The ladder interns its four keys once and reads through unrecorded
    // probes that share them, so no read allocates: what is left is one
    // container growing once more (1 allocation here; 2 while every read
    // also pushed a history record). Each read used to allocate its key
    // twice (about 4,000 here) and, before that, clone its request twice
    // more on its way to the wire.
    let shard_allocs =
        |ops| alloc_counter::count_allocations(|| repkv::load::open_loop_read_shard(0, ops)).1;
    let extra = shard_allocs(4_000).saturating_sub(shard_allocs(2_000));
    assert!(extra < 100, "2,000 extra reads allocated {extra} times");
}

#[test]
fn only_a_duplicated_reply_lands_after_its_op_closed() {
    // Replies the mailboxes drop because their op had closed, counted at
    // seed 8: one in each arm of `gray_duplicating_link_incr`, whose
    // duplicated reply lands after the client took the first copy. A
    // timed-out op whose reply still arrives would show up here.
    let mut late: Vec<(String, u64)> = bench::perf_bench::arm_costs(8)
        .into_iter()
        .filter(|c| c.late > 0)
        .map(|c| (c.arm, c.late))
        .collect();
    late.sort();
    let arm = |name: &str| (format!("gray_duplicating_link_incr/{name}"), 1);
    assert_eq!(late, [arm("fixed"), arm("flawed")], "arms with late replies at seed 8");
    // A healthy ladder answers every read before its timeout.
    let (report, late) =
        neat::cluster::late_replies_during(|| repkv::load::open_loop_read_shard(0, 2_000));
    assert_eq!((report.ok, late), (2_000, 0), "{}", report.render());
}

/// Allocations and events (deliveries plus timer fires) of 2,000 virtual
/// ms of `neat`'s world after 1,000 ms to settle.
fn settled_window_allocs<A: simnet::Application>(neat: &mut neat::Neat<A>) -> (u64, u64) {
    let events = |neat: &neat::Neat<A>| {
        let c = neat.world.trace().counters;
        c.delivered + c.timers_fired
    };
    neat.sleep(1_000);
    let before = events(neat);
    let (_, allocs) = alloc_counter::count_allocations(|| neat.sleep(2_000));
    (allocs, events(neat) - before)
}

#[test]
fn a_settled_deployment_ticks_without_allocating() {
    // A settled deployment's traffic is periodic: pings, session
    // heartbeats, master checks, and the primary's state re-offered to
    // every replica. Each sync shares the sender's state instead of
    // copying it, so ticking allocates nothing. Copying the queues for
    // every replica cost 320 allocations over this window; copying the
    // grid state for anti-entropy cost 400.
    let mut mq = mqueue::MqCluster::build(
        3,
        mqueue::BrokerFlaws::fixed(),
        coord::CoordFlaws::default(),
        8,
        false,
    );
    let master = mq.wait_for_master(3_000, None).expect("a healthy deployment elects a master");
    for val in 1..=3 {
        let sent = mq.client(0).send(&mut mq.neat, master, "q", val);
        assert_eq!(sent, neat::Outcome::Ok(None), "enqueue {val}");
    }
    let (allocs, events) = settled_window_allocs(&mut mq.neat);
    assert!(events > 100, "the queue window ran only {events} events");
    assert_eq!(allocs, 0, "a settled 3-broker queue allocated over {events} events");

    let mut grid = gridstore::GridCluster::build(3, 1, gridstore::GridFlaws::fixed(), 8, false);
    grid.neat.sleep(100);
    let client = grid.client(0);
    assert!(client.put(&mut grid.neat, "k", 5).is_ok());
    assert!(client.incr(&mut grid.neat, "n", 2).is_ok());
    assert!(client.enq(&mut grid.neat, "q", 7).is_ok());
    assert!(client.set_add(&mut grid.neat, "s", 9).is_ok());
    let (allocs, events) = settled_window_allocs(&mut grid.neat);
    assert!(events > 100, "the grid window ran only {events} events");
    assert_eq!(allocs, 0, "a settled 3-server grid allocated over {events} events");
}

#[test]
fn the_register_checker_allocates_per_key_not_per_operation() {
    // 10,000 sequential operations over eight keys, alternating a write
    // and a read of it per key. Grouping by key takes one sort of one
    // vector, so what is left is per key; listing the keys by copying
    // every record's key allocated at least once per operation.
    let mut hist = neat::History::new();
    let keys: Vec<_> = (0..8).map(|k| hist.intern(&format!("k{k}"))).collect();
    let mut last = std::collections::BTreeMap::new();
    for i in 0..10_000u64 {
        let key = keys[i as usize % 8].clone();
        let (op, outcome) = if (i / 8) % 2 == 0 {
            last.insert(key.to_string(), Some(i));
            (neat::Op::Write { key, val: i }, neat::Outcome::Ok(None))
        } else {
            let seen = last[&*key];
            (neat::Op::Read { key }, neat::Outcome::Ok(seen))
        };
        let (start, end) = (2 * i, 2 * i + 1);
        hist.push(neat::OpRecord { client: NodeId(9), op, outcome, start, end });
    }
    let strong = neat::checkers::RegisterSemantics::Strong;
    let (violations, allocs) =
        alloc_counter::count_allocations(|| neat::checkers::check_register(&hist, strong, &last));
    assert!(violations.is_empty(), "a clean history: {violations:?}");
    assert!(allocs < 200, "checking 10,000 operations over 8 keys allocated {allocs} times");
}

#[test]
fn explorer_trials_end_once_their_cluster_has_settled() {
    // Events simulated between a trial's final heal and its checkers,
    // per trial, over 50 coverage-guided trials at seed 8. The fixed
    // 2,500 ms quiesce (3,000 ms for consensus) cost 271.0 (repkv),
    // 282.3 (gridstore), 403.1 (mqueue) and 323.3 (consensus); ending a
    // trial once its settled view has held for two detection periods
    // costs 70.1, 90.2, 168.8 and 67.4. Each bound is that count plus
    // about a tenth, rounded up to ten.
    let bounds = [
        ("repkv", 80),
        ("gridstore", 100),
        ("mqueue", 190),
        ("consensus", 80),
    ];
    let tails = bench::perf_bench::explore_tails(8);
    assert_eq!(tails.len(), bounds.len());
    for (tail, (target, bound)) in tails.iter().zip(bounds) {
        assert_eq!(tail.target, target);
        let q = tail.quiesce;
        assert_eq!(q.trials, 50, "{target}: {q:?}");
        assert!(
            q.events <= bound * q.trials,
            "{target}: {} events in 50 trial tails, over {bound} a trial ({q:?})",
            q.events
        );
    }
}

#[test]
fn perf_bench_artifact_is_fresh() {
    // This binary installs the counting allocator, so it regenerates the
    // exact bytes `bench --bin artifacts` writes.
    bench::check_fresh("BENCH_perf.json").unwrap_or_else(|stale| panic!("{stale}"));
}
