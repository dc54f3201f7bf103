//! The invariant incremental apply rests on: after every handler, a
//! server's visible store equals the fold, from empty, of the log prefix
//! its profile applies (`kv == replay(log[..apply_bound])`).
//!
//! One real [`Server`] (node 0) sits in a world whose other nodes are
//! inert stand-ins, so every peer message is the test's to forge: client
//! writes while it leads, acknowledgements that advance its commit index,
//! heartbeats, and `Replicate` / `SyncResp` carrying its own log extended,
//! truncated, or changed at one index — with commit indices that move
//! backwards — plus crash and restart. Entries are mostly increments, so
//! an entry applied twice or a stale prefix left in place changes a value.

use std::sync::Arc;

use neat::cluster::Mailbox;
use proptest::prelude::*;
use repkv::{server::replay, Config, Entry, EntryOp, LogSummary, Msg, Proc, Req, Role, Server};
use simnet::{Application, NodeId, World, WorldBuilder};

const ME: NodeId = NodeId(0);
const PEER: NodeId = NodeId(1);
const RIVAL: NodeId = NodeId(2);
const CLIENT: NodeId = NodeId(3);

/// How a forged log differs from the one the server holds.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Same,
    Extended,
    /// Cut to `at` entries.
    Truncated,
    /// Same length, the entry at `at` replaced.
    ChangedAt,
}

#[derive(Clone, Debug)]
enum Step {
    /// Wait out an election timeout and grant the vote that wins it.
    Elect,
    /// A client mutation; appended only while the server leads.
    Write { key: u8, kind: u8 },
    /// A peer acknowledges the whole log.
    Ack,
    /// A leader's heartbeat announcing `committed`.
    Heartbeat { committed: u8 },
    /// A rival's log arrives, by replication or as a sync answer.
    Adopt { sync: bool, shape: Shape, at: u8, committed: u8, newer_term: bool },
    CrashRestart,
}

fn step() -> impl Strategy<Value = Step> {
    let shape = prop_oneof![
        Just(Shape::Same),
        Just(Shape::Extended),
        Just(Shape::Truncated),
        Just(Shape::ChangedAt),
    ];
    prop_oneof![
        2 => Just(Step::Elect),
        6 => (0u8..3, 0u8..4).prop_map(|(key, kind)| Step::Write { key, kind }),
        3 => Just(Step::Ack),
        1 => (0u8..16).prop_map(|committed| Step::Heartbeat { committed }),
        5 => (proptest::bool::ANY, shape, 0u8..16, 0u8..16, proptest::bool::ANY).prop_map(
            |(sync, shape, at, committed, newer_term)| Step::Adopt { sync, shape, at, committed, newer_term }
        ),
        1 => Just(Step::CrashRestart),
    ]
}

struct Harness {
    world: World<Proc>,
    apply_before_commit: bool,
    ops: u64,
}

impl Harness {
    fn new(cfg: Config, seed: u64) -> Self {
        let apply_before_commit = cfg.apply_before_commit;
        let servers = vec![ME, PEER, RIVAL];
        let world = WorldBuilder::new(seed).build(4, |id| match id {
            ME => Proc::Server(Server::new(ME, servers.clone(), None, cfg.clone())),
            _ => Proc::Client(Mailbox::default()),
        });
        Self { world, apply_before_commit, ops: 0 }
    }

    fn server(&self) -> &Server {
        self.world.app(ME).server()
    }

    fn deliver(&mut self, from: NodeId, msg: Msg) {
        self.world
            .call(ME, |app, ctx| app.on_message(ctx, from, msg))
            .expect("the server is restarted right after every crash");
    }

    /// The server's log reshaped, and a summary that matches it.
    fn forged(&self, shape: Shape, at: u8, committed: u8, newer_term: bool) -> (LogSummary, Vec<Entry>) {
        let s = self.server();
        let term = s.term() + u64::from(newer_term);
        let mut log = s.log().to_vec();
        let at = at as usize % (log.len() + 1);
        let incr = |by| Entry { term, ts: 1_000_000 + at as u64, key: "k0".into(), op: EntryOp::Incr(by) };
        match shape {
            Shape::Same => {}
            Shape::Extended => log.extend([incr(100), incr(1_000)]),
            Shape::Truncated => log.truncate(at),
            Shape::ChangedAt if at < log.len() => log[at] = incr(10_000),
            Shape::ChangedAt => {}
        }
        let summary = LogSummary {
            term,
            log_len: log.len(),
            committed: committed as usize % (log.len() + 1),
            last_ts: log.last().map_or(0, |e| e.ts),
        };
        (summary, log)
    }

    fn run(&mut self, step: &Step) {
        match *step {
            Step::Elect => {
                // Nobody answers, so within a second a leader has stepped
                // down and the election timer has made it a candidate.
                self.world.run_for(1_000);
                let term = self.server().term();
                self.deliver(PEER, Msg::Vote { term, granted: true });
                assert_eq!(self.server().role(), Role::Leader);
            }
            Step::Write { key, kind } => {
                let key: Arc<str> = format!("k{key}").into();
                let req = match kind {
                    0 => Req::Write { key, val: self.ops },
                    1 => Req::Delete { key },
                    _ => Req::Incr { key, by: 1 + self.ops },
                };
                self.ops += 1;
                self.deliver(CLIENT, Msg::ClientReq { op_id: self.ops, req });
            }
            Step::Ack => {
                let (term, acked_len) = (self.server().term(), self.server().log().len());
                self.deliver(PEER, Msg::ReplicateAck { term, acked_len });
            }
            Step::Heartbeat { committed } => {
                let (summary, _) = self.forged(Shape::Same, 0, committed, false);
                self.deliver(RIVAL, Msg::Heartbeat { summary });
            }
            Step::Adopt { sync, shape, at, committed, newer_term } => {
                let (summary, log) = self.forged(shape, at, committed, newer_term);
                let log = Arc::new(log);
                let msg = if sync { Msg::SyncResp { summary, log } } else { Msg::Replicate { summary, log } };
                self.deliver(RIVAL, msg);
            }
            Step::CrashRestart => {
                self.world.crash(ME).expect("the server was up");
                self.world.restart(ME).expect("the server exists");
            }
        }
    }

    /// `None` when the store is the replay of the applied prefix.
    fn divergence(&self) -> Option<String> {
        let s = self.server();
        let bound = if self.apply_before_commit { s.log().len() } else { s.committed() };
        let expected = replay(&s.log()[..bound]);
        (s.kv() != &expected).then(|| {
            format!("kv {:?} != replay of log[..{bound}] {expected:?}; log {:?}", s.kv(), s.log())
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_store_is_the_replay_of_the_applied_prefix(
        seed in 0u64..1_000,
        steps in proptest::collection::vec(step(), 1..60),
    ) {
        for cfg in [Config::voltdb(), Config::elasticsearch(), Config::mongodb(), Config::fixed()] {
            let mut h = Harness::new(cfg, seed);
            h.run(&Step::Elect);
            for (i, step) in steps.iter().enumerate() {
                h.run(step);
                if let Some(diff) = h.divergence() {
                    prop_assert!(false, "after step {i} ({step:?}): {diff}");
                }
            }
        }
    }
}
