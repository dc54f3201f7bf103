//! Client process and the synchronous client wrapper used by tests.

use std::collections::BTreeMap;

use neat::{cluster::Node, Neat, Op, OpRecord, Outcome, RetryPolicy};
use simnet::{Ctx, NodeId};

use crate::{
    cluster::Proc,
    msg::{Msg, Req, Resp},
};

/// The client-side process: fires requests at a server and collects
/// responses by operation id.
#[derive(Default)]
pub struct ClientProc {
    next_op: u64,
    results: BTreeMap<u64, Resp>,
}

impl ClientProc {
    /// Sends `req` to `server`, returning the operation id to poll.
    pub fn start(&mut self, ctx: &mut Ctx<'_, Msg>, server: NodeId, req: Req) -> u64 {
        // Operation ids are globally unique (client id in the high bits) so
        // coordinator timers on different servers never collide.
        let op_id = (ctx.id().0 as u64) << 32 | self.next_op;
        self.next_op += 1;
        ctx.send(server, Msg::ClientReq { op_id, req });
        op_id
    }

    /// Removes and returns the response for `op_id`, if it arrived.
    pub fn take(&mut self, op_id: u64) -> Option<Resp> {
        self.results.remove(&op_id)
    }
}

impl Node<Msg> for ClientProc {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::ClientResp { op_id, resp } = msg {
            self.results.insert(op_id, resp);
        }
    }
}

/// A synchronous client handle bound to one client node and one target
/// server — the `Client` wrapper class of the paper's NEAT API (§6.1).
///
/// Every call drives the simulation until the operation completes or the
/// engine's `op_timeout` elapses, records the [`OpRecord`] in the engine's
/// history, and returns the [`Outcome`].
#[derive(Clone, Copy, Debug)]
pub struct KvClient {
    /// The client node issuing requests.
    pub node: NodeId,
    /// The server the client talks to.
    pub target: NodeId,
}

impl KvClient {
    /// Points this handle at a different server.
    pub fn via(self, target: NodeId) -> Self {
        Self { target, ..self }
    }

    /// Wraps this handle in a retry loop: operations that time out are
    /// re-sent under `policy`'s backoff schedule.
    pub fn retrying(self, policy: RetryPolicy) -> RetryingKvClient {
        RetryingKvClient {
            inner: self,
            policy,
        }
    }

    /// One request/response attempt; does not touch the history.
    fn attempt(&self, neat: &mut Neat<Proc>, req: &Req) -> Outcome {
        let target = self.target;
        let req = req.clone();
        let started = neat.world.call(self.node, |p, ctx| {
            p.client_mut().start(ctx, target, req.clone())
        });
        match started {
            Err(_) => Outcome::Timeout,
            Ok(op_id) => {
                let node = self.node;
                let resp = neat.run_op(
                    |_| Ok(()),
                    |w| w.app_mut(node).client_mut().take(op_id),
                );
                match resp {
                    Some(Resp::Ok) => Outcome::Ok(None),
                    Some(Resp::Value(v)) => Outcome::Ok(v),
                    Some(Resp::Fail) => Outcome::Fail,
                    None => Outcome::Timeout,
                }
            }
        }
    }

    /// Runs one *logical* operation under `policy`, recording exactly one
    /// history record no matter how many attempts were made — the checkers
    /// judge what the client believes happened, not the wire traffic, so a
    /// retried non-idempotent op that executes twice server-side surfaces
    /// as data corruption rather than as two innocent-looking records.
    fn run_with(&self, neat: &mut Neat<Proc>, req: Req, op: Op, policy: &RetryPolicy) -> Outcome {
        let start = neat.now();
        let mut outcome = Outcome::Timeout;
        for attempt in 1..=policy.max_attempts.max(1) {
            if attempt > 1 {
                neat.sleep(policy.delay_before(attempt - 1));
            }
            outcome = self.attempt(neat, &req);
            if !matches!(outcome, Outcome::Timeout) {
                break;
            }
        }
        let end = neat.now();
        neat.record(OpRecord {
            client: self.node,
            op,
            outcome: outcome.clone(),
            start,
            end,
        });
        outcome
    }

    fn run(&self, neat: &mut Neat<Proc>, req: Req, op: Op) -> Outcome {
        self.run_with(neat, req, op, &RetryPolicy::none())
    }

    /// Writes `val` to `key`.
    pub fn write(&self, neat: &mut Neat<Proc>, key: &str, val: u64) -> Outcome {
        self.run(
            neat,
            Req::Write {
                key: key.into(),
                val,
            },
            Op::Write {
                key: key.into(),
                val,
            },
        )
    }

    /// Reads `key`.
    pub fn read(&self, neat: &mut Neat<Proc>, key: &str) -> Outcome {
        self.run(
            neat,
            Req::Read { key: key.into() },
            Op::Read { key: key.into() },
        )
    }

    /// Deletes `key`.
    pub fn delete(&self, neat: &mut Neat<Proc>, key: &str) -> Outcome {
        self.run(
            neat,
            Req::Delete { key: key.into() },
            Op::Delete { key: key.into() },
        )
    }

    /// Writes every `(key, val)` pair as one batch the client expects to
    /// land atomically. The history records a single logical operation;
    /// all-or-nothing is the *scenario's* assertion against the final
    /// state, not a register-checker property.
    pub fn batch(&self, neat: &mut Neat<Proc>, ops: &[(&str, u64)]) -> Outcome {
        let req = Req::Batch {
            ops: ops.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
        };
        let keys: Vec<&str> = ops.iter().map(|(k, _)| *k).collect();
        let label = format!("batch[{}]", keys.join("+"));
        self.run(neat, req, Op::Other { label })
    }

    /// Adds `by` to the counter at `key` (non-idempotent).
    pub fn incr(&self, neat: &mut Neat<Proc>, key: &str, by: u64) -> Outcome {
        self.run(
            neat,
            Req::Incr {
                key: key.into(),
                by,
            },
            Op::Incr {
                key: key.into(),
                by,
            },
        )
    }
}

/// A [`KvClient`] that re-sends timed-out operations under a
/// [`RetryPolicy`] — the retry-with-backoff side of the paper's
/// observation that client-side handling decides a gray failure's impact.
///
/// Each logical operation still records exactly one [`OpRecord`]: the
/// first attempt's start, the final attempt's end, and the final outcome.
/// Retries of non-idempotent operations (e.g. [`RetryingKvClient::incr`])
/// may execute server-side more than once; the counter checker then sees
/// more increments than the history acknowledges.
#[derive(Clone, Copy, Debug)]
pub struct RetryingKvClient {
    /// The underlying single-shot client.
    pub inner: KvClient,
    /// The backoff schedule applied to timed-out attempts.
    pub policy: RetryPolicy,
}

impl RetryingKvClient {
    /// Points this handle at a different server.
    pub fn via(self, target: NodeId) -> Self {
        Self {
            inner: self.inner.via(target),
            ..self
        }
    }

    /// Writes `val` to `key`, retrying timeouts (idempotent: safe).
    pub fn write(&self, neat: &mut Neat<Proc>, key: &str, val: u64) -> Outcome {
        self.inner.run_with(
            neat,
            Req::Write {
                key: key.into(),
                val,
            },
            Op::Write {
                key: key.into(),
                val,
            },
            &self.policy,
        )
    }

    /// Reads `key`, retrying timeouts (idempotent: safe).
    pub fn read(&self, neat: &mut Neat<Proc>, key: &str) -> Outcome {
        self.inner.run_with(
            neat,
            Req::Read { key: key.into() },
            Op::Read { key: key.into() },
            &self.policy,
        )
    }

    /// Adds `by` to the counter at `key`, retrying timeouts — dangerous:
    /// the increment is not idempotent, so a retry whose predecessor
    /// actually executed doubles the effect.
    pub fn incr(&self, neat: &mut Neat<Proc>, key: &str, by: u64) -> Outcome {
        self.inner.run_with(
            neat,
            Req::Incr {
                key: key.into(),
                by,
            },
            Op::Incr {
                key: key.into(),
                by,
            },
            &self.policy,
        )
    }
}
