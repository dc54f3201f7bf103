//! The client role's reply inbox and the synchronous client wrapper used by
//! tests.

use neat::{
    cluster::{Mailbox, Node},
    Neat, Op, Outcome, RetryPolicy,
};
use simnet::{Ctx, NodeId};

use crate::{
    cluster::Proc,
    msg::{Msg, Req, Resp},
};

impl Node<Msg> for Mailbox<Resp> {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Msg>, _from: NodeId, msg: Msg) {
        if let Msg::ClientResp { op_id, resp } = msg {
            self.put(op_id, resp);
        }
    }
}

/// A synchronous client handle bound to one client node and one target
/// server — the `Client` wrapper class of the paper's NEAT API (§6.1).
///
/// Every call drives the simulation until the operation completes or the
/// engine's `op_timeout` elapses, re-sends it under [`KvClient::policy`]
/// while it times out, records one [`neat::OpRecord`] in the engine's
/// history, and returns the [`Outcome`].
#[derive(Clone, Copy, Debug)]
pub struct KvClient {
    /// The client node issuing requests.
    pub node: NodeId,
    /// The server the client talks to.
    pub target: NodeId,
    /// The backoff schedule applied to timed-out attempts.
    pub policy: RetryPolicy,
}

impl KvClient {
    /// Points this handle at a different server.
    pub fn via(self, target: NodeId) -> Self {
        Self { target, ..self }
    }

    /// Re-sends operations that time out under `policy`'s backoff schedule
    /// — the retry-with-backoff side of the paper's observation that
    /// client-side handling decides a gray failure's impact. Retries of
    /// non-idempotent operations ([`KvClient::incr`]) may execute
    /// server-side more than once; the counter checker then sees more
    /// increments than the history acknowledges.
    pub fn retrying(self, policy: RetryPolicy) -> Self {
        Self { policy, ..self }
    }

    /// One request/response attempt; does not touch the history. The
    /// read ladder issues its reads through this directly: a probe that
    /// no checker reads costs its wire traffic and nothing else.
    pub(crate) fn attempt(&self, neat: &mut Neat<Proc>, req: Req) -> Outcome {
        let Self { node, target, .. } = *self;
        let resp = neat.request(node, neat.op_timeout, Proc::client_mut, |_, ctx, op_id| {
            ctx.send(target, Msg::ClientReq { op_id, req })
        });
        match resp {
            Some(Resp::Ok) => Outcome::Ok(None),
            Some(Resp::Value(v)) => Outcome::Ok(v),
            Some(Resp::Fail) => Outcome::Fail,
            None => Outcome::Timeout,
        }
    }

    /// Runs one *logical* operation under the policy, recording exactly one
    /// history record — first attempt's start, last attempt's end, final
    /// outcome — no matter how many attempts were made: the checkers
    /// judge what the client believes happened, not the wire traffic, so a
    /// retried non-idempotent op that executes twice server-side surfaces
    /// as data corruption rather than as two innocent-looking records.
    fn run(&self, neat: &mut Neat<Proc>, req: Req, op: Op) -> Outcome {
        neat.recorded(self.node, op, |neat| {
            for retry in 1..self.policy.max_attempts {
                match self.attempt(neat, req.clone()) {
                    Outcome::Timeout => neat.sleep(self.policy.delay_before(retry)),
                    answered => return answered,
                }
            }
            self.attempt(neat, req)
        })
    }

    /// Writes `val` to `key`.
    pub fn write(&self, neat: &mut Neat<Proc>, key: &str, val: u64) -> Outcome {
        let key = neat.key(key);
        self.run(neat, Req::Write { key: key.clone(), val }, Op::Write { key, val })
    }

    /// Reads `key`.
    pub fn read(&self, neat: &mut Neat<Proc>, key: &str) -> Outcome {
        let key = neat.key(key);
        self.run(neat, Req::Read { key: key.clone() }, Op::Read { key })
    }

    /// Deletes `key`.
    pub fn delete(&self, neat: &mut Neat<Proc>, key: &str) -> Outcome {
        let key = neat.key(key);
        self.run(neat, Req::Delete { key: key.clone() }, Op::Delete { key })
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
        let key = neat.key(key);
        self.run(neat, Req::Incr { key: key.clone(), by }, Op::Incr { key, by })
    }
}

#[cfg(test)]
mod tests {
    use neat::DegradeSpec;
    use simnet::DegradeRule;

    use super::*;
    use crate::{
        cluster::{Cluster, ClusterSpec},
        config::Config,
    };

    #[test]
    fn a_retried_op_is_one_record_spanning_every_attempt() {
        let mut cluster = Cluster::build(ClusterSpec::three_by_two(Config::fixed(), 8));
        let leader = cluster.wait_for_leader(3000).expect("leader");
        // The client's link is dead for 600 ms from every multiple of 1200
        // and healthy for the 600 ms after.
        let (flap, timeout) = (600, 150);
        cluster.neat.degrade(DegradeSpec::flapping(
            vec![cluster.clients[0]],
            vec![leader],
            DegradeRule::lossy(1.0),
            flap,
        ));
        let now = cluster.neat.now();
        cluster.neat.sleep(2 * flap - now % (2 * flap) + 5);
        cluster.neat.op_timeout = timeout;

        let policy = RetryPolicy::backoff(4, 150, 8);
        let client = cluster.client(0).via(leader).retrying(policy);
        let start = cluster.neat.now();
        assert_eq!(client.write(&mut cluster.neat, "k", 1), Outcome::Ok(None));

        // Measured from `start`: the second attempt gives up inside the dead
        // window, the third is sent after it.
        let second_ends = 2 * timeout + policy.delay_before(1);
        let third_starts = second_ends + policy.delay_before(2);
        assert!(5 + second_ends <= flap && flap <= 5 + third_starts);
        let [rec] = cluster.neat.history().records() else {
            panic!("one logical op, one record: {:?}", cluster.neat.history());
        };
        assert_eq!((rec.start, &rec.outcome), (start, &Outcome::Ok(None)));
        let third = rec.end - (start + third_starts);
        assert!(third < timeout, "the third attempt was answered, after {third} ms");
    }
}
