//! Operation histories: what each client invoked and what it observed.
//!
//! Every system model's client wrapper records one [`OpRecord`] per
//! operation. The [`crate::checkers`] turn a [`History`] (plus the final
//! state read after healing) into typed violations.

use std::{collections::BTreeSet, sync::Arc};

use simnet::{NodeId, Time};

/// An abstract client operation, covering the event palette of the paper's
/// Table 8 (read, write, delete, lock, unlock, enqueue/dequeue, admin ops).
///
/// Keys are shared: [`crate::Neat::key`] hands every operation on a key the
/// same allocation, which the client may also put on the wire. An
/// `Arc<str>` prints exactly as the `String` it replaced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op {
    /// Write `val` to `key`. Values are unique per test so reads identify
    /// their originating write.
    Write { key: Arc<str>, val: u64 },
    /// Read `key`.
    Read { key: Arc<str> },
    /// Delete `key`.
    Delete { key: Arc<str> },
    /// Append `val` to the queue named `key`.
    Enqueue { key: Arc<str>, val: u64 },
    /// Pop from the queue named `key`.
    Dequeue { key: Arc<str> },
    /// Acquire the lock / a semaphore permit named `key`.
    Acquire { key: Arc<str> },
    /// Release the lock / a semaphore permit named `key`.
    Release { key: Arc<str> },
    /// Add `val` to the set named `key`.
    Add { key: Arc<str>, val: u64 },
    /// Remove `val` from the set named `key`.
    Remove { key: Arc<str>, val: u64 },
    /// Add `by` to the counter named `key`.
    Incr { key: Arc<str>, by: u64 },
    /// Submit a job named `key` (schedulers).
    Submit { key: Arc<str> },
    /// Anything else, labelled for the trace.
    Other { label: String },
}

impl Op {
    /// The key/resource this operation addresses.
    pub fn key(&self) -> &str {
        match self {
            Op::Write { key, .. }
            | Op::Read { key }
            | Op::Delete { key }
            | Op::Enqueue { key, .. }
            | Op::Dequeue { key }
            | Op::Acquire { key }
            | Op::Release { key }
            | Op::Add { key, .. }
            | Op::Remove { key, .. }
            | Op::Incr { key, .. }
            | Op::Submit { key } => key,
            Op::Other { label } => label,
        }
    }
}

/// The observed result of an operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// The operation succeeded; reads and dequeues carry the returned value
    /// (`None` = key missing / queue empty).
    Ok(Option<u64>),
    /// The operation succeeded returning multiple values (set reads).
    OkMany(Vec<u64>),
    /// The system acknowledged a failure. A failed write must never become
    /// visible (returning it later is a *dirty read*).
    Fail,
    /// No response within the timeout: the effect is unknown — the operation
    /// may or may not have been applied.
    Timeout,
}

impl Outcome {
    /// `true` for `Ok`/`OkMany`.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok(_) | Outcome::OkMany(_))
    }

    /// The single returned value, if any.
    pub fn value(&self) -> Option<u64> {
        match self {
            Outcome::Ok(v) => *v,
            _ => None,
        }
    }
}

/// One recorded operation: who, what, when, and what came back.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// The client node that issued the operation.
    pub client: NodeId,
    pub op: Op,
    pub outcome: Outcome,
    /// Virtual time of invocation.
    pub start: Time,
    /// Virtual time of completion (for timeouts: when the client gave up).
    pub end: Time,
}

impl OpRecord {
    /// `true` when `self` finished no later than `other` started —
    /// real-time precedence, used throughout the checkers.
    ///
    /// The comparison is inclusive because the NEAT engine globally orders
    /// client operations: an operation completing at virtual time `t` and
    /// the next invoked at `t` are still sequential, and the millisecond
    /// clock often makes them touch.
    pub fn precedes(&self, other: &OpRecord) -> bool {
        self.end <= other.start
    }
}

/// An append-only log of [`OpRecord`]s in global invocation order, and the
/// keys its operations share.
#[derive(Clone, Debug, Default)]
pub struct History {
    records: Vec<OpRecord>,
    /// Every key [`History::intern`] has handed out, one allocation each.
    interned: BTreeSet<Arc<str>>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// `key` as a shared allocation: the first call with a given text
    /// allocates it, every later one returns the same `Arc`.
    pub fn intern(&mut self, key: &str) -> Arc<str> {
        if let Some(k) = self.interned.get(key) {
            return Arc::clone(k);
        }
        let k: Arc<str> = key.into();
        self.interned.insert(Arc::clone(&k));
        k
    }

    /// Appends a record.
    pub fn push(&mut self, rec: OpRecord) {
        self.records.push(rec);
    }

    /// All records, in invocation order.
    pub fn records(&self) -> &[OpRecord] {
        &self.records
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records addressing `key`, in order.
    pub fn for_key<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a OpRecord> {
        self.records.iter().filter(move |r| r.op.key() == key)
    }

    /// Renders the history one line per operation, like the paper's test
    /// listings print their workload.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&format!(
                "[{:>6}..{:>6}] {} {:?} -> {:?}\n",
                r.start, r.end, r.client, r.op, r.outcome
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: Op, outcome: Outcome, start: Time, end: Time) -> OpRecord {
        OpRecord {
            client: NodeId(9),
            op,
            outcome,
            start,
            end,
        }
    }

    #[test]
    fn precedes_is_inclusive() {
        let a = rec(Op::Read { key: "k".into() }, Outcome::Ok(None), 0, 5);
        let b = rec(Op::Read { key: "k".into() }, Outcome::Ok(None), 5, 9);
        let c = rec(Op::Read { key: "k".into() }, Outcome::Ok(None), 4, 9);
        assert!(
            a.precedes(&b),
            "touching intervals are ordered under the global-order engine"
        );
        assert!(!a.precedes(&c), "overlapping intervals are concurrent");
    }

    #[test]
    fn for_key_filters() {
        let mut h = History::new();
        h.push(rec(
            Op::Write { key: "a".into(), val: 1 },
            Outcome::Ok(None),
            0,
            1,
        ));
        h.push(rec(Op::Read { key: "b".into() }, Outcome::Ok(None), 2, 3));
        assert_eq!(h.for_key("a").count(), 1);
    }

    #[test]
    fn outcome_helpers() {
        assert!(Outcome::Ok(Some(3)).is_ok());
        assert!(Outcome::OkMany(vec![]).is_ok());
        assert!(!Outcome::Fail.is_ok());
        assert!(!Outcome::Timeout.is_ok());
        assert_eq!(Outcome::Ok(Some(3)).value(), Some(3));
        assert_eq!(Outcome::Fail.value(), None);
    }

    #[test]
    fn op_key_covers_all_variants() {
        let ops = [
            Op::Write { key: "k".into(), val: 0 },
            Op::Read { key: "k".into() },
            Op::Delete { key: "k".into() },
            Op::Enqueue { key: "k".into(), val: 0 },
            Op::Dequeue { key: "k".into() },
            Op::Acquire { key: "k".into() },
            Op::Release { key: "k".into() },
            Op::Add { key: "k".into(), val: 0 },
            Op::Remove { key: "k".into(), val: 0 },
            Op::Incr { key: "k".into(), by: 1 },
            Op::Submit { key: "k".into() },
        ];
        for op in ops {
            assert_eq!(op.key(), "k");
        }
        assert_eq!(Op::Other { label: "boot".into() }.key(), "boot");
    }

    #[test]
    fn intern_shares_one_allocation_per_key() {
        let mut h = History::new();
        let (a, b, c) = (h.intern("k"), h.intern("k"), h.intern("j"));
        assert!(Arc::ptr_eq(&a, &b), "a second intern of one key must not allocate");
        assert_eq!((&*a, &*c), ("k", "j"));
        // An interned key prints as the `String` it replaced.
        let op = Op::Write { key: a, val: 1 };
        assert_eq!(format!("{op:?}"), "Write { key: \"k\", val: 1 }");
    }

    #[test]
    fn render_is_one_line_per_op() {
        let mut h = History::new();
        h.push(rec(Op::Read { key: "k".into() }, Outcome::Timeout, 1, 2));
        h.push(rec(Op::Read { key: "k".into() }, Outcome::Fail, 3, 4));
        assert_eq!(h.render().lines().count(), 2);
    }
}
