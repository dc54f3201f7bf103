//! Event queue primitives: virtual time, timers, and the ordered queue.
//!
//! The worlds this repository runs are tiny and short-lived (3–5 nodes, a
//! few hundred events, a median of two deliveries and four timers pending
//! at any pop), so the queue is the simplest structure that is exact: one
//! [`BinaryHeap`] of three-word keys ordered by `(time, seq)`, over one
//! generation-checked arena (`crate::arena`) that holds deliveries and
//! timers alike. Sifting moves keys, never messages, and a message is
//! written into its arena slot once — by [`crate::Ctx::send`], before it
//! has a delivery time — and read out once, by the pop that delivers it.

use std::{cmp::Reverse, collections::BinaryHeap};

use crate::arena::{Arena, Handle};
use crate::NodeId;

/// Virtual time in milliseconds since the start of the simulation.
pub type Time = u64;

/// Identifier of a pending timer, returned by [`crate::Ctx::set_timer`].
///
/// Timer ids are unique for the lifetime of a [`crate::World`]; cancelling an
/// already fired or cancelled timer is a harmless no-op.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// What a scheduled event does when it fires.
#[derive(Clone, Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` from `from` to `to`, unless a block rule or a crash
    /// intercepts it at delivery time. `src_epoch` is the sender's epoch at
    /// send time, for worlds that purge a crashed node's in-flight messages.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        src_epoch: u64,
    },
    /// Fire timer `id` with `tag` at node `node`, unless cancelled or the
    /// node crashed since it was set (`epoch` mismatch).
    Timer {
        node: NodeId,
        id: TimerId,
        tag: u64,
        epoch: u64,
    },
}

/// A scheduled event handed back by [`EventQueue::pop`].
#[derive(Debug)]
pub(crate) struct Event<M> {
    pub time: Time,
    pub seq: u64,
    pub kind: EventKind<M>,
}

/// The heap entry: ordering key plus the arena handle holding the payload.
/// Only `(time, seq)` participate in the order — sifting moves three words
/// instead of a full message.
#[derive(Clone, Copy, Debug)]
struct HeapKey {
    time: Time,
    seq: u64,
    handle: Handle,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapKey {}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A queue of events totally ordered by `(time, seq)`.
///
/// The sequence number makes the order total and therefore the simulation
/// deterministic: two events scheduled for the same instant fire in the
/// order they were scheduled, deliveries and timers alike.
///
/// Scheduling is two steps so a message is written once: [`stash`] stores
/// the payload and returns its handle, [`schedule`] gives the handle a
/// time and a sequence number. [`push`] does both.
///
/// [`stash`]: Self::stash
/// [`schedule`]: Self::schedule
/// [`push`]: Self::push
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Reverse<HeapKey>>,
    payloads: Arena<EventKind<M>>,
    next_seq: u64,
    high_water: usize,
}

impl<M> EventQueue<M> {
    #[cfg(test)]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for `cap` concurrently pending events —
    /// seeded from a scenario family's historical high-water mark so
    /// repeated arms skip the warm-up growth.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(cap),
            payloads: Arena::with_capacity(cap),
            next_seq: 0,
            high_water: 0,
        }
    }

    /// Stores `kind` without scheduling it; every stashed payload must be
    /// passed to [`schedule`](Self::schedule) before the next pop.
    pub fn stash(&mut self, kind: EventKind<M>) -> Handle {
        self.payloads.insert(kind)
    }

    /// Stashes a copy of the payload behind `handle` (a drawn duplicate).
    pub fn stash_copy(&mut self, handle: Handle) -> Handle
    where
        M: Clone,
    {
        let copy = self.payloads.get(handle).clone();
        self.payloads.insert(copy)
    }

    /// Schedules a stashed payload to fire at `time`, returning its
    /// sequence number.
    pub fn schedule(&mut self, time: Time, handle: Handle) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(HeapKey { time, seq, handle }));
        self.high_water = self.high_water.max(self.heap.len());
        seq
    }

    /// Schedules `kind` to fire at `time`, returning its sequence number.
    pub fn push(&mut self, time: Time, kind: EventKind<M>) -> u64 {
        let handle = self.stash(kind);
        self.schedule(time, handle)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<M>> {
        debug_assert_eq!(
            self.heap.len(),
            self.payloads.len(),
            "a stashed payload was never scheduled"
        );
        let Reverse(key) = self.heap.pop()?;
        Some(Event {
            time: key.time,
            seq: key.seq,
            kind: self.payloads.take(key.handle),
        })
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(k)| k.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled on this queue — the deterministic
    /// volume proxy the perf gate pins (equals the next sequence number).
    pub fn scheduled(&self) -> u64 {
        self.next_seq
    }

    /// The most events that were ever pending at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(to: usize) -> EventKind<u32> {
        EventKind::Deliver {
            from: NodeId(0),
            to: NodeId(to),
            msg: 0,
            src_epoch: 0,
        }
    }

    fn timer(node: usize, id: u64) -> EventKind<u32> {
        EventKind::Timer {
            node: NodeId(node),
            id: TimerId(id),
            tag: id,
            epoch: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, deliver(3));
        q.push(10, deliver(1));
        q.push(20, deliver(2));
        let order: Vec<Time> = std::iter::from_fn(|| q.pop().map(|e| e.time)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_classes() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            // Alternate deliveries and timers at the same instant: pops
            // must still follow scheduling order exactly.
            if i % 2 == 0 {
                q.push(5, deliver(i));
            } else {
                q.push(5, timer(i, i as u64));
            }
        }
        let mut prev = None;
        while let Some(e) = q.pop() {
            if let Some(p) = prev {
                assert!(e.seq > p, "same-time events must pop in insertion order");
            }
            prev = Some(e.seq);
        }
    }

    #[test]
    fn peek_time_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(42, deliver(0));
        q.push(7, timer(1, 0));
        assert_eq!(q.peek_time(), Some(7));
        assert_eq!(q.pop().unwrap().time, 7);
        assert_eq!(q.peek_time(), Some(42));
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, deliver(0));
        q.push(2, timer(1, 0));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.high_water(), 2, "the high-water mark outlives the pop");
    }

    #[test]
    fn payload_arena_is_recycled_through_the_free_list() {
        let mut q = EventQueue::new();
        // Interleave pushes and pops: the arena must never grow past the
        // high-water mark of concurrently pending events.
        for round in 0..50u64 {
            q.push(round, deliver(0));
            q.push(round, timer(1, round));
            q.pop().expect("pending");
        }
        assert_eq!(q.high_water(), 51);
        assert!(
            q.payloads.slots() <= 51,
            "arena holds more slots than events were ever pending: {}",
            q.payloads.slots()
        );
        while q.pop().is_some() {}
        assert!(q.is_empty());
        assert_eq!(q.payloads.len(), 0);
    }

    #[test]
    fn payloads_survive_the_round_trip() {
        let mut q = EventQueue::new();
        q.push(
            9,
            EventKind::Deliver {
                from: NodeId(4),
                to: NodeId(5),
                msg: 1234u32,
                src_epoch: 3,
            },
        );
        q.push(
            3,
            EventKind::Timer {
                node: NodeId(6),
                id: TimerId(77),
                tag: 8,
                epoch: 2,
            },
        );
        match q.pop().expect("timer first").kind {
            EventKind::Timer { node, id, tag, epoch } => {
                assert_eq!((node, id, tag, epoch), (NodeId(6), TimerId(77), 8, 2));
            }
            other => panic!("expected timer, got {other:?}"),
        }
        match q.pop().expect("deliver second").kind {
            EventKind::Deliver { from, to, msg, src_epoch } => {
                assert_eq!((from, to, msg, src_epoch), (NodeId(4), NodeId(5), 1234, 3));
            }
            other => panic!("expected deliver, got {other:?}"),
        }
        assert_eq!(q.scheduled(), 2);
    }

    /// Random interleaved push/pop schedules through the queue and through
    /// an independent model — a `BTreeMap` keyed by `(time, seq)`, whose
    /// first entry is by definition the next event — asserting identical
    /// sequence numbers, peeks, pops, lengths and high-water marks.
    mod equivalence {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        const NODES: usize = 4;

        /// One generated op: `(kind, delay, node, knob)`.
        type Op = (u8, u64, u8, u8);

        #[derive(Default)]
        struct Model {
            pending: BTreeMap<(Time, u64), String>,
            next_seq: u64,
            high_water: usize,
        }

        impl Model {
            fn push(&mut self, time: Time, kind: &EventKind<u64>) -> u64 {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.pending.insert((time, seq), format!("{kind:?}"));
                self.high_water = self.high_water.max(self.pending.len());
                seq
            }
        }

        /// Pops one event from both and compares; `false` once both are empty.
        fn pop_both(q: &mut EventQueue<u64>, model: &mut Model, now: &mut Time) -> bool {
            let want = model.pending.pop_first();
            assert_eq!(q.peek_time(), want.as_ref().map(|((time, _), _)| *time));
            let got = q.pop().map(|e| ((e.time, e.seq), format!("{:?}", e.kind)));
            assert_eq!(got, want, "pop streams diverged at t={now}");
            assert_eq!(q.len(), model.pending.len());
            match got {
                Some(((time, _), _)) => {
                    assert!(time >= *now, "the queue went backwards");
                    *now = time;
                    true
                }
                None => false,
            }
        }

        fn replay(ops: &[Op]) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model = Model::default();
            let mut now: Time = 0;
            let mut next_id = 0u64;
            for &(kind, delay, node, knob) in ops {
                let node = node as usize % NODES;
                next_id += 1;
                match kind % 3 {
                    0 => {
                        // A delivery the way the world sends one: stashed
                        // first, scheduled later; every fourth is duplicated
                        // and the copy takes the lower sequence number.
                        let k = EventKind::Deliver {
                            from: NodeId(node),
                            to: NodeId((node + 1) % NODES),
                            msg: next_id,
                            src_epoch: knob as u64,
                        };
                        let handle = q.stash(k.clone());
                        if knob % 4 == 0 {
                            let at = now + delay / 2;
                            let copy = q.stash_copy(handle);
                            assert_eq!(q.schedule(at, copy), model.push(at, &k));
                        }
                        assert_eq!(q.schedule(now + delay, handle), model.push(now + delay, &k));
                    }
                    1 => {
                        let k = EventKind::Timer {
                            node: NodeId(node),
                            id: TimerId(next_id),
                            tag: knob as u64,
                            epoch: 0,
                        };
                        assert_eq!(q.push(now + delay, k.clone()), model.push(now + delay, &k));
                    }
                    _ => {
                        // Advance the clock by popping a burst.
                        for _ in 0..=(knob % 4) {
                            if !pop_both(&mut q, &mut model, &mut now) {
                                break;
                            }
                        }
                    }
                }
                assert_eq!(q.len(), model.pending.len());
            }
            // Drain to empty: the tails must agree too.
            while pop_both(&mut q, &mut model, &mut now) {}
            assert_eq!(q.scheduled(), model.next_seq);
            assert_eq!(q.high_water(), model.high_water);
        }

        proptest! {
            /// Delays are mostly small, so equal times are common, and run
            /// up to 2^37 ms, so far deadlines sit among near ones.
            #[test]
            fn queue_matches_the_btreemap_model(
                ops in vec(
                    (0u8..3, prop_oneof![0u64..4, 0u64..5000, 0u64..1 << 37], 0u8..4, 0u8..8),
                    0..400,
                )
            ) {
                replay(&ops);
            }
        }

        #[test]
        fn dense_same_instant_schedules_agree() {
            // Every op kind at delay 0: maximal tie-breaking stress.
            let ops: Vec<Op> = (0..200)
                .map(|i| ((i % 3) as u8, 0, (i % 3) as u8, (i % 8) as u8))
                .collect();
            replay(&ops);
        }
    }
}
