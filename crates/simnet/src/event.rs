//! Event queue primitives: virtual time, timers, and the ordered queue.
//!
//! The traffic on this queue is a few in-flight messages due 1–5 ms out
//! plus one periodic timer per node due 100–600 ms out, and 84–100 % of
//! all events are due less than 64 ms after the last pop. So the queue is
//! a ring of `WINDOW` = 64 one-millisecond FIFO buckets covering
//! `[base, base + WINDOW)`, where `base` is the time of the last pop, in
//! front of a [`BinaryHeap`] that holds only the events due later. Buckets
//! are intrusive lists threaded through the one payload slab, with one
//! occupancy bit each, so scheduling into the window is an append and a
//! pop is a `trailing_zeros` plus an unlink, however many events are
//! pending. A message is written into its slab slot once — by
//! [`crate::Ctx::send`], before it has a delivery time — and read out
//! once, by the pop that delivers it.

use std::{cmp::Reverse, collections::BinaryHeap};

use crate::NodeId;

/// Virtual time in milliseconds since the start of the simulation.
pub type Time = u64;

/// Identifier of a pending timer, returned by [`crate::Ctx::set_timer`].
///
/// Timer ids are unique for the lifetime of a [`crate::World`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// What a scheduled event does when it fires.
#[derive(Clone, Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver `msg` from `from` to `to`, unless a rule or a crashed
    /// destination intercepts it at delivery time.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// Fire timer `id` with `tag` at node `node`, unless the node crashed
    /// since it was set (`epoch` mismatch).
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

/// Width of the ring in milliseconds: one bucket per bit of the occupancy
/// word. EXPERIMENTS.md ("What a pop costs") compares the widths.
const WINDOW: u64 = u64::BITS as u64;

/// End of the free list.
const NIL: u32 = u32::MAX;

/// A generation-checked reference to a stashed payload.
///
/// Slot index plus the generation the slot had when the payload was
/// stashed. Scheduling redeems the handle and bumps the generation, so a
/// stale handle — read or scheduled after its payload was scheduled, or
/// after the slot was recycled — panics instead of aliasing another event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Handle {
    index: u32,
    generation: u32,
}

/// One slab slot: a payload plus the link that threads it through its
/// bucket or, once popped, through the free list.
#[derive(Debug)]
struct Slot<M> {
    kind: Option<EventKind<M>>,
    seq: u64,
    next: u32,
    generation: u32,
}

/// What a queue saw over its life; see [`crate::queue_stats_during`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct QueueStats {
    /// The most events that were ever pending at once.
    pub high_water: usize,
    /// Events ever scheduled: deliveries, duplicates and timers.
    pub scheduled: u64,
    /// Of those, the events due 64 ms or more after the last pop when
    /// scheduled, which wait in the far heap.
    pub far: u64,
}

impl QueueStats {
    /// Folds `other` in: the deeper high-water mark, the summed counts.
    pub fn merge(&mut self, other: QueueStats) {
        self.high_water = self.high_water.max(other.high_water);
        self.scheduled += other.scheduled;
        self.far += other.far;
    }
}

/// A queue of events totally ordered by `(time, seq)`.
///
/// The sequence number makes the order total and therefore the simulation
/// deterministic: two events scheduled for the same instant fire in the
/// order they were scheduled, deliveries and timers alike. A bucket is
/// FIFO, and FIFO order within a bucket is seq order: seq is issued at
/// [`schedule`], and a far event migrates into its bucket (in `(time,
/// seq)` order) as soon as the window reaches it, before any later
/// schedule can append there.
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
    slots: Vec<Slot<M>>,
    free: u32,
    /// `(head, tail)` of each bucket; bucket `t % WINDOW` holds the events
    /// due at `t`. Meaningful only while the bucket's `occupied` bit is set.
    buckets: [(u32, u32); WINDOW as usize],
    occupied: u64,
    /// Time of the last pop: the ring covers `[base, base + WINDOW)`.
    base: Time,
    /// Events due at or after `base + WINDOW`, with their slot.
    far: BinaryHeap<Reverse<(Time, u64, u32)>>,
    len: usize,
    stats: QueueStats,
}

impl<M> EventQueue<M> {
    #[cfg(test)]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue whose slab and far heap are pre-sized for `cap`
    /// concurrently pending events — seeded from a scenario family's
    /// historical high-water mark so repeated arms skip the warm-up growth.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free: NIL,
            buckets: [(NIL, NIL); WINDOW as usize],
            occupied: 0,
            base: 0,
            far: BinaryHeap::with_capacity(cap),
            len: 0,
            stats: QueueStats::default(),
        }
    }

    /// Stores `kind` without scheduling it, reusing a popped slot when one
    /// is free; every stashed payload must be passed to
    /// [`schedule`](Self::schedule) before the next pop.
    #[inline(always)]
    pub fn stash(&mut self, kind: EventKind<M>) -> Handle {
        let index = self.free;
        if index == NIL {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                kind: Some(kind),
                seq: 0,
                next: NIL,
                generation: 0,
            });
            return Handle {
                index,
                generation: 0,
            };
        }
        let slot = &mut self.slots[index as usize];
        self.free = slot.next;
        slot.kind = Some(kind);
        Handle {
            index,
            generation: slot.generation,
        }
    }

    /// The slot behind `handle`, which must not have been scheduled yet.
    #[inline(always)]
    fn stashed(&mut self, handle: Handle) -> &mut Slot<M> {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale event handle: its payload was already scheduled"
        );
        slot
    }

    /// Stashes a copy of the payload behind `handle` (a drawn duplicate).
    pub fn stash_copy(&mut self, handle: Handle) -> Handle
    where
        M: Clone,
    {
        let copy = self.stashed(handle).kind.clone();
        // Invariant: a slot whose generation matches a handle is stashed
        // and not yet scheduled, so it holds a payload.
        self.stash(copy.expect("stashed slot without a payload")) // lint:allow(unwrap-expect)
    }

    /// Schedules a stashed payload to fire at `time`, returning its
    /// sequence number.
    ///
    /// Panics when `time` is before the last pop: the ring would file such
    /// an event a full lap late instead of first.
    #[inline(always)]
    pub fn schedule(&mut self, time: Time, handle: Handle) -> u64 {
        assert!(
            time >= self.base,
            "event scheduled at {time} ms, before the last pop at {} ms",
            self.base
        );
        let seq = self.stats.scheduled;
        let slot = self.stashed(handle);
        slot.generation = slot.generation.wrapping_add(1);
        slot.seq = seq;
        if time - self.base < WINDOW {
            self.append(time, handle.index);
        } else {
            self.far.push(Reverse((time, seq, handle.index)));
            self.stats.far += 1;
        }
        self.stats.scheduled += 1;
        self.len += 1;
        self.stats.high_water = self.stats.high_water.max(self.len);
        seq
    }

    /// Schedules `kind` to fire at `time`, returning its sequence number.
    #[inline]
    pub fn push(&mut self, time: Time, kind: EventKind<M>) -> u64 {
        let handle = self.stash(kind);
        self.schedule(time, handle)
    }

    /// Appends slot `index` to the bucket of `time`, which is in the window.
    #[inline(always)]
    fn append(&mut self, time: Time, index: u32) {
        let bucket = (time % WINDOW) as usize;
        let bit = 1 << bucket;
        if self.occupied & bit == 0 {
            self.occupied |= bit;
            self.buckets[bucket] = (index, index);
        } else {
            let tail = std::mem::replace(&mut self.buckets[bucket].1, index);
            self.slots[tail as usize].next = index;
        }
    }

    /// Moves the window to start at `time`, the time of the pop under way,
    /// and files every far event it now covers into its bucket, in `(time,
    /// seq)` order.
    #[inline]
    fn advance(&mut self, time: Time) {
        self.base = time;
        while let Some(&Reverse((at, _, index))) = self.far.peek() {
            if at - time >= WINDOW {
                break;
            }
            self.far.pop();
            self.append(at, index);
        }
    }

    /// Removes and returns the earliest event, if any.
    #[inline(always)]
    pub fn pop(&mut self) -> Option<Event<M>> {
        let time = self.peek_time()?;
        if time != self.base {
            self.advance(time);
        }
        let bucket = (time % WINDOW) as usize;
        let (head, tail) = self.buckets[bucket];
        let slot = &mut self.slots[head as usize];
        if head == tail {
            self.occupied &= !(1 << bucket);
        } else {
            self.buckets[bucket].0 = slot.next;
        }
        slot.next = self.free;
        self.free = head;
        self.len -= 1;
        // Invariant: a slot linked into a bucket was scheduled and not yet
        // popped, so it holds a payload.
        let kind = slot.kind.take().expect("scheduled slot without a payload"); // lint:allow(unwrap-expect)
        Some(Event {
            time,
            seq: slot.seq,
            kind,
        })
    }

    /// Returns the time of the earliest pending event without removing it:
    /// the first occupied bucket from `base` on, else the far heap's top.
    #[inline(always)]
    pub fn peek_time(&self) -> Option<Time> {
        if self.occupied == 0 {
            return self.far.peek().map(|Reverse((time, ..))| *time);
        }
        let offset = self
            .occupied
            .rotate_right((self.base % WINDOW) as u32)
            .trailing_zeros();
        Some(self.base + u64::from(offset))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The high-water mark, the events ever scheduled (the deterministic
    /// volume proxy the perf gate pins; also the next sequence number) and
    /// how many of them went to the far heap.
    pub fn stats(&self) -> QueueStats {
        self.stats
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

    fn tag_of(kind: EventKind<u32>) -> u64 {
        match kind {
            EventKind::Timer { tag, .. } => tag,
            other => panic!("expected timer, got {other:?}"),
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
        assert_eq!(
            q.stats().high_water,
            2,
            "the high-water mark outlives the pop"
        );
    }

    #[test]
    fn payload_arena_is_recycled_through_the_free_list() {
        let mut q = EventQueue::new();
        // Interleave pushes and pops: the slab must never grow past the
        // high-water mark of concurrently pending events.
        for round in 0..50u64 {
            q.push(round, deliver(0));
            q.push(round, timer(1, round));
            q.pop().expect("pending");
        }
        assert_eq!(q.stats().high_water, 51);
        assert!(
            q.slots.len() <= 51,
            "slab holds more slots than events were ever pending: {}",
            q.slots.len()
        );
        while q.pop().is_some() {}
        assert!(q.is_empty());
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
            EventKind::Timer {
                node,
                id,
                tag,
                epoch,
            } => {
                assert_eq!((node, id, tag, epoch), (NodeId(6), TimerId(77), 8, 2));
            }
            other => panic!("expected timer, got {other:?}"),
        }
        match q.pop().expect("deliver second").kind {
            EventKind::Deliver { from, to, msg } => {
                assert_eq!((from, to, msg), (NodeId(4), NodeId(5), 1234));
            }
            other => panic!("expected deliver, got {other:?}"),
        }
        assert_eq!(q.stats().scheduled, 2);
    }

    #[test]
    fn insert_take_round_trips() {
        let mut q = EventQueue::new();
        let h = q.stash(timer(0, 7));
        assert!(q.is_empty(), "a stashed payload is not pending");
        q.schedule(1, h);
        assert_eq!(q.len(), 1);
        assert_eq!(tag_of(q.pop().expect("scheduled").kind), 7);
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut q = EventQueue::with_capacity(2);
        let mut now = 0;
        for i in 0..100u64 {
            q.push(now, timer(0, i));
            q.push(now + WINDOW, timer(0, i + 1));
            assert_eq!(tag_of(q.pop().expect("near").kind), i);
            let far = q.pop().expect("far");
            assert_eq!(tag_of(far.kind), i + 1);
            now = far.time;
        }
        assert_eq!(q.stats().far, 100);
        assert!(
            q.slots.len() <= 2,
            "slab grew past high-water: {}",
            q.slots.len()
        );
        assert!(
            q.far.capacity() <= 2,
            "far heap grew past high-water: {}",
            q.far.capacity()
        );
    }

    #[test]
    #[should_panic(expected = "stale event handle")]
    fn stale_handle_is_caught_by_generation_check() {
        let mut q = EventQueue::new();
        let h = q.stash(timer(0, 1));
        q.schedule(1, h);
        q.pop();
        q.stash(timer(0, 2)); // recycles the slot
        q.schedule(2, h); // stale: must panic, not schedule the new payload
    }

    #[test]
    #[should_panic(expected = "stale event handle")]
    fn reading_through_a_stale_handle_is_caught_too() {
        let mut q = EventQueue::new();
        let h = q.stash(timer(0, 1));
        q.stash_copy(h);
        q.schedule(1, h);
        q.stash_copy(h);
    }

    #[test]
    fn distinct_pending_handles_never_alias() {
        let mut q = EventQueue::new();
        let hs: Vec<Handle> = (0..10u64).map(|i| q.stash(timer(0, i))).collect();
        // Scheduled in reverse at one instant: pops follow scheduling order.
        for &h in hs.iter().rev() {
            q.schedule(3, h);
        }
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| tag_of(e.kind))).collect();
        assert_eq!(tags, (0..10).rev().collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "before the last pop")]
    fn scheduling_before_the_last_pop_is_refused() {
        let mut q = EventQueue::new();
        q.push(10, timer(0, 0));
        q.pop();
        q.push(9, timer(0, 1));
    }

    #[test]
    fn a_migrated_event_pops_before_a_later_direct_insert_at_its_time() {
        let mut q = EventQueue::new();
        let due = WINDOW + 5;
        let far = q.push(due, timer(0, 0));
        q.push(10, timer(0, 1));
        assert_eq!(q.stats().far, 1, "due a full window after the last pop");
        // The pop at 10 moves the window over `due`: the far event is
        // filed into its bucket before anything else can be.
        assert_eq!(q.pop().map(|e| e.time), Some(10));
        let near = q.push(due, timer(0, 2));
        assert_eq!(q.stats().far, 1, "due inside the window now");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.seq)).collect();
        assert_eq!(order, vec![far, near]);
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
                match kind % 4 {
                    0 => {
                        // A delivery the way the world sends one: stashed
                        // first, scheduled later; every fourth is duplicated
                        // and the copy takes the lower sequence number.
                        let k = EventKind::Deliver {
                            from: NodeId(node),
                            to: NodeId((node + 1) % NODES),
                            msg: next_id,
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
                    2 => {
                        // Advance the clock by popping a burst.
                        for _ in 0..=(knob % 4) {
                            if !pop_both(&mut q, &mut model, &mut now) {
                                break;
                            }
                        }
                    }
                    _ => {
                        // Jump the clock the way `World::run_until` does:
                        // pop everything due by the target, then stand at
                        // it, past the window, with no pop there.
                        let target = now + WINDOW + delay % (2 * WINDOW);
                        while q.peek_time().is_some_and(|t| t <= target) {
                            pop_both(&mut q, &mut model, &mut now);
                        }
                        now = target;
                    }
                }
                assert_eq!(q.len(), model.pending.len());
            }
            // Drain to empty: the tails must agree too.
            while pop_both(&mut q, &mut model, &mut now) {}
            assert_eq!(q.stats().scheduled, model.next_seq);
            assert_eq!(q.stats().high_water, model.high_water);
        }

        proptest! {
            /// Delays are mostly small, so equal times are common; some sit
            /// on the window's edges, and some run up to 2^37 ms, so far
            /// deadlines sit among near ones.
            #[test]
            fn queue_matches_the_btreemap_model(
                ops in vec(
                    (
                        0u8..4,
                        prop_oneof![
                            0u64..4,
                            (0usize..4).prop_map(|i| [WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW][i]),
                            0u64..5000,
                            0u64..1 << 37,
                        ],
                        0u8..4,
                        0u8..8,
                    ),
                    0..400,
                )
            ) {
                replay(&ops);
            }
        }

        #[test]
        fn dense_same_instant_schedules_agree() {
            // Every op kind but the jump at delay 0: maximal tie-breaking
            // stress.
            let ops: Vec<Op> = (0..200)
                .map(|i| ((i % 3) as u8, 0, (i % 3) as u8, (i % 8) as u8))
                .collect();
            replay(&ops);
        }
    }
}
