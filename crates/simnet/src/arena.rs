//! A generational arena for event payloads.
//!
//! The event queue stores event payloads — messages and timers — out of
//! line so its heap keys stay three words wide. Payload slots are recycled
//! through a free list, and every slot carries a generation counter that
//! is bumped on each vacate — a [`Handle`] is only valid for the exact
//! insertion that produced it, so a stale handle (a bug in the queue) is
//! caught when it is redeemed instead of silently aliasing a newer payload.
//!
//! Steady state — pending events oscillating below the high-water mark —
//! allocates nothing: `insert` pops the free list and `take` pushes it.

/// A generation-checked reference to a value stored in an [`Arena`].
///
/// Two words: slot index plus the generation the slot had when the value
/// was inserted. Handles are `Copy` keys, not borrows — redeeming one via
/// [`Arena::take`] verifies the generation still matches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Handle {
    index: u32,
    generation: u32,
}

/// One payload slot: the current generation and (while occupied) a value.
#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// The payload store: a slab of generation-tagged slots plus a free list.
#[derive(Debug)]
pub(crate) struct Arena<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Arena<T> {
    /// An empty arena whose slab and free list can hold `cap` payloads
    /// before reallocating — seeded from a scenario's historical
    /// high-water mark so repeated trials skip the warm-up growth.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            len: 0,
        }
    }

    /// Stores `value`, reusing a vacated slot when one is free.
    pub fn insert(&mut self, value: T) -> Handle {
        self.len += 1;
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.value.is_none(), "free list held an occupied slot");
                slot.value = Some(value);
                Handle {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let index = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    value: Some(value),
                });
                Handle {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// The value behind `handle`, which must not have been taken yet.
    pub fn get(&self, handle: Handle) -> &T {
        let slot = &self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale arena handle: slot was recycled under it"
        );
        slot.value
            .as_ref()
            // Invariant: as in `take`.
            .expect("arena handle addressed an empty slot") // lint:allow(unwrap-expect)
    }

    /// Removes and returns the value behind `handle`.
    ///
    /// Panics when the handle is stale (its slot was vacated, or vacated
    /// and re-used, since the insertion): each handle is redeemable
    /// exactly once, and the queue invariant is that every pushed payload
    /// is taken by exactly one pop.
    pub fn take(&mut self, handle: Handle) -> T {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale arena handle: slot was recycled under it"
        );
        let value = slot
            .value
            .take()
            // Invariant: generation matches, so the insertion that minted
            // this handle has not been taken yet.
            .expect("arena handle addressed an empty slot"); // lint:allow(unwrap-expect)
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.len -= 1;
        value
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Number of slots ever created, occupied or free.
    #[cfg(test)]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_take_round_trips() {
        let mut a = Arena::with_capacity(0);
        let h = a.insert("payload");
        assert_eq!(a.len(), 1);
        assert_eq!(a.take(h), "payload");
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut a = Arena::with_capacity(2);
        for i in 0..100u32 {
            let h1 = a.insert(i);
            let h2 = a.insert(i + 1);
            assert_eq!(a.take(h1), i);
            assert_eq!(a.take(h2), i + 1);
        }
        assert!(a.slots.len() <= 2, "slab grew past high-water: {}", a.slots.len());
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn stale_handle_is_caught_by_generation_check() {
        let mut a = Arena::with_capacity(0);
        let h = a.insert(1u32);
        a.take(h);
        a.insert(2u32); // recycles the slot with a bumped generation
        a.take(h); // stale: must panic, not alias the new payload
    }

    #[test]
    #[should_panic(expected = "stale arena handle")]
    fn reading_through_a_stale_handle_is_caught_too() {
        let mut a = Arena::with_capacity(0);
        let h = a.insert(1u32);
        assert_eq!(*a.get(h), 1);
        a.take(h);
        a.get(h);
    }

    #[test]
    fn distinct_pending_handles_never_alias() {
        let mut a = Arena::with_capacity(0);
        let hs: Vec<Handle> = (0..10u64).map(|i| a.insert(i)).collect();
        for (i, h) in hs.into_iter().enumerate().rev() {
            assert_eq!(a.take(h), i as u64);
        }
    }
}
