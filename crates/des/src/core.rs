//! The per-shard event core: slab, keyed 4-ary heap, same-instant lane
//! and clock.
//!
//! [`EventCore`] is the piece of the monolithic [`Engine`](crate::Engine)
//! that a parallel discrete-event simulation needs *per shard*: an event
//! arena, a min-heap, and a local clock — without the boxed-closure API,
//! cancellation handles, or a run loop. The caller owns the loop, which is
//! what conservative synchronization needs: each shard pops only events
//! inside the current safe horizon via [`EventCore::pop_within`] and parks
//! at a barrier until a new horizon is agreed.
//!
//! Ordering is by a caller-packed key, not an engine-local sequence
//! number: `(time, tie)` with the tie-breaker carrying a layout-invariant
//! `(source domain, per-domain sequence)` pair. Because the key is a pure
//! function of *which domain scheduled the event and in what order*, the
//! global pop order of the union of all shards' cores is identical for
//! every shard count — the property the serial-vs-sharded differential
//! test pins.
//!
//! Beside the heap sits a *same-instant lane*: a FIFO of events scheduled
//! for the current instant whose keys arrive in increasing order — the
//! zero-delay resource grants and releases that make up about a third of
//! the message-level DES's events. Such an event skips the heap and the
//! arena entirely (push is an append, pop a front removal). Every pop takes
//! the smaller of the lane's front key and the heap's root key, and the
//! lane is sorted, so the popped sequence is exactly the heap-only one.

use crate::arena::EventArena;
use crate::heap::EventHeap;
use crate::time::SimTime;
use std::collections::VecDeque;

#[inline]
fn pack(at: SimTime, tie: u64) -> u128 {
    ((at.0 as u128) << 64) | tie as u128
}

/// One shard's pending-event set and clock.
///
/// Events are plain values (`E`); a heap-bound event is stored in a slab
/// and ordered by bare slot index, while a same-instant event waits in the
/// lane by value.
#[derive(Debug)]
pub struct EventCore<E> {
    now: SimTime,
    heap: EventHeap,
    arena: EventArena<E>,
    /// Events at `now`, ties strictly increasing front to back. It is
    /// only appended to while its back is smaller than the new key, and
    /// the clock cannot pass `now` while it holds an event (its keys are
    /// the smallest at any later time), so every entry is at `now`.
    lane: VecDeque<(u64, E)>,
}

impl<E> Default for EventCore<E> {
    fn default() -> Self {
        EventCore::new()
    }
}

impl<E> EventCore<E> {
    /// An empty core at time zero.
    pub fn new() -> Self {
        EventCore {
            now: SimTime::ZERO,
            heap: EventHeap::new(),
            arena: EventArena::new(),
            lane: VecDeque::new(),
        }
    }

    /// Current shard-local simulation time: the timestamp of the last
    /// event popped (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `ev` at absolute time `at`, tie-broken by `tie` (smaller
    /// fires first among equal times). Coexisting `(at, tie)` pairs must
    /// be distinct; the sharded engine guarantees this by packing
    /// `(domain, per-domain sequence)` into the tie.
    ///
    /// An event for the current instant whose tie exceeds the lane's back
    /// joins the lane; any other goes to the heap.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, tie: u64, ev: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        if at == self.now && self.lane.back().is_none_or(|&(back, _)| tie > back) {
            self.lane.push_back((tie, ev));
        } else {
            let (slot, _gen) = self.arena.insert(ev);
            self.heap.push_keyed(pack(at, tie), slot);
        }
    }

    /// True when the lane's front precedes the heap's root (and exists).
    #[inline]
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek_key()) {
            (Some(&(tie, _)), Some(root)) => pack(self.now, tie) < root,
            (front, _) => front.is_some(),
        }
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn min_time(&self) -> Option<SimTime> {
        if self.lane.is_empty() {
            self.heap.peek_time()
        } else {
            // lane events are at `now`, and nothing pending is earlier
            Some(self.now)
        }
    }

    /// Pop the earliest event if it fires at or before `horizon`,
    /// advancing the clock to its timestamp. `None` means the next event
    /// (if any) lies beyond the horizon — the shard must re-synchronize
    /// before it may process further.
    #[inline]
    pub fn pop_within(&mut self, horizon: SimTime) -> Option<E> {
        if self.lane_first() {
            if self.now > horizon {
                return None;
            }
            return self.lane.pop_front().map(|(_, ev)| ev);
        }
        let (at, slot) = self.heap.pop_within(horizon)?;
        let ev = self.arena.take(slot).expect("keyed event slot is live");
        self.now = at;
        Some(ev)
    }

    /// Drop all pending events and rewind the clock, keeping allocations
    /// (shard reuse across runs).
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.heap.clear();
        self.arena.clear();
        self.lane.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_tie_order() {
        let mut c: EventCore<u32> = EventCore::new();
        c.schedule_keyed(SimTime(20), 1, 0);
        c.schedule_keyed(SimTime(10), 9, 1);
        c.schedule_keyed(SimTime(10), 2, 2);
        c.schedule_keyed(SimTime(30), 0, 3);
        let mut got = Vec::new();
        while let Some(ev) = c.pop_within(SimTime::MAX) {
            got.push((c.now().0, ev));
        }
        assert_eq!(got, vec![(10, 2), (10, 1), (20, 0), (30, 3)]);
    }

    #[test]
    fn horizon_blocks_later_events() {
        let mut c: EventCore<&'static str> = EventCore::new();
        c.schedule_keyed(SimTime(5), 0, "early");
        c.schedule_keyed(SimTime(50), 0, "late");
        assert_eq!(c.pop_within(SimTime(10)), Some("early"));
        assert_eq!(c.pop_within(SimTime(10)), None);
        assert_eq!(c.now(), SimTime(5), "a refused pop must not advance time");
        assert_eq!(c.min_time(), Some(SimTime(50)));
        assert_eq!(c.pop_within(SimTime(50)), Some("late"));
        assert!(c.is_empty());
    }

    #[test]
    fn reset_rewinds_and_clears() {
        let mut c: EventCore<u8> = EventCore::new();
        c.schedule_keyed(SimTime(7), 0, 1);
        assert_eq!(c.pop_within(SimTime::MAX), Some(1));
        c.schedule_keyed(SimTime(9), 0, 2);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(c.min_time(), None);
        c.schedule_keyed(SimTime(1), 0, 3);
        assert_eq!(c.pop_within(SimTime::MAX), Some(3));
    }
}
