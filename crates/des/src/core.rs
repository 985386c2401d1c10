//! The per-shard event core: slab, keyed 4-ary heap, delay-class lanes
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
//! Beside the heap sit a few *delay-class lanes*: FIFOs, each tagged with
//! one delay `at − now`, whose keys arrive in increasing order. The
//! message-level DES schedules most events at a handful of delays — zero
//! for resource grants and releases, then the fabric's per-hop latencies
//! and the protocol overheads — so an event scheduled at its lane's delay
//! almost always lands behind everything already queued there. Such an
//! event skips the heap and the arena (push is an append, pop a front
//! removal). An event joins its delay's lane when its key exceeds the
//! lane's back; a lane is retagged to a new delay only while it is empty;
//! every other event goes to the heap. Each lane is sorted, and every pop
//! takes the smallest of the lane fronts and the heap root, so the popped
//! sequence is exactly the heap-only one.

use crate::arena::EventArena;
use crate::heap::EventHeap;
use crate::time::SimTime;
use std::collections::VecDeque;

/// Number of delay-class lanes.
const LANES: usize = 8;

/// Front key of an empty lane. No lane holds this key (an event keyed
/// `u128::MAX` goes to the heap), so it never wins a comparison it should
/// lose.
const EMPTY: u128 = u128::MAX;

#[inline]
fn pack(at: SimTime, tie: u64) -> u128 {
    ((at.0 as u128) << 64) | tie as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// One shard's pending-event set and clock.
///
/// Events are plain values (`E`); a heap-bound event is stored in a slab
/// and ordered by bare slot index, while a lane event waits in its lane by
/// value.
#[derive(Debug)]
pub struct EventCore<E> {
    now: SimTime,
    heap: EventHeap,
    arena: EventArena<E>,
    /// The delay each lane holds; changed only while the lane is empty.
    delays: [u64; LANES],
    /// Key of each lane's front event, [`EMPTY`] for an empty lane.
    fronts: [u128; LANES],
    /// Keyed events, strictly increasing front to back.
    lanes: [VecDeque<(u128, E)>; LANES],
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
            delays: [0; LANES],
            fronts: [EMPTY; LANES],
            lanes: std::array::from_fn(|_| VecDeque::new()),
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
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
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
    /// The event joins the lane of its delay `at − now` if its key
    /// exceeds that lane's back (an empty lane may be retagged to take
    /// it); otherwise it goes to the heap.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, tie: u64, ev: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let key = pack(at, tie);
        match self.lane_for(at.0 - self.now.0, key) {
            Some(i) => {
                let lane = &mut self.lanes[i];
                if lane.is_empty() {
                    self.fronts[i] = key;
                }
                lane.push_back((key, ev));
            }
            None => {
                let (slot, _gen) = self.arena.insert(ev);
                self.heap.push_keyed(key, slot);
            }
        }
    }

    /// The lane a `key` scheduled `delay` ahead may join, if any: the
    /// lane tagged with `delay` when `key` exceeds its back, else (no lane
    /// holds that delay) an empty lane, retagged.
    #[inline]
    fn lane_for(&mut self, delay: u64, key: u128) -> Option<usize> {
        if key == EMPTY {
            return None;
        }
        if let Some(i) = self.delays.iter().position(|&d| d == delay) {
            let fits = self.lanes[i].back().is_none_or(|&(back, _)| key > back);
            return fits.then_some(i);
        }
        let i = self.fronts.iter().position(|&f| f == EMPTY)?;
        self.delays[i] = delay;
        Some(i)
    }

    /// The lane with the smallest front key, and that key ([`EMPTY`] when
    /// every lane is empty).
    #[inline]
    fn first_lane(&self) -> (usize, u128) {
        let mut best = (0, self.fronts[0]);
        for (i, &f) in self.fronts.iter().enumerate().skip(1) {
            if f < best.1 {
                best = (i, f);
            }
        }
        best
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn min_time(&self) -> Option<SimTime> {
        let lane = self.first_lane().1;
        match self.heap.peek_key() {
            Some(root) if root < lane => Some(unpack_time(root)),
            _ if lane != EMPTY => Some(unpack_time(lane)),
            _ => None,
        }
    }

    /// Pop the earliest event if it fires at or before `horizon`,
    /// advancing the clock to its timestamp. `None` means the next event
    /// (if any) lies beyond the horizon — the shard must re-synchronize
    /// before it may process further.
    #[inline]
    pub fn pop_within(&mut self, horizon: SimTime) -> Option<E> {
        let (i, lane_key) = self.first_lane();
        if lane_key < self.heap.peek_key().unwrap_or(EMPTY) {
            let at = unpack_time(lane_key);
            if at > horizon {
                return None;
            }
            let lane = &mut self.lanes[i];
            let (_, ev) = lane.pop_front().expect("a lane with a front key");
            self.fronts[i] = lane.front().map_or(EMPTY, |&(k, _)| k);
            self.now = at;
            return Some(ev);
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
        self.fronts = [EMPTY; LANES];
        for lane in &mut self.lanes {
            lane.clear();
        }
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
