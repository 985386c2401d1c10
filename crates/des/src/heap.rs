//! A 4-ary min-heap over packed `(time, sequence)` keys.
//!
//! The pending-event set of the [`Engine`](crate::engine::Engine) is a flat
//! pair of arrays: one `u128` key per entry (`time` in the high 64 bits,
//! the tie-breaking sequence number in the low 64) and one arena slot index.
//! Ordering a single integer instead of a struct keeps sift comparisons
//! branch-free, and the 4-ary layout halves the tree depth of a binary heap
//! — the shape that matters for the schedule-soon/pop-soon churn the MPI
//! protocol events produce, where entries rarely sink far.
//!
//! The sequence counter resets to zero whenever the heap drains, so long
//! campaigns reusing one engine cannot creep toward overflow and replays
//! restart from an identical sequence stream.

use crate::time::SimTime;

#[inline]
fn pack(at: SimTime, seq: u64) -> u128 {
    ((at.0 as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime((key >> 64) as u64)
}

/// The engine's pending-event set: a min-heap of `(key, slot)` pairs in
/// structure-of-arrays layout.
#[derive(Debug, Default)]
pub(crate) struct EventHeap {
    keys: Vec<u128>,
    slots: Vec<u32>,
    next_seq: u64,
}

impl EventHeap {
    pub(crate) fn new() -> Self {
        EventHeap::default()
    }

    pub(crate) fn with_capacity(n: usize) -> Self {
        EventHeap {
            keys: Vec::with_capacity(n),
            slots: Vec::with_capacity(n),
            next_seq: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Drop all entries but keep the allocations (engine reuse).
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
        self.slots.clear();
        self.next_seq = 0;
    }

    /// Insert `slot` to fire at `at`; ties fire in insertion order.
    #[inline]
    pub(crate) fn push(&mut self, at: SimTime, slot: u32) {
        let key = pack(at, self.next_seq);
        self.next_seq += 1;
        self.keys.push(key);
        self.slots.push(slot);
        self.sift_up(self.keys.len() - 1);
    }

    /// Insert `slot` under a caller-packed key (time in the high 64 bits,
    /// an arbitrary tie-breaker in the low 64). The sharded
    /// [`EventCore`](crate::core::EventCore) uses this to order events by a
    /// layout-invariant `(time, domain, sequence)` key instead of the
    /// engine-local insertion sequence; callers must keep coexisting keys
    /// distinct.
    #[inline]
    pub(crate) fn push_keyed(&mut self, key: u128, slot: u32) {
        self.keys.push(key);
        self.slots.push(slot);
        self.sift_up(self.keys.len() - 1);
    }

    /// Time of the earliest entry.
    #[inline]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.keys.first().map(|&k| unpack_time(k))
    }

    /// Packed key of the earliest entry.
    #[inline]
    pub(crate) fn peek_key(&self) -> Option<u128> {
        self.keys.first().copied()
    }

    /// Remove and return the earliest entry's `(time, slot)`.
    /// The engine itself always pops through [`EventHeap::pop_within`].
    #[cfg(test)]
    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let key = *self.keys.first()?;
        Some((unpack_time(key), self.remove_root()))
    }

    /// [`EventHeap::pop`], unless the earliest entry is after `horizon` (or
    /// the heap is empty): one root-key load answers both questions, so the
    /// event loop pays no separate peek per iteration.
    #[inline]
    pub(crate) fn pop_within(&mut self, horizon: SimTime) -> Option<(SimTime, u32)> {
        let key = *self.keys.first()?;
        let at = unpack_time(key);
        if at > horizon {
            return None;
        }
        Some((at, self.remove_root()))
    }

    /// Remove the root entry (which must exist), returning its slot.
    #[inline]
    fn remove_root(&mut self) -> u32 {
        let slot = self.slots[0];
        self.keys.swap_remove(0);
        self.slots.swap_remove(0);
        if !self.keys.is_empty() {
            self.sift_down(0);
        } else {
            // Fully drained: restart the sequence stream. Safe because only
            // coexisting entries need distinct sequence numbers.
            self.next_seq = 0;
        }
        slot
    }

    fn sift_up(&mut self, mut i: usize) {
        let key = self.keys[i];
        let slot = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.keys[parent] <= key {
                break;
            }
            self.keys[i] = self.keys[parent];
            self.slots[i] = self.slots[parent];
            i = parent;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        let key = self.keys[i];
        let slot = self.slots[i];
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            // min child: a full node uses a 2+1 comparison tournament (the
            // two halves race independently, shortening the dependency
            // chain); a partial node scans. Keys are unique, so ties never
            // arise and `<=`/`<` choices cannot change the result.
            let min_c = if first + 4 <= n {
                let c = &self.keys[first..first + 4];
                let lo = usize::from(c[1] < c[0]);
                let hi = 2 + usize::from(c[3] < c[2]);
                first + if c[hi] < c[lo] { hi } else { lo }
            } else {
                let mut m = first;
                for c in first + 1..n {
                    if self.keys[c] < self.keys[m] {
                        m = c;
                    }
                }
                m
            };
            let min_key = self.keys[min_c];
            if key <= min_key {
                break;
            }
            self.keys[i] = min_key;
            self.slots[i] = self.slots[min_c];
            i = min_c;
        }
        self.keys[i] = key;
        self.slots[i] = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_key_order() {
        let mut h = EventHeap::new();
        for (i, t) in [30u64, 10, 20, 10, 5].into_iter().enumerate() {
            h.push(SimTime(t), i as u32);
        }
        let mut order = Vec::new();
        while let Some((t, s)) = h.pop() {
            order.push((t.0, s));
        }
        // time-sorted, ties (the two t=10 entries) in insertion order
        assert_eq!(order, vec![(5, 4), (10, 1), (10, 3), (20, 2), (30, 0)]);
    }

    #[test]
    fn seq_resets_when_drained() {
        let mut h = EventHeap::new();
        h.push(SimTime(1), 0);
        h.push(SimTime(1), 1);
        assert_eq!(h.pop().unwrap().1, 0);
        assert_eq!(h.pop().unwrap().1, 1);
        assert_eq!(h.next_seq, 0, "drain must restart the sequence stream");
        // and ties still break in insertion order after the reset
        h.push(SimTime(2), 7);
        h.push(SimTime(2), 8);
        assert_eq!(h.pop().unwrap().1, 7);
        assert_eq!(h.pop().unwrap().1, 8);
    }

    #[test]
    fn random_interleaving_matches_sort() {
        let mut rng = crate::rng::RngStream::new(0x4EA9);
        for _ in 0..50 {
            let mut h = EventHeap::new();
            let n = 1 + rng.below(200) as usize;
            let mut expect: Vec<(u64, u32)> = Vec::new();
            for i in 0..n {
                let t = rng.below(50);
                h.push(SimTime(t), i as u32);
                expect.push((t, i as u32));
            }
            expect.sort(); // stable order == (time, insertion) order here
            let mut got = Vec::new();
            while let Some((t, s)) = h.pop() {
                got.push((t.0, s));
            }
            assert_eq!(got, expect);
        }
    }
}
