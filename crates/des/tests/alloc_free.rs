//! The typed event loop is allocation-free at steady state.
//!
//! A per-thread counting global allocator wraps `System`; after one
//! warm-up round has grown the engine's heap and arena to the workload's
//! high-water mark, sustained schedule/cancel/pop churn must perform
//! **exactly zero** heap allocations — the free-list slab and the flat
//! 4-ary heap reuse their storage, and cancellation is a generation bump,
//! not a hash insert.

use harborsim_des::{Engine, Event, SimDuration};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Each test runs on its own thread
    /// and the code under test runs on the caller's, so a test's deltas
    /// never see allocations made by sibling tests running in parallel.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down has no counter left to bump
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

// SAFETY: delegates directly to `System`; the counter is a const-initialized
// thread-local `Cell`, which neither allocates nor registers a destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[derive(Clone, Copy)]
struct Tick;

impl Event<u64> for Tick {
    fn fire(self, _eng: &mut Engine<u64, Tick>, fired: &mut u64) {
        *fired += 1;
    }
}

/// One churn round: schedule `batch` cancellable events at staggered
/// times, cancel every third, drain.
fn churn_round(
    eng: &mut Engine<u64, Tick>,
    ids: &mut Vec<harborsim_des::EventId>,
    fired: &mut u64,
) {
    ids.clear();
    for i in 0..ids.capacity() as u64 {
        ids.push(eng.schedule_cancellable_event(SimDuration::from_nanos(997 * i % 1000), Tick));
    }
    for id in ids.iter().skip(1).step_by(3) {
        eng.cancel(*id);
    }
    eng.run(fired);
}

#[test]
fn typed_event_churn_allocates_exactly_zero_after_warmup() {
    const BATCH: usize = 512;
    let mut eng: Engine<u64, Tick> = Engine::new();
    let mut ids = Vec::with_capacity(BATCH);
    let mut fired = 0u64;
    // warm-up: grows the heap, arena, and id vector to the high-water mark
    churn_round(&mut eng, &mut ids, &mut fired);
    let before = allocations();
    for _ in 0..100 {
        churn_round(&mut eng, &mut ids, &mut fired);
    }
    let during = allocations() - before;
    assert!(fired > 0);
    assert_eq!(
        during, 0,
        "steady-state typed churn must not allocate (saw {during} allocations in 100 rounds)"
    );
}

#[test]
fn boxed_fallback_still_allocates_per_event() {
    // the convenience API trades a per-event Box for ergonomics; assert the
    // counter actually sees it so the zero above is known to be meaningful
    let mut eng: Engine<u64> = Engine::new();
    let mut fired = 0u64;
    let step = 1u64; // captured, so each closure is a real heap payload
    eng.schedule(SimDuration::from_nanos(1), move |_, f| *f += step);
    eng.run(&mut fired);
    let before = allocations();
    for _ in 0..10 {
        eng.schedule(SimDuration::from_nanos(1), move |_, f| *f += step);
    }
    eng.run(&mut fired);
    assert!(
        allocations() - before >= 10,
        "each boxed event carries a heap allocation"
    );
}
