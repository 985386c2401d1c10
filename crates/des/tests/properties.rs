//! Property-style tests of the DES kernel, driven by deterministic
//! [`RngStream`] case generation (seeded, reproducible, dependency-free).

use harborsim_des::{Engine, FluidLink, Resource, RngStream, SimDuration};

/// Deterministic replacement for proptest case generation.
fn cases(label: &str, n: u64) -> impl Iterator<Item = RngStream> {
    let root = RngStream::new(0xDE5_0001).derive(label);
    (0..n).map(move |i| root.derive_idx(i))
}

fn random_vec(rng: &mut RngStream, max_len: u64, max_val: u64) -> Vec<u64> {
    let len = 1 + rng.below(max_len);
    (0..len).map(|_| rng.below(max_val)).collect()
}

/// Events always execute in (time, schedule-order) sequence, whatever
/// order they were submitted in.
#[test]
fn event_order_is_time_then_fifo() {
    for mut rng in cases("event-order", 64) {
        let delays = random_vec(&mut rng, 200, 1_000);
        let mut eng: Engine<Vec<(u64, usize)>> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            eng.schedule(
                SimDuration::from_nanos(d),
                move |eng, log: &mut Vec<(u64, usize)>| {
                    log.push((eng.now().as_nanos(), i));
                },
            );
        }
        let mut log = Vec::new();
        eng.run(&mut log);
        assert_eq!(log.len(), delays.len());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "time must be monotone");
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "ties break by schedule order");
            }
        }
    }
}

/// A FIFO resource of capacity c serving n unit jobs of duration d
/// finishes at exactly ceil(n/c)*d.
#[test]
fn resource_makespan_exact() {
    for mut rng in cases("resource-makespan", 64) {
        let jobs = 1 + rng.below(59) as u32;
        let capacity = 1 + rng.below(7) as u32;
        struct St {
            res: Resource<St>,
            done: u32,
        }
        let mut eng: Engine<St> = Engine::new();
        let mut st = St {
            res: Resource::new(capacity),
            done: 0,
        };
        let hold = SimDuration::from_millis(10);
        for _ in 0..jobs {
            eng.schedule(SimDuration::ZERO, move |eng, st: &mut St| {
                st.res.acquire(eng, move |eng, _| {
                    eng.schedule(hold, move |eng, st: &mut St| {
                        st.done += 1;
                        st.res.release(eng);
                    });
                });
            });
        }
        eng.run(&mut st);
        assert_eq!(st.done, jobs);
        let waves = jobs.div_ceil(capacity) as u64;
        assert_eq!(eng.now().as_nanos(), waves * 10_000_000);
    }
}

/// Fair-share links conserve bytes and never exceed capacity.
#[test]
fn fluid_link_conserves() {
    for mut rng in cases("fluid-conserves", 64) {
        let n = 1 + rng.below(39);
        let sizes: Vec<f64> = (0..n).map(|_| rng.uniform_range(1.0, 1e6)).collect();
        struct St {
            link: FluidLink<St>,
            done: usize,
        }
        fn acc(s: &mut St) -> &mut FluidLink<St> {
            &mut s.link
        }
        let mut eng: Engine<St> = Engine::new();
        let mut st = St {
            link: FluidLink::new(1e6, acc),
            done: 0,
        };
        for (i, &bytes) in sizes.iter().enumerate() {
            eng.schedule(
                SimDuration::from_micros(i as u64 * 37),
                move |eng, st: &mut St| {
                    st.link.start_flow(eng, bytes, |_, st| st.done += 1);
                },
            );
        }
        eng.run(&mut st);
        assert_eq!(st.done, sizes.len());
        let total: f64 = sizes.iter().sum();
        assert!((st.link.bytes_completed() - total).abs() / total < 1e-6);
        // aggregate throughput bounded by capacity
        let makespan = eng.now().as_secs_f64();
        assert!(total / makespan <= 1e6 * (1.0 + 1e-9));
    }
}

/// RNG streams are reproducible and label-derivations independent of
/// consumption order.
#[test]
fn rng_substreams_stable() {
    for mut rng in cases("substreams", 64) {
        let seed = rng.next_u64();
        let len = 1 + rng.below(12) as usize;
        let label: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let root = RngStream::new(seed);
        let mut a = root.derive(&label);
        // consuming the parent's siblings must not perturb `a`
        let mut noise = root.derive("noise");
        let _ = noise.next_u64();
        let mut b = root.derive(&label);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// Differential test of the arena + 4-ary-heap engine against the retained
/// reference queue (the original `BinaryHeap` + tombstone-set design):
/// interleaved schedule/cancel/pop sequences must match event-for-event —
/// same labels, same fire times, same pending counts, same clock.
#[test]
fn arena_engine_matches_reference_queue() {
    use harborsim_des::queue::EventQueue;
    use harborsim_des::{EventId, SimTime};
    use std::collections::HashSet;

    for mut rng in cases("differential", 64) {
        // Reference model: the pre-arena engine semantics, spelled out.
        let mut refq: EventQueue<(u64, Option<u64>)> = EventQueue::new();
        let mut ref_cancelled: HashSet<u64> = HashSet::new();
        let mut ref_now = SimTime::ZERO;
        let mut ref_log: Vec<(u64, u64)> = Vec::new();
        let mut next_cid = 0u64;

        // Subject: the production engine.
        let mut eng: Engine<Vec<(u64, u64)>> = Engine::new();
        let mut eng_log: Vec<(u64, u64)> = Vec::new();
        let mut handles: Vec<(u64, EventId)> = Vec::new();

        let ref_pop = |refq: &mut EventQueue<(u64, Option<u64>)>,
                       ref_cancelled: &mut HashSet<u64>,
                       ref_now: &mut SimTime,
                       ref_log: &mut Vec<(u64, u64)>| {
            while let Some(s) = refq.pop() {
                let (label, cid) = s.payload;
                if let Some(c) = cid {
                    if ref_cancelled.remove(&c) {
                        continue; // tombstone
                    }
                }
                *ref_now = s.at;
                ref_log.push((label, s.at.as_nanos()));
                break;
            }
        };

        let steps = 50 + rng.below(150);
        let mut label = 0u64;
        for _ in 0..steps {
            match rng.below(4) {
                0 => {
                    let d = SimDuration::from_nanos(rng.below(1_000));
                    let l = label;
                    label += 1;
                    refq.push(ref_now + d, (l, None));
                    eng.schedule(d, move |e, log: &mut Vec<(u64, u64)>| {
                        log.push((l, e.now().as_nanos()))
                    });
                }
                1 => {
                    let d = SimDuration::from_nanos(rng.below(1_000));
                    let l = label;
                    label += 1;
                    let cid = next_cid;
                    next_cid += 1;
                    refq.push(ref_now + d, (l, Some(cid)));
                    let id = eng.schedule_cancellable(d, move |e, log: &mut Vec<(u64, u64)>| {
                        log.push((l, e.now().as_nanos()))
                    });
                    handles.push((cid, id));
                }
                2 => {
                    // cancel a random handle — possibly one that already
                    // fired or was already cancelled; both must no-op
                    if !handles.is_empty() {
                        let k = rng.below(handles.len() as u64) as usize;
                        let (cid, id) = handles[k];
                        ref_cancelled.insert(cid);
                        eng.cancel(id);
                    }
                }
                _ => {
                    ref_pop(&mut refq, &mut ref_cancelled, &mut ref_now, &mut ref_log);
                    eng.run_bounded(&mut eng_log, 1);
                }
            }
            assert_eq!(eng_log, ref_log);
            assert_eq!(eng.now(), ref_now);
            assert_eq!(eng.events_pending(), refq.len());
        }
        // drain both to the end
        while !refq.is_empty() {
            ref_pop(&mut refq, &mut ref_cancelled, &mut ref_now, &mut ref_log);
        }
        eng.run(&mut eng_log);
        assert_eq!(eng_log, ref_log);
        assert_eq!(eng.now(), ref_now);
    }
}

/// The keyed [`EventCore`](harborsim_des::EventCore) against a `BTreeMap`
/// reference. Random `schedule_keyed` calls draw most delays from a small
/// repeated menu (more distinct delays than the core has lanes, so lanes
/// fill, retag and overflow to the heap), the rest at random; ties come
/// either packed `(domain, per-domain sequence)` from several domains, so
/// equal-time keys arrive out of order, or from a small range that forces
/// out-of-order ties and key collisions (skipped: the core's contract is
/// that coexisting keys are distinct). They interleave with `pop_within`
/// under horizons near, far, and just below the next event. Both must pop
/// the same event at the same clock, with the same pending count and
/// minimum time, step for step.
#[test]
fn event_core_matches_btreemap_reference() {
    use harborsim_des::{EventCore, SimTime};
    use std::collections::btree_map::{BTreeMap, Entry};

    const DELAYS: [u64; 12] = [
        0, 0, 0, 1, 150, 300, 300, 6_000, 8_000, 10_000, 10_000, 55_000,
    ];
    for mut rng in cases("event-core", 128) {
        let mut core: EventCore<u64> = EventCore::new();
        let mut reference: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut now = 0u64;
        let mut seq = [0u64; 4];
        let steps = 100 + rng.below(600);
        for label in 0..steps {
            match rng.below(8) {
                0..=4 => {
                    let at = now
                        + match rng.below(4) {
                            0 => rng.below(1_000),
                            _ => DELAYS[rng.below(DELAYS.len() as u64) as usize],
                        };
                    let tie = if rng.below(2) == 0 {
                        let d = rng.below(4) as usize;
                        seq[d] += 1;
                        ((d as u64 + 1) << 32) | seq[d]
                    } else {
                        rng.below(64)
                    };
                    if let Entry::Vacant(slot) = reference.entry((at, tie)) {
                        slot.insert(label);
                        core.schedule_keyed(SimTime(at), tie, label);
                    }
                }
                5 => {
                    if rng.below(32) == 0 {
                        core.reset();
                        reference.clear();
                        now = 0;
                    }
                }
                _ => {
                    let next = reference.keys().next().map_or(now, |&(at, _)| at);
                    let horizon = match rng.below(4) {
                        0 => now + rng.below(200),
                        1 => now + rng.below(20_000),
                        2 => next.saturating_sub(1).max(now),
                        _ => now + 100_000,
                    };
                    let expect = match reference.first_key_value() {
                        Some((&(at, tie), _)) if at <= horizon => {
                            now = at;
                            reference.remove(&(at, tie))
                        }
                        _ => None,
                    };
                    assert_eq!(core.pop_within(SimTime(horizon)), expect);
                }
            }
            assert_eq!(core.now(), SimTime(now));
            assert_eq!(core.len(), reference.len());
            assert_eq!(
                core.min_time(),
                reference.keys().next().map(|&(at, _)| SimTime(at))
            );
        }
        while let Some(((at, _), label)) = reference.pop_first() {
            assert_eq!(core.pop_within(SimTime::MAX), Some(label));
            assert_eq!(core.now(), SimTime(at));
        }
        assert!(core.is_empty());
        assert_eq!(core.pop_within(SimTime::MAX), None);
    }
}

/// Engine determinism: identical schedules produce identical histories.
#[test]
fn engine_is_deterministic() {
    for mut rng in cases("determinism", 64) {
        let delays = random_vec(&mut rng, 100, 10_000);
        let run = |delays: &[u64]| -> (u64, u64) {
            let mut eng: Engine<u64> = Engine::new();
            for &d in delays {
                eng.schedule(SimDuration::from_nanos(d), move |eng, acc: &mut u64| {
                    *acc = acc.wrapping_mul(31).wrapping_add(eng.now().as_nanos());
                });
            }
            let mut acc = 0;
            eng.run(&mut acc);
            (acc, eng.now().as_nanos())
        };
        assert_eq!(run(&delays), run(&delays));
    }
}
