//! Property-based tests of the simulation kernel: event ordering,
//! resource FIFO invariants, statistics correctness. Runs on the
//! in-repo deterministic harness ([`desim::check`]).

#![allow(clippy::unwrap_used)]

use desim::check::forall;
use desim::{Engine, FifoResource, SimDuration, SimTime, SplitMix64, Summary};

/// Events fire in non-decreasing time order regardless of the
/// scheduling order, and all of them fire.
#[test]
fn events_fire_sorted() {
    forall("events fire sorted", 64, |g| {
        let times = g.vec_u64(1, 200, 0, 999_999);
        let mut engine: Engine<Vec<u64>> = Engine::new();
        for &t in &times {
            engine.schedule_at(
                SimTime::from_nanos(t),
                Box::new(move |s, w: &mut Vec<u64>| w.push(s.now().as_nanos())),
            );
        }
        let mut fired = Vec::new();
        let end = engine.run(&mut fired);
        assert_eq!(fired.len(), times.len());
        assert!(fired.windows(2).all(|w| w[0] <= w[1]));
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(&fired, &sorted);
        assert_eq!(end.as_nanos(), *sorted.last().unwrap());
    });
}

/// FIFO resource grants never overlap, preserve request order, and
/// account busy time exactly.
#[test]
fn resource_grants_never_overlap() {
    forall("resource grants never overlap", 64, |g| {
        let n = g.usize(1, 100);
        let mut reqs: Vec<(u64, u64)> = (0..n).map(|_| (g.u64(0, 9_999), g.u64(1, 499))).collect();
        // Requests must arrive in non-decreasing time order, as the
        // engine produces them.
        reqs.sort_by_key(|&(at, _)| at);
        let mut r = FifoResource::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for &(at, dur) in &reqs {
            let grant = r.acquire(SimTime::from_nanos(at), SimDuration::from_nanos(dur));
            assert!(grant.start >= prev_end, "grants overlap");
            assert!(
                grant.start >= SimTime::from_nanos(at),
                "served before request"
            );
            assert_eq!(grant.end - grant.start, SimDuration::from_nanos(dur));
            prev_end = grant.end;
            total += SimDuration::from_nanos(dur);
        }
        assert_eq!(r.busy_time(), total);
        assert_eq!(r.grants(), reqs.len() as u64);
        assert!(r.utilization(prev_end) <= 1.0 + f64::EPSILON);
    });
}

/// Welford summary matches naive two-pass statistics.
#[test]
fn summary_matches_naive() {
    forall("summary matches naive", 64, |g| {
        let xs = g.vec_f64(1, 500, -1e6, 1e6);
        let s: Summary = xs.iter().copied().collect();
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert_eq!(s.count(), xs.len() as u64);
        assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        assert!((s.variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
    });
}

/// Merged summaries equal bulk summaries.
#[test]
fn summary_merge_associative() {
    forall("summary merge associative", 64, |g| {
        let xs = g.vec_f64(0, 100, -1e3, 1e3);
        let ys = g.vec_f64(0, 100, -1e3, 1e3);
        let bulk: Summary = xs.iter().chain(&ys).copied().collect();
        let mut merged: Summary = xs.iter().copied().collect();
        merged.merge(&ys.iter().copied().collect());
        assert_eq!(merged.count(), bulk.count());
        if bulk.count() > 0 {
            assert!((merged.mean() - bulk.mean()).abs() < 1e-9 * (1.0 + bulk.mean().abs()));
            assert!((merged.variance() - bulk.variance()).abs() < 1e-6 * (1.0 + bulk.variance()));
        }
    });
}

/// The calendar-queue engine fires the exact same sequence as the
/// heap engine — including FIFO tie-breaking.
#[test]
fn calendar_engine_matches_heap() {
    forall("calendar engine matches heap", 64, |g| {
        let times = g.vec_u64(1, 300, 0, 4_999_999);
        let run = |mut engine: Engine<Vec<(u64, usize)>>| {
            let mut fired = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                engine.schedule_at(
                    SimTime::from_nanos(t),
                    Box::new(move |s, w: &mut Vec<(u64, usize)>| {
                        w.push((s.now().as_nanos(), i));
                    }),
                );
            }
            engine.run(&mut fired);
            fired
        };
        let heap = run(Engine::new());
        let calendar = run(Engine::with_calendar_queue());
        assert_eq!(heap, calendar);
    });
}

/// Calendar queue standalone: pops are globally sorted for any
/// workload, including cascading events.
#[test]
fn calendar_engine_cascading_events() {
    forall("calendar engine cascading events", 64, |g| {
        let seed = g.u64(0, u64::MAX);
        let mut engine: Engine<Vec<u64>> = Engine::with_calendar_queue();
        let mut rng = SplitMix64::new(seed);
        for _ in 0..20 {
            let t = rng.next_below(1_000);
            let gap = rng.next_below(100_000) + 1;
            engine.schedule_at(
                SimTime::from_nanos(t),
                Box::new(move |s, w: &mut Vec<u64>| {
                    w.push(s.now().as_nanos());
                    s.schedule_in(
                        SimDuration::from_nanos(gap),
                        Box::new(|s, w: &mut Vec<u64>| w.push(s.now().as_nanos())),
                    );
                }),
            );
        }
        let mut fired = Vec::new();
        engine.run(&mut fired);
        assert_eq!(fired.len(), 40);
        assert!(fired.windows(2).all(|w| w[0] <= w[1]));
    });
}

/// Mixed typed events, boxed closures, and slab continuations interleave
/// by (time, insertion order): the fired log is exactly a stable sort of
/// the scheduling plan by time, identical on both queue backends and
/// across same-seed reruns.
#[test]
fn mixed_typed_dyn_workload_is_deterministic() {
    use desim::{EventWorld, Scheduler, TypedEvent};

    #[derive(Default)]
    struct Log(Vec<(u64, usize)>);
    impl EventWorld for Log {
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
            match ev {
                TypedEvent::Timer { id } => self.0.push((s.now().as_nanos(), id as usize)),
                other => unreachable!("test posts only timers: {other:?}"),
            }
        }
    }

    forall("mixed typed/dyn workload deterministic", 64, |g| {
        let n = g.usize(1, 150);
        let plan: Vec<(u64, u32)> = (0..n).map(|_| (g.u64(0, 99_999), g.u32(0, 2))).collect();
        let run = |mut engine: Engine<Log>| {
            for (i, &(t, kind)) in plan.iter().enumerate() {
                let at = SimTime::from_nanos(t);
                match kind {
                    0 => engine.post_at(at, TypedEvent::Timer { id: i as u64 }),
                    1 => engine.schedule_at(
                        at,
                        Box::new(move |s, w: &mut Log| w.0.push((s.now().as_nanos(), i))),
                    ),
                    _ => engine.defer_at(
                        at,
                        Box::new(move |s: &mut Scheduler<Log>, w: &mut Log| {
                            w.0.push((s.now().as_nanos(), i));
                        }),
                    ),
                }
            }
            let mut log = Log::default();
            engine.run(&mut log);
            log.0
        };
        let heap = run(Engine::new());
        let calendar = run(Engine::with_calendar_queue());
        let rerun = run(Engine::new());
        let mut expect: Vec<(u64, usize)> =
            plan.iter().enumerate().map(|(i, &(t, _))| (t, i)).collect();
        expect.sort_by_key(|&(t, _)| t); // stable: ties keep insertion order
        assert_eq!(heap, expect);
        assert_eq!(heap, calendar);
        assert_eq!(heap, rerun);
    });
}

/// Engines passed by value into a closure, one fresh `Engine::new()` per
/// call, each start at time zero. This is the reduced form of a
/// release-only miscompile (rustc 1.95.0, MIR GVN): the second call
/// received the first call's moved-from engine, panicked with "cannot
/// schedule into the past", and aborted on a double free while
/// unwinding. The engine constructor is kept out of line so the two
/// values cannot be merged; run this test with `--release` to check.
#[test]
fn engines_built_in_sequence_start_fresh() {
    use desim::{EventWorld, Scheduler, TypedEvent};

    #[derive(Default)]
    struct Log(Vec<u64>);
    impl EventWorld for Log {
        fn dispatch(&mut self, s: &mut Scheduler<Self>, _ev: TypedEvent) {
            self.0.push(s.now().as_nanos());
        }
    }

    let plan = [5u64, 3];
    let run = |mut engine: Engine<Log>| {
        assert_eq!(engine.now(), SimTime::ZERO, "engine starts fresh");
        assert_eq!(engine.events_fired(), 0, "engine starts fresh");
        for &t in &plan {
            engine.post_at(SimTime::from_nanos(t), TypedEvent::Timer { id: 0 });
        }
        let mut log = Log::default();
        engine.run(&mut log);
        log.0
    };
    let first = run(Engine::new());
    let second = run(Engine::new());
    let third = run(Engine::new());
    assert_eq!(first, vec![3, 5]);
    assert_eq!(second, first);
    assert_eq!(third, first);
}

/// The RNG's bounded generator is uniform enough and in range.
#[test]
fn rng_bounded_in_range() {
    forall("rng bounded in range", 64, |g| {
        let seed = g.u64(0, u64::MAX);
        let bound = g.u64(1, 999);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..200 {
            assert!(rng.next_below(bound) < bound);
        }
    });
}

/// Time arithmetic: (a + d) - a == d and ordering is consistent.
#[test]
fn time_arithmetic_round_trips() {
    forall("time arithmetic round trips", 64, |g| {
        let a = g.u64(0, u64::MAX / 4);
        let d = g.u64(0, u64::MAX / 4);
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        assert_eq!((t + dur) - t, dur);
        assert!(t + dur >= t);
        assert_eq!(t.abs_diff(t + dur), dur);
    });
}
