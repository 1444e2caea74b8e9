//! Property-based tests of the simulation kernel: event ordering,
//! resource FIFO invariants. Runs on the
//! in-repo deterministic harness ([`desim::check`]).

#![allow(clippy::unwrap_used)]

use desim::check::{forall, Gen};
use desim::{
    Engine, EventWorld, FifoResource, Scheduler, SimDuration, SimTime, SplitMix64, TypedEvent,
};

/// `children[id]`: the `(delay_ns, child_id)` posts timer `id` makes
/// when it fires.
type Children = Vec<Vec<(u64, u64)>>;

/// A world driven by a plan: every fired `Timer { id }` is logged as
/// `(instant, id)` and posts the timer's children, in order, at their
/// delays.
struct Plan {
    children: Children,
    fired: Vec<(u64, u64)>,
}

impl EventWorld for Plan {
    fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
        let TypedEvent::Timer { id } = ev else {
            unreachable!("plans post only timers: {ev:?}")
        };
        self.fired.push((s.now().as_nanos(), id));
        for &(delay, child) in &self.children[id as usize] {
            s.post_in(
                SimDuration::from_nanos(delay),
                TypedEvent::Timer { id: child },
            );
        }
    }
}

/// Posts `roots` (`(instant, id)`, in order) and runs the plan to
/// completion; returns the fired `(instant, id)` sequence.
fn run_plan(
    engine: &mut Engine<Plan>,
    roots: &[(u64, u64)],
    children: &Children,
) -> Vec<(u64, u64)> {
    for &(t, id) in roots {
        engine.post_at(SimTime::from_nanos(t), TypedEvent::Timer { id });
    }
    let mut plan = Plan {
        children: children.clone(),
        fired: Vec::new(),
    };
    engine.run(&mut plan);
    plan.fired
}

/// The firing order of a plan computed without the engine: repeatedly
/// fire the pending event with the least `(instant, scheduling order)`,
/// appending its children to the scheduling order as it fires.
fn reference_order(roots: &[(u64, u64)], children: &Children) -> Vec<(u64, u64)> {
    let mut pending: Vec<(u64, usize, u64)> = roots
        .iter()
        .enumerate()
        .map(|(order, &(t, id))| (t, order, id))
        .collect();
    let mut next_order = pending.len();
    let mut fired = Vec::new();
    while let Some(i) = (0..pending.len()).min_by_key(|&i| (pending[i].0, pending[i].1)) {
        let (t, _, id) = pending.swap_remove(i);
        fired.push((t, id));
        for &(delay, child) in &children[id as usize] {
            pending.push((t + delay, next_order, child));
            next_order += 1;
        }
    }
    fired
}

/// A random plan of up to 200 timers: the first few are roots posted up
/// front at instants in `0..=30` ns; every later timer is a child of a
/// random earlier one, posted `0..=5` ns after its parent fires. The
/// small ranges make same-instant ties common, including a child tying
/// with events already pending.
fn random_plan(g: &mut Gen) -> (Vec<(u64, u64)>, Children) {
    let n = g.usize(1, 200);
    let roots = g.usize(1, n);
    let plan_roots = (0..roots as u64).map(|id| (g.u64(0, 30), id)).collect();
    let mut children = vec![Vec::new(); n];
    for id in roots..n {
        let parent = g.usize(0, id - 1);
        children[parent].push((g.u64(0, 5), id as u64));
    }
    (plan_roots, children)
}

/// Events fire in non-decreasing time order regardless of the
/// scheduling order, and all of them fire.
#[test]
fn events_fire_sorted() {
    forall("events fire sorted", 64, |g| {
        let times = g.vec_u64(1, 200, 0, 999_999);
        let roots: Vec<(u64, u64)> = times.iter().map(|&t| (t, 0)).collect();
        let mut engine = Engine::new();
        let fired = run_plan(&mut engine, &roots, &vec![Vec::new()]);
        let fired: Vec<u64> = fired.into_iter().map(|(t, _)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(fired, sorted);
        assert_eq!(engine.now().as_nanos(), *sorted.last().unwrap());
    });
}

/// The engine's ordering contract: events fire by instant, and
/// same-instant events in the order they were scheduled — including
/// children posted while their parent fires. On flat plans (no
/// children), a tie swap aimed at any adjacent same-instant pair
/// transposes exactly that pair.
#[test]
fn firing_order_is_time_then_scheduling_order() {
    forall("firing order is time then scheduling order", 64, |g| {
        let (roots, children) = random_plan(g);
        let fired = run_plan(&mut Engine::new(), &roots, &children);
        assert_eq!(fired.len(), children.len(), "every event fires once");
        assert_eq!(fired, reference_order(&roots, &children));

        // Flat: root `id` is posted `id`-th, so its seq is its id.
        let flat = vec![Vec::new(); roots.len()];
        let base = run_plan(&mut Engine::new(), &roots, &flat);
        assert_eq!(base, reference_order(&roots, &flat));
        let ties: Vec<usize> = (1..base.len())
            .filter(|&i| base[i - 1].0 == base[i].0)
            .collect();
        if ties.is_empty() {
            return;
        }
        let i = *g.pick(&ties);
        let ((at, first), (_, second)) = (base[i - 1], base[i]);
        let mut engine = Engine::new().with_tie_swap(SimTime::from_nanos(at), first, second);
        let swapped = run_plan(&mut engine, &roots, &flat);
        assert_eq!(engine.tie_swap_applied(), Some(true));
        let mut expect = base;
        expect.swap(i - 1, i);
        assert_eq!(swapped, expect);
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
            let service = SimDuration::from_nanos(dur);
            let start = r.acquire(SimTime::from_nanos(at), service);
            assert!(start >= prev_end, "grants overlap");
            assert!(start >= SimTime::from_nanos(at), "served before request");
            prev_end = start + service;
            total += service;
        }
        assert_eq!(r.busy_time(), total);
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
