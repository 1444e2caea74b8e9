//! Property-based tests of the simulation kernel: event ordering and
//! queue high water against a reference that keeps every pending event
//! in one list, whichever lane or heap the engine holds it in; resource
//! FIFO invariants. Runs on the in-repo deterministic harness
//! ([`desim::check`]).

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
    run_phases(engine, &[], children)
}

/// Root timers `(instant, id)` posted from outside the engine, in order,
/// and the deadline the engine then runs until.
type Phase = (Vec<(u64, u64)>, u64);

/// Runs the plan phase by phase: each phase posts its roots and runs
/// the engine until its deadline; then the engine runs to completion.
/// Returns the fired `(instant, id)` sequence.
fn run_phases(engine: &mut Engine<Plan>, phases: &[Phase], children: &Children) -> Vec<(u64, u64)> {
    let mut plan = Plan {
        children: children.clone(),
        fired: Vec::new(),
    };
    for (roots, deadline) in phases {
        for &(t, id) in roots {
            engine.post_at(SimTime::from_nanos(t), TypedEvent::Timer { id });
        }
        engine.run_until(&mut plan, SimTime::from_nanos(*deadline));
    }
    engine.run(&mut plan);
    plan.fired
}

/// A plan run without the engine: pending events `(instant, seq, id)`
/// fire least `(instant, seq)` first, a post taking the next seq.
#[derive(Default)]
struct Reference {
    pending: Vec<(u64, u64, u64)>,
    next_seq: u64,
    /// Fired `(instant, id)`, in firing order.
    fired: Vec<(u64, u64)>,
    /// The seq of each fired event, and how many posts preceded its
    /// firing: the events pending when it fired have lower seqs.
    seqs: Vec<u64>,
    posted: Vec<u64>,
    /// Most events pending at once, counted after each post from
    /// outside and after each firing's posts.
    peak: usize,
    /// An armed same-instant swap `(instant, first seq, second seq)`,
    /// and whether it engaged.
    swap: Option<(u64, u64, u64)>,
    swapped: bool,
}

impl Reference {
    fn post(&mut self, t: u64, id: u64) {
        self.pending.push((t, self.next_seq, id));
        self.next_seq += 1;
    }

    fn least(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn fire(&mut self, (t, seq, id): (u64, u64, u64), children: &Children) {
        self.fired.push((t, id));
        self.seqs.push(seq);
        self.posted.push(self.next_seq);
        for &(delay, child) in &children[id as usize] {
            self.post(t + delay, child);
        }
        self.peak = self.peak.max(self.pending.len());
    }

    /// Where the armed swap's second event is pending, when `ev` is its
    /// first event and the second is next.
    fn swap_partner(&self, (t, seq, _): (u64, u64, u64)) -> Option<usize> {
        let (at, first, second) = self.swap.filter(|_| !self.swapped)?;
        let j = self.least()?;
        let next = (self.pending[j].0, self.pending[j].1);
        ((t, seq) == (at, first) && next == (at, second)).then_some(j)
    }

    /// Fires every event due by `deadline`, the armed swap included.
    fn fire_until(&mut self, deadline: u64, children: &Children) {
        while let Some(i) = self.least().filter(|&i| self.pending[i].0 <= deadline) {
            let ev = self.pending.swap_remove(i);
            if let Some(j) = self.swap_partner(ev) {
                self.swapped = true;
                let partner = self.pending.swap_remove(j);
                self.fire(partner, children);
            }
            self.fire(ev, children);
        }
    }
}

/// The firing order of a phased plan, computed without the engine, with
/// an optional same-instant swap armed.
fn reference_order(
    phases: &[Phase],
    children: &Children,
    swap: Option<(u64, u64, u64)>,
) -> Reference {
    let mut r = Reference {
        swap,
        ..Reference::default()
    };
    for (roots, deadline) in phases {
        for &(t, id) in roots {
            r.post(t, id);
            r.peak = r.peak.max(r.pending.len());
        }
        r.fire_until(*deadline, children);
    }
    r.fire_until(u64::MAX, children);
    r
}

/// The firing order of a plan whose roots are all posted up front.
fn reference_fired(roots: &[(u64, u64)], children: &Children) -> Vec<(u64, u64)> {
    reference_order(&[(roots.to_vec(), u64::MAX)], children, None).fired
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

/// A random plan of up to 300 timers whose delays mix a few repeated
/// values with wide random ones. The palette of repeated delays has one
/// to seven values, so there are sometimes more of them than the engine
/// has lanes; lanes drain and are re-keyed, and wide delays spill to
/// the heap. Roots arrive in one to four phases, each posted from
/// outside the engine at or after the previous phase's deadline.
fn mixed_plan(g: &mut Gen) -> (Vec<Phase>, Children) {
    let n = g.usize(1, 300);
    let roots = g.usize(1, n.min(60));
    let palette: Vec<u64> = (0..g.usize(1, 7)).map(|_| g.u64(0, 40)).collect();
    let mut children = vec![Vec::new(); n];
    for id in roots..n {
        let parent = g.usize(0, id - 1);
        let delay = if g.usize(0, 3) == 0 {
            g.u64(0, 2_000)
        } else {
            *g.pick(&palette)
        };
        children[parent].push((delay, id as u64));
    }
    let mut phases = Vec::new();
    let (mut id, mut from) = (0, 0);
    while id < roots as u64 {
        let last = if phases.len() == 3 {
            roots as u64
        } else {
            g.u64(id + 1, roots as u64)
        };
        let batch = (id..last).map(|id| (from + g.u64(0, 300), id)).collect();
        let deadline = from + g.u64(0, 400);
        phases.push((batch, deadline));
        (id, from) = (last, deadline);
    }
    (phases, children)
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
        assert_eq!(fired, reference_fired(&roots, &children));

        // Flat: root `id` is posted `id`-th, so its seq is its id.
        let flat = vec![Vec::new(); roots.len()];
        let base = run_plan(&mut Engine::new(), &roots, &flat);
        assert_eq!(base, reference_fired(&roots, &flat));
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

/// The pending set against the reference on plans that mix repeated
/// and wide delays and post roots between `run_until` deadlines: the
/// firing order and the queue high water match, and a tie swap aimed at
/// any adjacent same-instant pair, wherever the two events are held,
/// gives the reference's swapped order.
#[test]
fn mixed_delays_fire_in_reference_order() {
    forall("mixed delays fire in reference order", 96, |g| {
        let (phases, children) = mixed_plan(g);
        let mut engine = Engine::new();
        let fired = run_phases(&mut engine, &phases, &children);
        let reference = reference_order(&phases, &children, None);
        assert_eq!(fired.len(), children.len(), "every event fires once");
        assert_eq!(fired, reference.fired);
        assert_eq!(engine.queue_high_water(), reference.peak);

        // A swappable pair fires back to back at one instant, the second
        // already pending when the first fires: not its child, and not
        // a root posted after the phase that fired the first.
        let (seqs, posted) = (&reference.seqs, &reference.posted);
        let ties: Vec<usize> = (1..fired.len())
            .filter(|&i| fired[i - 1].0 == fired[i].0 && seqs[i] < posted[i - 1])
            .collect();
        if ties.is_empty() {
            return;
        }
        let i = *g.pick(&ties);
        let swap = (fired[i].0, seqs[i - 1], seqs[i]);
        let mut engine = Engine::new().with_tie_swap(SimTime::from_nanos(swap.0), swap.1, swap.2);
        let swapped = run_phases(&mut engine, &phases, &children);
        let expect = reference_order(&phases, &children, Some(swap));
        assert!(expect.swapped);
        assert_eq!(engine.tie_swap_applied(), Some(true));
        assert_eq!(swapped, expect.fired);
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
