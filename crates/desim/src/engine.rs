//! The discrete-event engine.
//!
//! [`Engine`] owns a time-ordered event queue and a monotonically advancing
//! clock over a user-supplied *world* type `W` (the mutable simulation
//! state). Events are plain-data [`TypedEvent`]s, stored inline in a
//! binary heap and dispatched through the world's [`EventWorld::dispatch`]
//! `match`: no allocation and no indirect call per event. Firing an event
//! may schedule further events. Ties in firing time break by insertion
//! order, which makes every run deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::event::{EventStats, EventWorld, TypedEvent};
use crate::eventlog::EventLog;
use crate::provenance::{Provenance, ROOT};
use crate::time::{SimDuration, SimTime};

/// One pending event: when it fires, its insertion sequence number (the
/// same-instant tie-break), and its payload.
pub(crate) struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: TypedEvent,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The part of the engine visible to a firing event: the clock and the
/// pending-event queue it posts into.
///
/// Split from [`Engine`] so a firing event can post and read the clock
/// but cannot step the engine or touch its instrumentation. `W` is the
/// world type the queued events are dispatched to.
pub struct Scheduler<W> {
    now: SimTime,
    next_seq: u64,
    queue: BinaryHeap<Scheduled>,
    /// Causal-parent log, `None` (the default) unless the engine was
    /// built [`Engine::with_provenance`] — one branch per push when off.
    prov: Option<Box<Provenance>>,
    /// Sequence number of the event currently being dispatched, or
    /// [`ROOT`] outside dispatch. Only maintained when `prov` is on.
    current: u64,
    world: PhantomData<fn(&mut W)>,
}

impl<W> Scheduler<W> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Posts an event to fire after `delay`. The event is stored inline
    /// in the queue and dispatched through [`EventWorld::dispatch`].
    pub fn post_in(&mut self, delay: SimDuration, ev: TypedEvent) {
        let at = self.now + delay;
        self.post_at(at, ev);
    }

    /// Posts an event at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — simulated time never rewinds.
    pub fn post_at(&mut self, at: SimTime, ev: TypedEvent) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(p) = &mut self.prov {
            // Records are indexed by seq: seqs are assigned here, in push
            // order, so the Vec index and the sequence number coincide.
            p.record(self.current, at);
        }
        self.queue.push(Scheduled { at, seq, ev });
    }
}

/// A targeted same-instant inversion: fire the event with seq `second`
/// *before* the event with seq `first` at instant `at_ns`, leaving every
/// other firing decision untouched. This is the minimal perturbation the
/// commutativity explorer (`ordercheck`) replays — one adjacent
/// transposition in an otherwise identical run.
#[derive(Debug, Clone, Copy)]
struct TieSwap {
    at_ns: u64,
    first: u64,
    second: u64,
    applied: bool,
}

/// A deterministic discrete-event simulation engine over world state `W`.
///
/// The world implements [`EventWorld`] and receives every event through
/// its `dispatch` match.
///
/// # Examples
///
/// ```
/// use desim::{Engine, EventWorld, Scheduler, SimDuration, TypedEvent};
///
/// #[derive(Default)]
/// struct World {
///     hits: Vec<u64>,
/// }
///
/// impl EventWorld for World {
///     fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
///         let TypedEvent::Timer { id } = ev else { unreachable!() };
///         self.hits.push(s.now().as_nanos());
///         if id == 0 {
///             // Firing an event may post more events — allocation-free.
///             s.post_in(SimDuration::from_nanos(10), TypedEvent::Timer { id: 1 });
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// let mut world = World::default();
/// engine.post_in(SimDuration::from_nanos(5), TypedEvent::Timer { id: 0 });
/// engine.run(&mut world);
/// assert_eq!(world.hits, vec![5, 15]);
/// ```
pub struct Engine<W> {
    scheduler: Scheduler<W>,
    fired: u64,
    event_limit: u64,
    queue_high_water: usize,
    /// Canonical fired-event log; `None` (the default) costs one branch
    /// per step. See [`Engine::with_event_log`].
    elog: Option<Box<EventLog>>,
    /// Targeted same-instant inversion; `None` (the default) costs one
    /// branch per step. See [`Engine::with_tie_swap`].
    swap: Option<TieSwap>,
    /// The deferred half of an engaged tie swap: popped first, fired
    /// second.
    held: Option<Scheduled>,
    /// Last `(time_ns, seq)` the queue yielded, for the pop-order
    /// invariant check (debug builds only): pops must be strictly
    /// increasing — ties break by insertion order.
    #[cfg(debug_assertions)]
    last_pop: Option<(u64, u64)>,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// Default cap on fired events; a backstop against runaway simulations.
    pub const DEFAULT_EVENT_LIMIT: u64 = 2_000_000_000;

    /// Creates an empty engine with the clock at time zero.
    //
    // Never inlined: a call is opaque to MIR value numbering. rustc
    // 1.95.0's GVN pass otherwise treats two `Engine::new()` values as
    // one, and a closure taking an engine by value, called twice with
    // `Engine::new()`, gets the first call's moved-from, mutated engine
    // the second time: it runs on stale state and frees the queue twice
    // (`free(): double free` in release builds). The shape is reproduced
    // by `engines_built_in_sequence_start_fresh` in
    // `tests/proptest_engine.rs`.
    #[inline(never)]
    pub fn new() -> Self {
        Engine {
            scheduler: Scheduler {
                now: SimTime::ZERO,
                next_seq: 0,
                queue: BinaryHeap::new(),
                prov: None,
                current: ROOT,
                world: PhantomData,
            },
            fired: 0,
            event_limit: Self::DEFAULT_EVENT_LIMIT,
            queue_high_water: 0,
            elog: None,
            swap: None,
            held: None,
            #[cfg(debug_assertions)]
            last_pop: None,
        }
    }

    /// Replaces the runaway-event backstop (default
    /// [`Engine::DEFAULT_EVENT_LIMIT`]).
    pub fn with_event_limit(mut self, limit: u64) -> Self {
        self.event_limit = limit;
        self
    }

    /// Enables causal provenance recording: every scheduled event gets a
    /// compact parent edge (the seq of the event firing when it was
    /// scheduled). Recording never perturbs the simulation —
    /// timing, ordering, and [`EventStats`] are identical on and off.
    ///
    /// `capacity` records are allocated up front; a caller that knows an
    /// upper bound on the events the run schedules passes it, so the log
    /// never regrows. More records still fit, at the cost of a regrowth.
    pub fn with_provenance(mut self, capacity: usize) -> Self {
        self.scheduler.prov = Some(Box::new(Provenance::with_capacity(capacity)));
        self
    }

    /// Moves the collected causal-parent log out, for a caller done
    /// running the engine; `None` unless built
    /// [`Engine::with_provenance`]. Recording stops, and later calls
    /// return `None`.
    pub fn take_provenance(&mut self) -> Option<Provenance> {
        self.scheduler.prov.take().map(|p| *p)
    }

    /// Enables canonical event logging: every *fired* event is recorded
    /// as a compact `(seq, at, kind, a, b)` tuple in firing order — the
    /// stream `obs::diff` aligns when comparing two runs. Like
    /// provenance, recording never perturbs the simulation, and
    /// `capacity` entries are allocated up front.
    pub fn with_event_log(mut self, capacity: usize) -> Self {
        self.elog = Some(Box::new(EventLog::with_capacity(capacity)));
        self
    }

    /// Moves the collected fired-event log out, for a caller done
    /// running the engine; `None` unless built
    /// [`Engine::with_event_log`]. Logging stops, and later calls return
    /// `None`.
    pub fn take_event_log(&mut self) -> Option<EventLog> {
        self.elog.take().map(|l| *l)
    }

    /// Arms a targeted same-instant inversion: when the event with seq
    /// `first` is popped at instant `at` and the next pending event is
    /// the one with seq `second` at the same instant, the two fire in
    /// swapped order. Everything else — timing, all other ties — is
    /// untouched, so the run is the minimal adjacent transposition of
    /// the unperturbed one. Used by the `ordercheck` commutativity
    /// explorer; like the other instrumentation switches, `None` (the
    /// default) costs one branch per step.
    pub fn with_tie_swap(mut self, at: SimTime, first_seq: u64, second_seq: u64) -> Self {
        self.swap = Some(TieSwap {
            at_ns: at.as_nanos(),
            first: first_seq,
            second: second_seq,
            applied: false,
        });
        self
    }

    /// Whether the armed tie swap actually fired: `None` when no swap
    /// was requested, `Some(false)` when the targeted pair never
    /// appeared adjacently at the given instant (the run was NOT
    /// perturbed), `Some(true)` when the inversion was applied.
    pub fn tie_swap_applied(&self) -> Option<bool> {
        self.swap.map(|s| s.applied)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now
    }

    /// Number of events fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Largest number of simultaneously pending events seen so far —
    /// the queue-depth high-water mark, sampled after each post from
    /// outside the engine and at the end of each step.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.scheduler.queue.is_empty() && self.held.is_none()
    }

    /// Posts an event after `delay` from the current clock (see
    /// [`Scheduler::post_in`]).
    pub fn post_in(&mut self, delay: SimDuration, ev: TypedEvent) {
        self.scheduler.post_in(delay, ev);
        self.note_high_water();
    }

    /// Posts an event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn post_at(&mut self, at: SimTime, ev: TypedEvent) {
        self.scheduler.post_at(at, ev);
        self.note_high_water();
    }

    /// How many events entered the queue so far (the
    /// `engine.alloc.typed_events` counter).
    pub fn event_stats(&self) -> EventStats {
        EventStats {
            typed: self.scheduler.next_seq,
        }
    }

    fn note_high_water(&mut self) {
        self.queue_high_water = self.queue_high_water.max(self.scheduler.queue.len());
    }
}

impl<W: EventWorld> Engine<W> {
    /// Fires the single earliest event, advancing the clock to its
    /// timestamp. Returns `false` when the queue is empty.
    ///
    /// # Panics
    ///
    /// Panics if the event-count backstop is exceeded.
    pub fn step(&mut self, world: &mut W) -> bool {
        let ev = match self.held.take() {
            Some(held) => held,
            None => {
                let Some(popped) = self.pop_checked() else {
                    return false;
                };
                self.maybe_swap(popped)
            }
        };
        assert!(
            self.fired < self.event_limit,
            "event limit {} exceeded — runaway simulation?",
            self.event_limit
        );
        self.fired += 1;
        self.scheduler.now = ev.at;
        if let Some(p) = &mut self.scheduler.prov {
            p.mark_fired(ev.seq);
            self.scheduler.current = ev.seq;
        }
        if let Some(log) = &mut self.elog {
            let (kind, a, b) = crate::eventlog::encode(&ev.ev);
            log.record(ev.seq, ev.at, kind, a, b);
        }
        world.dispatch(&mut self.scheduler, ev.ev);
        if self.scheduler.prov.is_some() {
            // Anything scheduled between steps (from outside dispatch)
            // is a fresh root stimulus.
            self.scheduler.current = ROOT;
        }
        // Dispatch only adds events, so the queue is deepest now.
        self.note_high_water();
        true
    }

    /// Pops the earliest pending event, checking (in debug builds) the
    /// engine's ordering invariant: successive pops yield strictly
    /// increasing `(time_ns, seq)` — ties break by insertion order. A
    /// queue refactor that breaks this fails loudly in tests instead of
    /// via silent trace drift.
    fn pop_checked(&mut self) -> Option<Scheduled> {
        let ev = self.scheduler.queue.pop()?;
        #[cfg(debug_assertions)]
        {
            let key = (ev.at.as_nanos(), ev.seq);
            if let Some(last) = self.last_pop {
                debug_assert!(
                    key > last,
                    "queue pop order violated the insertion-order tie-break: \
                     popped (t={}ns, seq={}) after (t={}ns, seq={})",
                    key.0,
                    key.1,
                    last.0,
                    last.1
                );
            }
            self.last_pop = Some(key);
        }
        Some(ev)
    }

    /// If `ev` is the first half of the armed tie swap and its partner
    /// is the immediately next pending event at the same instant, holds
    /// `ev` for the following step and returns the partner to fire
    /// first. Otherwise returns `ev` unchanged.
    fn maybe_swap(&mut self, ev: Scheduled) -> Scheduled {
        let Some(swap) = self.swap else {
            return ev;
        };
        if swap.applied || ev.at.as_nanos() != swap.at_ns || ev.seq != swap.first {
            return ev;
        }
        #[cfg(debug_assertions)]
        let before = self.last_pop;
        match self.pop_checked() {
            Some(partner) if partner.at == ev.at && partner.seq == swap.second => {
                if let Some(s) = &mut self.swap {
                    s.applied = true;
                }
                self.held = Some(ev);
                partner
            }
            Some(other) => {
                // Not the targeted partner — push it back untouched (the
                // re-pop of the same key is exempt from the ordering
                // invariant).
                #[cfg(debug_assertions)]
                {
                    self.last_pop = before;
                }
                self.scheduler.queue.push(other);
                ev
            }
            None => ev,
        }
    }

    /// Runs until no events remain. Returns the final clock value.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        while self.step(world) {}
        self.now()
    }

    /// Runs until the clock would pass `deadline` or the queue empties.
    /// Events at exactly `deadline` do fire.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        loop {
            let at = match (&self.held, self.scheduler.queue.peek()) {
                (Some(h), _) => h.at,
                (None, Some(ev)) => ev.at,
                (None, None) => break,
            };
            if at > deadline {
                break;
            }
            self.step(world);
        }
        if self.scheduler.now < deadline && self.is_idle() {
            // Idle until the deadline.
            self.scheduler.now = deadline;
        }
        self.now()
    }
}

impl<W> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.scheduler.now)
            .field("queued", &self.scheduler.queue.len())
            .field("fired", &self.fired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logs every fired event with its instant. With `countdown` set, a
    /// `Timer { id }` with `id > 0` posts `Timer { id: id - 1 }` that
    /// many nanoseconds later.
    #[derive(Default)]
    struct Log {
        fired: Vec<(u64, TypedEvent)>,
        countdown: Option<u64>,
    }

    impl Log {
        /// `(instant, id)` per fired timer.
        fn timers(&self) -> Vec<(u64, u64)> {
            self.fired
                .iter()
                .map(|&(t, ev)| match ev {
                    TypedEvent::Timer { id } => (t, id),
                    other => panic!("expected a timer, fired {other:?}"),
                })
                .collect()
        }

        /// Fired timer ids in firing order.
        fn ids(&self) -> Vec<u64> {
            self.timers().into_iter().map(|(_, id)| id).collect()
        }
    }

    impl EventWorld for Log {
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
            self.fired.push((s.now().as_nanos(), ev));
            if let (TypedEvent::Timer { id }, Some(delay)) = (ev, self.countdown) {
                if id > 0 {
                    s.post_in(
                        SimDuration::from_nanos(delay),
                        TypedEvent::Timer { id: id - 1 },
                    );
                }
            }
        }
    }

    fn timer(e: &mut Engine<Log>, at: u64, id: u64) {
        e.post_at(SimTime::from_nanos(at), TypedEvent::Timer { id });
    }

    #[test]
    fn fires_in_time_order() {
        let mut e = Engine::new();
        let mut w = Log::default();
        timer(&mut e, 30, 3);
        timer(&mut e, 10, 1);
        timer(&mut e, 20, 2);
        e.run(&mut w);
        assert_eq!(w.timers(), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new();
        let mut w = Log::default();
        for id in [7, 3, 5] {
            timer(&mut e, 5, id);
        }
        e.run(&mut w);
        assert_eq!(w.ids(), vec![7, 3, 5]);
    }

    #[test]
    fn tie_swap_inverts_exactly_one_adjacent_pair() {
        let mut e = Engine::new().with_tie_swap(SimTime::from_nanos(5), 0, 1);
        let mut w = Log::default();
        for id in [1, 2, 3] {
            timer(&mut e, 5, id);
        }
        e.run(&mut w);
        assert_eq!(w.ids(), vec![2, 1, 3]);
        assert_eq!(e.tie_swap_applied(), Some(true));
    }

    #[test]
    fn tie_swap_missing_partner_leaves_run_untouched() {
        // Targets seqs (0, 2), but seq 1 sits between them: the swap
        // must not engage and the order must be the insertion order.
        let mut e = Engine::new().with_tie_swap(SimTime::from_nanos(5), 0, 2);
        let mut w = Log::default();
        for id in [1, 2, 3] {
            timer(&mut e, 5, id);
        }
        e.run(&mut w);
        assert_eq!(w.ids(), vec![1, 2, 3]);
        assert_eq!(e.tie_swap_applied(), Some(false));
    }

    #[test]
    fn tie_swap_wrong_instant_never_engages() {
        let mut e = Engine::new().with_tie_swap(SimTime::from_nanos(99), 0, 1);
        let mut w = Log::default();
        timer(&mut e, 5, 1);
        timer(&mut e, 5, 2);
        e.run(&mut w);
        assert_eq!(w.timers(), vec![(5, 1), (5, 2)]);
        assert_eq!(e.tie_swap_applied(), Some(false));
    }

    #[test]
    fn no_swap_reports_none() {
        let mut e = Engine::new();
        let mut w = Log::default();
        timer(&mut e, 1, 0);
        e.run(&mut w);
        assert_eq!(e.tie_swap_applied(), None);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut e = Engine::new();
        let mut w = Log {
            countdown: Some(2),
            ..Log::default()
        };
        e.post_in(SimDuration::from_nanos(1), TypedEvent::Timer { id: 1 });
        e.run(&mut w);
        assert_eq!(w.timers(), vec![(1, 1), (3, 0)]);
        assert_eq!(e.events_fired(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        let mut w = Log::default();
        timer(&mut e, 10, 1);
        timer(&mut e, 100, 2);
        e.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(w.timers(), vec![(10, 1)]);
        assert_eq!(e.now(), SimTime::from_nanos(10));
        e.run(&mut w);
        assert_eq!(w.fired.len(), 2);
    }

    #[test]
    fn run_until_advances_idle_clock() {
        let mut e: Engine<Log> = Engine::new();
        let mut w = Log::default();
        e.run_until(&mut w, SimTime::from_nanos(42));
        assert_eq!(e.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new();
        let mut w = Log::default();
        timer(&mut e, 10, 0);
        e.run(&mut w);
        timer(&mut e, 5, 1);
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_trips() {
        let mut e = Engine::new().with_event_limit(10);
        let mut w = Log {
            countdown: Some(1),
            ..Log::default()
        };
        timer(&mut e, 1, u64::MAX);
        e.run(&mut w);
    }

    #[test]
    fn queue_high_water_tracks_peak_occupancy() {
        let mut e = Engine::new();
        let mut w = Log::default();
        for t in 1..=5 {
            timer(&mut e, t, 0);
        }
        assert_eq!(e.queue_high_water(), 5);
        e.run(&mut w);
        assert_eq!(e.queue_high_water(), 5, "high water survives the drain");
        assert_eq!(e.events_fired(), 5);
    }

    #[test]
    fn typed_events_dispatch_through_world() {
        let mut e = Engine::new();
        let mut w = Log {
            countdown: Some(4),
            ..Log::default()
        };
        timer(&mut e, 3, 1);
        e.post_at(
            SimTime::from_nanos(5),
            TypedEvent::MessageReady { src: 1, dst: 2 },
        );
        e.post_at(SimTime::from_nanos(5), TypedEvent::RankResume { rank: 9 });
        let end = e.run(&mut w);
        assert_eq!(
            w.fired,
            vec![
                (3, TypedEvent::Timer { id: 1 }),
                (5, TypedEvent::MessageReady { src: 1, dst: 2 }),
                (5, TypedEvent::RankResume { rank: 9 }),
                (7, TypedEvent::Timer { id: 0 }),
            ]
        );
        assert_eq!(end, SimTime::from_nanos(7));
        assert_eq!(e.event_stats().typed, 4);
    }

    #[test]
    fn clock_is_monotone_across_steps() {
        let mut e = Engine::new();
        let mut w = Log::default();
        timer(&mut e, 7, 1);
        timer(&mut e, 7, 2);
        timer(&mut e, 9, 3);
        let mut last = SimTime::ZERO;
        while e.step(&mut w) {
            assert!(e.now() >= last);
            last = e.now();
        }
        assert_eq!(e.now(), SimTime::from_nanos(9));
    }
}
