//! The discrete-event engine.
//!
//! [`Engine`] owns a time-ordered event queue and a monotonically advancing
//! clock. Events are [`Event`]s over a user-supplied *world* type `W` (the
//! mutable simulation state): typed plain-data payloads stored inline in
//! the queue and dispatched through the world's
//! [`EventWorld::dispatch`](crate::EventWorld::dispatch) `match` — the hot
//! path, zero allocations — or boxed closures for the rare dynamic case.
//! Firing an event may schedule further events. Ties in firing time break
//! by insertion order, which makes every run deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::calqueue::CalendarQueue;
use crate::event::{Event, EventStats, EventWorld, TypedEvent};
use crate::eventlog::EventLog;
use crate::provenance::{Provenance, ROOT};
use crate::time::{SimDuration, SimTime};

/// A dynamic event callback: receives the scheduling handle and the world.
pub type EventFn<W> = Box<dyn FnOnce(&mut Scheduler<W>, &mut W)>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    ev: Event<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The part of the engine visible to a firing event: the clock, the
/// ability to schedule more events, and the continuation slab.
///
/// Split from [`Engine`] so firing events can schedule without aliasing
/// the queue being drained.
pub struct Scheduler<W> {
    now: SimTime,
    next_seq: u64,
    pending: Vec<Scheduled<W>>,
    /// Parked dynamic continuations, addressed by
    /// [`TypedEvent::Continuation`] slot. Freed slots are recycled
    /// through `slab_free` so steady-state continuation traffic reuses
    /// capacity instead of growing the slab.
    slab: Vec<Option<EventFn<W>>>,
    slab_free: Vec<u32>,
    stats: EventStats,
    /// Causal-parent log, `None` (the default) unless the engine was
    /// built [`Engine::with_provenance`] — one branch per push when off.
    prov: Option<Box<Provenance>>,
    /// Sequence number of the event currently being dispatched, or
    /// [`ROOT`] outside dispatch. Only maintained when `prov` is on.
    current: u64,
}

impl<W> Scheduler<W> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Posts a typed event to fire after `delay` — the allocation-free
    /// hot path. The event is stored inline in the queue and dispatched
    /// through [`EventWorld::dispatch`].
    pub fn post_in(&mut self, delay: SimDuration, ev: TypedEvent) {
        let at = self.now + delay;
        self.post_at(at, ev);
    }

    /// Posts a typed event at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — simulated time never rewinds.
    pub fn post_at(&mut self, at: SimTime, ev: TypedEvent) {
        self.stats.typed += 1;
        self.push(at, Event::Typed(ev));
    }

    /// Schedules a boxed-closure `event` to fire after `delay` (the
    /// legacy dynamic path — one heap allocation per event; prefer
    /// [`Scheduler::post_in`] for known event kinds).
    pub fn schedule_in(&mut self, delay: SimDuration, event: EventFn<W>) {
        let at = self.now + delay;
        self.schedule_at(at, event);
    }

    /// Schedules a boxed-closure `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — simulated time never rewinds.
    pub fn schedule_at(&mut self, at: SimTime, event: EventFn<W>) {
        self.stats.dynamic += 1;
        self.push(at, Event::Dyn(event));
    }

    /// Defers a dynamic continuation: the closure is parked in the
    /// engine slab (slot recycled from the free-list when possible) and
    /// a [`TypedEvent::Continuation`] fires it after `delay`. For code
    /// that genuinely needs a capture but runs often enough that slab
    /// reuse matters.
    pub fn defer_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static,
    ) {
        let at = self.now + delay;
        self.defer_at(at, f);
    }

    /// Defers a dynamic continuation at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn defer_at(&mut self, at: SimTime, f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static) {
        self.stats.continuations += 1;
        let boxed: EventFn<W> = Box::new(f);
        let slot = match self.slab_free.pop() {
            Some(slot) => {
                self.stats.slab_reuses += 1;
                self.slab[slot as usize] = Some(boxed);
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("continuation slab overflow");
                self.slab.push(Some(boxed));
                slot
            }
        };
        self.push(at, Event::Typed(TypedEvent::Continuation { slot }));
    }

    /// Removes and returns the continuation parked at `slot`, returning
    /// the slot to the free-list.
    fn take_continuation(&mut self, slot: u32) -> EventFn<W> {
        let f = self.slab[slot as usize]
            .take()
            .expect("continuation slot fired twice");
        self.slab_free.push(slot);
        f
    }

    fn push(&mut self, at: SimTime, ev: Event<W>) {
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
        self.pending.push(Scheduled { at, seq, ev });
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

/// The pending-event set: a binary heap by default, or a calendar queue
/// for heavily loaded simulations (identical ordering semantics).
enum Queue<W> {
    Heap(BinaryHeap<Scheduled<W>>),
    Calendar(CalendarQueue<Event<W>>),
}

impl<W> Queue<W> {
    fn push(&mut self, ev: Scheduled<W>) {
        match self {
            Queue::Heap(h) => h.push(ev),
            Queue::Calendar(c) => c.push((ev.at.as_nanos(), ev.seq), ev.ev),
        }
    }

    fn pop(&mut self) -> Option<Scheduled<W>> {
        match self {
            Queue::Heap(h) => h.pop(),
            Queue::Calendar(c) => c.pop().map(|((t, seq), ev)| Scheduled {
                at: SimTime::from_nanos(t),
                seq,
                ev,
            }),
        }
    }

    fn peek_at(&self) -> Option<SimTime> {
        match self {
            Queue::Heap(h) => h.peek().map(|ev| ev.at),
            Queue::Calendar(c) => c.peek_key().map(|(t, _)| SimTime::from_nanos(t)),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Queue::Heap(h) => h.is_empty(),
            Queue::Calendar(c) => c.is_empty(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Queue::Heap(h) => h.len(),
            Queue::Calendar(c) => c.len(),
        }
    }

    /// `(resizes, buckets, max_bucket_occupancy)` for the calendar
    /// backend; `None` for the heap.
    fn calendar_stats(&self) -> Option<(u64, usize, usize)> {
        match self {
            Queue::Heap(_) => None,
            Queue::Calendar(c) => Some((c.resizes(), c.bucket_count(), c.max_bucket_occupancy())),
        }
    }
}

/// Host-side engine self-profile, collected only when the engine was
/// built [`Engine::with_profiling`]. Wall-clock figures come from
/// `std::time::Instant` around [`Engine::run`]; queue statistics are
/// sampled every [`EngineProfile::SAMPLE_EVERY`] fired events so the
/// hot loop stays branch-plus-mask cheap.
#[derive(Debug, Clone, Default)]
pub struct EngineProfile {
    /// Wall-clock nanoseconds spent inside `run()` loops.
    wall_ns: u64,
    /// Events fired inside timed `run()` windows.
    events_timed: u64,
    /// Number of queue-depth samples taken.
    samples: u64,
    /// Sampled pending-queue depths (pow2 buckets).
    queue_depth: obs::Pow2Histogram,
    /// Sampled fullest-day-bucket occupancy (calendar backend only).
    calendar_occupancy: obs::Pow2Histogram,
}

impl EngineProfile {
    /// Queue statistics are sampled once per this many fired events.
    pub const SAMPLE_EVERY: u64 = 64;

    /// Wall-clock nanoseconds spent inside timed `run()` windows.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Events fired inside timed `run()` windows.
    pub fn events_timed(&self) -> u64 {
        self.events_timed
    }

    /// Events per wall-clock second over the timed windows; 0 before any
    /// timed run completes.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.events_timed as f64 / (self.wall_ns as f64 / 1e9)
        }
    }

    /// The sampled queue-depth distribution.
    pub fn queue_depth(&self) -> &obs::Pow2Histogram {
        &self.queue_depth
    }

    /// Exports the profile into `reg` under `engine.prof.*`.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter("engine.prof.wall_ns", self.wall_ns);
        reg.counter("engine.prof.events_timed", self.events_timed);
        reg.counter("engine.prof.samples", self.samples);
        reg.gauge("engine.prof.events_per_sec", self.events_per_sec());
        if self.queue_depth.count() > 0 {
            reg.gauge(
                "engine.prof.queue_depth.p50",
                self.queue_depth.quantile(0.5).unwrap_or(0) as f64,
            );
            reg.gauge(
                "engine.prof.queue_depth.p99",
                self.queue_depth.quantile(0.99).unwrap_or(0) as f64,
            );
            reg.gauge("engine.prof.queue_depth.mean", self.queue_depth.mean());
        }
        if self.calendar_occupancy.count() > 0 {
            reg.gauge(
                "engine.prof.calendar.max_bucket.p50",
                self.calendar_occupancy.quantile(0.5).unwrap_or(0) as f64,
            );
            reg.gauge(
                "engine.prof.calendar.max_bucket.mean",
                self.calendar_occupancy.mean(),
            );
        }
    }
}

/// A deterministic discrete-event simulation engine over world state `W`.
///
/// The world implements [`EventWorld`] and receives typed events through
/// its `dispatch` match; boxed closures remain available through
/// [`Engine::schedule_in`] for the rare dynamic case.
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
    queue: Queue<W>,
    scheduler: Scheduler<W>,
    fired: u64,
    event_limit: u64,
    queue_high_water: usize,
    /// Self-profiling state; `None` (the default) costs one branch per
    /// step and zero clock reads.
    prof: Option<Box<EngineProfile>>,
    /// Canonical fired-event log; `None` (the default) costs one branch
    /// per step. See [`Engine::with_event_log`].
    elog: Option<Box<EventLog>>,
    /// Targeted same-instant inversion; `None` (the default) costs one
    /// branch per step. See [`Engine::with_tie_swap`].
    swap: Option<TieSwap>,
    /// The deferred half of an engaged tie swap: popped first, fired
    /// second.
    held: Option<Scheduled<W>>,
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

    /// Creates an empty engine with the clock at time zero (binary-heap
    /// pending set).
    pub fn new() -> Self {
        Self::with_queue(Queue::Heap(BinaryHeap::new()))
    }

    /// Creates an engine backed by a calendar queue — O(1) amortized
    /// enqueue/dequeue for dense event populations, with identical
    /// deterministic ordering to the default heap.
    pub fn with_calendar_queue() -> Self {
        Self::with_queue(Queue::Calendar(CalendarQueue::new()))
    }

    // Never inlined: a call is opaque to MIR value numbering. rustc
    // 1.95.0's GVN pass otherwise treats two `Engine::new()` values as
    // one, and a closure taking an engine by value, called twice with
    // `Engine::new()`, gets the first call's moved-from, mutated engine
    // the second time: it runs on stale state and frees the queue twice
    // (`free(): double free` in release builds). The shape is reproduced
    // by `engines_built_in_sequence_start_fresh` in
    // `tests/proptest_engine.rs`.
    #[inline(never)]
    fn with_queue(queue: Queue<W>) -> Self {
        Engine {
            queue,
            scheduler: Scheduler {
                now: SimTime::ZERO,
                next_seq: 0,
                pending: Vec::new(),
                slab: Vec::new(),
                slab_free: Vec::new(),
                stats: EventStats::default(),
                prov: None,
                current: ROOT,
            },
            fired: 0,
            event_limit: Self::DEFAULT_EVENT_LIMIT,
            queue_high_water: 0,
            prof: None,
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

    /// Enables engine self-profiling: wall-clock timing of `run()` loops
    /// plus sampled queue-depth / calendar-occupancy histograms.
    /// Profiling never perturbs the simulation itself — only host-side
    /// counters are touched.
    pub fn with_profiling(mut self) -> Self {
        self.prof = Some(Box::default());
        self
    }

    /// The collected self-profile; `None` unless built
    /// [`Engine::with_profiling`].
    pub fn profile(&self) -> Option<&EngineProfile> {
        self.prof.as_deref()
    }

    /// Enables causal provenance recording: every scheduled event gets a
    /// compact parent edge (the seq of the event firing when it was
    /// scheduled). Like profiling, this never perturbs the simulation —
    /// timing, ordering, and [`EventStats`] are identical on and off.
    pub fn with_provenance(mut self) -> Self {
        self.scheduler.prov = Some(Box::default());
        self
    }

    /// The collected causal-parent log; `None` unless built
    /// [`Engine::with_provenance`].
    pub fn provenance(&self) -> Option<&Provenance> {
        self.scheduler.prov.as_deref()
    }

    /// Enables canonical event logging: every *fired* event is recorded
    /// as a compact `(seq, at, kind, a, b)` tuple in firing order — the
    /// stream `obs::diff` aligns when comparing two runs. Like profiling
    /// and provenance, recording never perturbs the simulation.
    pub fn with_event_log(mut self) -> Self {
        self.elog = Some(Box::default());
        self
    }

    /// The collected fired-event log; `None` unless built
    /// [`Engine::with_event_log`].
    pub fn event_log(&self) -> Option<&EventLog> {
        self.elog.as_deref()
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
    /// the queue-depth high-water mark.
    pub fn queue_high_water(&self) -> usize {
        self.queue_high_water
    }

    /// Which pending-set backend this engine uses: `"heap"` or
    /// `"calendar"`.
    pub fn queue_backend(&self) -> &'static str {
        match self.queue {
            Queue::Heap(_) => "heap",
            Queue::Calendar(_) => "calendar",
        }
    }

    /// Exports engine counters into a metrics registry: events fired,
    /// current and high-water queue occupancy, and a backend indicator
    /// (`engine.queue.backend.heap` / `.calendar`).
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter("engine.events_fired", self.fired);
        reg.counter("engine.scheduled_total", self.scheduler.next_seq);
        reg.gauge("engine.queue.high_water", self.queue_high_water as f64);
        reg.gauge("engine.queue.len", self.queue.len() as f64);
        reg.counter(format!("engine.queue.backend.{}", self.queue_backend()), 1);
        self.scheduler.stats.export_metrics(reg);
        if let Some((resizes, buckets, occ)) = self.queue.calendar_stats() {
            reg.counter("engine.calendar.resizes", resizes);
            reg.gauge("engine.calendar.buckets", buckets as f64);
            reg.gauge("engine.calendar.max_bucket", occ as f64);
        }
        if let Some(prof) = &self.prof {
            prof.export_metrics(reg);
        }
        if let Some(prov) = &self.scheduler.prov {
            prov.export_metrics(reg);
        }
        if let Some(elog) = &self.elog {
            elog.export_metrics(reg);
        }
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.scheduler.pending.is_empty() && self.held.is_none()
    }

    /// Posts a typed event after `delay` from the current clock — the
    /// allocation-free hot path (see [`Scheduler::post_in`]).
    pub fn post_in(&mut self, delay: SimDuration, ev: TypedEvent) {
        self.scheduler.post_in(delay, ev);
        self.drain_pending();
    }

    /// Posts a typed event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn post_at(&mut self, at: SimTime, ev: TypedEvent) {
        self.scheduler.post_at(at, ev);
        self.drain_pending();
    }

    /// Defers a slab-backed dynamic continuation after `delay` (see
    /// [`Scheduler::defer_in`]).
    pub fn defer_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static,
    ) {
        self.scheduler.defer_in(delay, f);
        self.drain_pending();
    }

    /// Defers a slab-backed dynamic continuation at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn defer_at(&mut self, at: SimTime, f: impl FnOnce(&mut Scheduler<W>, &mut W) + 'static) {
        self.scheduler.defer_at(at, f);
        self.drain_pending();
    }

    /// Schedules a boxed-closure event after `delay` from the current
    /// clock (the legacy dynamic path; stored as [`Event::Dyn`]).
    pub fn schedule_in(&mut self, delay: SimDuration, event: EventFn<W>) {
        self.scheduler.schedule_in(delay, event);
        self.drain_pending();
    }

    /// Schedules a boxed-closure event at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: EventFn<W>) {
        self.scheduler.schedule_at(at, event);
        self.drain_pending();
    }

    /// How events entered the queue so far: typed (inline) vs dynamic
    /// (boxed) vs slab continuations — the `engine.alloc.*` counters.
    pub fn event_stats(&self) -> EventStats {
        self.scheduler.stats
    }

    fn drain_pending(&mut self) {
        for ev in self.scheduler.pending.drain(..) {
            self.queue.push(ev);
        }
        self.queue_high_water = self.queue_high_water.max(self.queue.len());
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
        // Sample queue depth right after the pop, before dispatch: the
        // fired event is no longer pending, and its follow-ups aren't
        // scheduled yet, so the sample reflects true residual depth.
        if let Some(prof) = &mut self.prof {
            if self.fired & (EngineProfile::SAMPLE_EVERY - 1) == 0 {
                prof.samples += 1;
                prof.queue_depth.record(self.queue.len() as u64);
                if let Some((_, _, occ)) = self.queue.calendar_stats() {
                    prof.calendar_occupancy.record(occ as u64);
                }
            }
        }
        self.scheduler.now = ev.at;
        if let Some(p) = &mut self.scheduler.prov {
            p.mark_fired(ev.seq);
            self.scheduler.current = ev.seq;
        }
        if let Some(log) = &mut self.elog {
            // Encode from a borrow — the dispatch match below consumes
            // the payload.
            let (kind, a, b) = crate::eventlog::encode(&ev.ev);
            log.record(ev.seq, ev.at, kind, a, b);
        }
        match ev.ev {
            Event::Typed(TypedEvent::Continuation { slot }) => {
                let f = self.scheduler.take_continuation(slot);
                f(&mut self.scheduler, world);
            }
            Event::Typed(t) => world.dispatch(&mut self.scheduler, t),
            Event::Dyn(f) => f(&mut self.scheduler, world),
        }
        if self.scheduler.prov.is_some() {
            // Anything scheduled between steps (from outside dispatch)
            // is a fresh root stimulus.
            self.scheduler.current = ROOT;
        }
        self.drain_pending();
        true
    }

    /// Pops the earliest pending event, checking (in debug builds) the
    /// engine's ordering invariant: successive pops yield strictly
    /// increasing `(time_ns, seq)` — ties break by insertion order, on
    /// both queue backends. A queue refactor that breaks this fails
    /// loudly in tests instead of via silent trace drift.
    fn pop_checked(&mut self) -> Option<Scheduled<W>> {
        let ev = self.queue.pop()?;
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
    fn maybe_swap(&mut self, ev: Scheduled<W>) -> Scheduled<W> {
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
                self.queue.push(other);
                ev
            }
            None => ev,
        }
    }

    /// Runs until no events remain. Returns the final clock value.
    ///
    /// With profiling enabled the loop is wrapped in a wall-clock timer,
    /// accumulating into the profile's `wall_ns` / `events_timed` (from
    /// which events-per-second falls out).
    pub fn run(&mut self, world: &mut W) -> SimTime {
        if self.prof.is_none() {
            while self.step(world) {}
            return self.now();
        }
        let fired_before = self.fired;
        let start = std::time::Instant::now();
        while self.step(world) {}
        let elapsed = start.elapsed();
        let prof = self.prof.as_mut().expect("profiling enabled");
        prof.wall_ns += u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        prof.events_timed += self.fired - fired_before;
        self.now()
    }

    /// Runs until the clock would pass `deadline` or the queue empties.
    /// Events at exactly `deadline` do fire.
    pub fn run_until(&mut self, world: &mut W, deadline: SimTime) -> SimTime {
        loop {
            let at = match (&self.held, self.queue.peek_at()) {
                (Some(h), _) => h.at,
                (None, Some(at)) => at,
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
            .field("queued", &self.queue.len())
            .field("fired", &self.fired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type World = Vec<(u64, &'static str)>;

    fn record(label: &'static str) -> EventFn<World> {
        Box::new(move |s, w: &mut World| w.push((s.now().as_nanos(), label)))
    }

    #[test]
    fn fires_in_time_order() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        e.schedule_at(SimTime::from_nanos(30), record("c"));
        e.schedule_at(SimTime::from_nanos(10), record("a"));
        e.schedule_at(SimTime::from_nanos(20), record("b"));
        e.run(&mut w);
        assert_eq!(w, vec![(10, "a"), (20, "b"), (30, "c")]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        for label in ["first", "second", "third"] {
            e.schedule_at(SimTime::from_nanos(5), record(label));
        }
        e.run(&mut w);
        assert_eq!(
            w.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec!["first", "second", "third"]
        );
    }

    #[test]
    fn tie_swap_inverts_exactly_one_adjacent_pair() {
        for calendar in [false, true] {
            let mut e = if calendar {
                Engine::with_calendar_queue()
            } else {
                Engine::new()
            }
            .with_tie_swap(SimTime::from_nanos(5), 0, 1);
            let mut w: World = Vec::new();
            for label in ["first", "second", "third"] {
                e.schedule_at(SimTime::from_nanos(5), record(label));
            }
            e.run(&mut w);
            assert_eq!(
                w.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
                vec!["second", "first", "third"],
                "calendar={calendar}"
            );
            assert_eq!(e.tie_swap_applied(), Some(true));
        }
    }

    #[test]
    fn tie_swap_missing_partner_leaves_run_untouched() {
        for calendar in [false, true] {
            // Targets seqs (0, 2), but seq 1 sits between them: the swap
            // must not engage and the order must be the insertion order.
            let mut e = if calendar {
                Engine::with_calendar_queue()
            } else {
                Engine::new()
            }
            .with_tie_swap(SimTime::from_nanos(5), 0, 2);
            let mut w: World = Vec::new();
            for label in ["first", "second", "third"] {
                e.schedule_at(SimTime::from_nanos(5), record(label));
            }
            e.run(&mut w);
            assert_eq!(
                w.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
                vec!["first", "second", "third"],
                "calendar={calendar}"
            );
            assert_eq!(e.tie_swap_applied(), Some(false));
        }
    }

    #[test]
    fn tie_swap_wrong_instant_never_engages() {
        let mut e = Engine::new().with_tie_swap(SimTime::from_nanos(99), 0, 1);
        let mut w: World = Vec::new();
        e.schedule_at(SimTime::from_nanos(5), record("a"));
        e.schedule_at(SimTime::from_nanos(5), record("b"));
        e.run(&mut w);
        assert_eq!(w, vec![(5, "a"), (5, "b")]);
        assert_eq!(e.tie_swap_applied(), Some(false));
    }

    #[test]
    fn no_swap_reports_none() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        e.schedule_at(SimTime::from_nanos(1), record("x"));
        e.run(&mut w);
        assert_eq!(e.tie_swap_applied(), None);
    }

    #[test]
    fn events_can_schedule_events() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        e.schedule_in(
            SimDuration::from_nanos(1),
            Box::new(|s, _w: &mut World| {
                s.schedule_in(SimDuration::from_nanos(2), record("child"));
            }),
        );
        e.run(&mut w);
        assert_eq!(w, vec![(3, "child")]);
        assert_eq!(e.events_fired(), 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        e.schedule_at(SimTime::from_nanos(10), record("early"));
        e.schedule_at(SimTime::from_nanos(100), record("late"));
        e.run_until(&mut w, SimTime::from_nanos(50));
        assert_eq!(w, vec![(10, "early")]);
        assert_eq!(e.now(), SimTime::from_nanos(10));
        e.run(&mut w);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn run_until_advances_idle_clock() {
        let mut e: Engine<World> = Engine::new();
        let mut w: World = Vec::new();
        e.run_until(&mut w, SimTime::from_nanos(42));
        assert_eq!(e.now(), SimTime::from_nanos(42));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        e.schedule_at(SimTime::from_nanos(10), record("x"));
        e.run(&mut w);
        e.schedule_at(SimTime::from_nanos(5), record("bad"));
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_trips() {
        let mut e = Engine::new().with_event_limit(10);
        let mut w: World = Vec::new();
        fn rearm(s: &mut Scheduler<World>) {
            s.schedule_in(
                SimDuration::from_nanos(1),
                Box::new(|s, _w: &mut World| rearm(s)),
            );
        }
        e.schedule_in(
            SimDuration::from_nanos(1),
            Box::new(|s, _w: &mut World| rearm(s)),
        );
        e.run(&mut w);
    }

    #[test]
    fn queue_high_water_tracks_peak_occupancy() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        for t in 1..=5 {
            e.schedule_at(SimTime::from_nanos(t), record("x"));
        }
        assert_eq!(e.queue_high_water(), 5);
        e.run(&mut w);
        assert_eq!(e.queue_high_water(), 5, "high water survives the drain");
        assert_eq!(e.queue_backend(), "heap");
        assert_eq!(
            Engine::<World>::with_calendar_queue().queue_backend(),
            "calendar"
        );

        let mut reg = obs::MetricsRegistry::new();
        e.export_metrics(&mut reg);
        assert_eq!(reg.get("engine.events_fired").unwrap().as_f64(), Some(5.0));
        assert_eq!(
            reg.get("engine.queue.high_water").unwrap().as_f64(),
            Some(5.0)
        );
        assert_eq!(
            reg.get("engine.queue.backend.heap").unwrap().as_f64(),
            Some(1.0)
        );
    }

    #[test]
    fn profiling_observes_without_perturbing() {
        fn chain(e: &mut Engine<World>) -> (SimTime, World) {
            let mut w: World = Vec::new();
            for t in 1..=1000u64 {
                e.schedule_at(SimTime::from_nanos(t * 3), record("x"));
            }
            let end = e.run(&mut w);
            (end, w)
        }
        let (plain_end, plain_w) = chain(&mut Engine::new());
        let mut profiled = Engine::new().with_profiling();
        let (prof_end, prof_w) = chain(&mut profiled);
        assert_eq!(plain_end, prof_end, "profiling must not change results");
        assert_eq!(plain_w, prof_w);

        let prof = profiled.profile().expect("profile collected");
        assert!(prof.wall_ns() > 0);
        assert_eq!(prof.events_timed(), 1000);
        assert!(prof.events_per_sec() > 0.0);
        assert!(prof.queue_depth().count() > 0, "depth sampled every 64");

        let mut reg = obs::MetricsRegistry::new();
        profiled.export_metrics(&mut reg);
        assert!(reg.get("engine.prof.wall_ns").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            reg.get("engine.prof.events_timed").unwrap().as_f64(),
            Some(1000.0)
        );
        assert_eq!(
            reg.get("engine.scheduled_total").unwrap().as_f64(),
            Some(1000.0)
        );
    }

    #[test]
    fn disabled_profiling_exports_nothing() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        e.schedule_at(SimTime::from_nanos(1), record("x"));
        e.run(&mut w);
        assert!(e.profile().is_none());
        let mut reg = obs::MetricsRegistry::new();
        e.export_metrics(&mut reg);
        assert!(reg.get("engine.prof.wall_ns").is_none());
    }

    #[test]
    fn calendar_backend_exports_queue_stats() {
        let mut e = Engine::<World>::with_calendar_queue().with_profiling();
        let mut w: World = Vec::new();
        for t in 1..=500u64 {
            e.schedule_at(SimTime::from_nanos(t * 7), record("x"));
        }
        e.run(&mut w);
        let mut reg = obs::MetricsRegistry::new();
        e.export_metrics(&mut reg);
        assert!(reg.get("engine.calendar.resizes").is_some());
        assert!(
            reg.get("engine.calendar.buckets")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    /// A world exercising the typed dispatch path: every event kind is
    /// logged with its firing time; `Timer` re-arms once.
    #[derive(Default)]
    struct TypedWorld {
        log: Vec<(u64, TypedEvent)>,
    }

    impl EventWorld for TypedWorld {
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
            self.log.push((s.now().as_nanos(), ev));
            if let TypedEvent::Timer { id: 0 } = ev {
                s.post_in(SimDuration::from_nanos(4), TypedEvent::Timer { id: 1 });
            }
        }
    }

    #[test]
    fn typed_events_dispatch_through_world() {
        let mut e = Engine::new();
        let mut w = TypedWorld::default();
        e.post_at(SimTime::from_nanos(3), TypedEvent::Timer { id: 0 });
        e.post_at(
            SimTime::from_nanos(5),
            TypedEvent::MessageReady { src: 1, dst: 2 },
        );
        e.post_at(SimTime::from_nanos(5), TypedEvent::RankResume { rank: 9 });
        let end = e.run(&mut w);
        assert_eq!(
            w.log,
            vec![
                (3, TypedEvent::Timer { id: 0 }),
                (5, TypedEvent::MessageReady { src: 1, dst: 2 }),
                (5, TypedEvent::RankResume { rank: 9 }),
                (7, TypedEvent::Timer { id: 1 }),
            ]
        );
        assert_eq!(end, SimTime::from_nanos(7));
        let stats = e.event_stats();
        assert_eq!(stats.typed, 4);
        assert_eq!(stats.dynamic, 0);
    }

    #[test]
    fn typed_and_dyn_interleave_by_insertion_order() {
        let mut e = Engine::new();
        let mut w = TypedWorld::default();
        // Same timestamp; the closure fires between the two typed events
        // because insertion order breaks the tie.
        e.post_at(SimTime::from_nanos(5), TypedEvent::Timer { id: 10 });
        e.schedule_at(
            SimTime::from_nanos(5),
            Box::new(|s, w: &mut TypedWorld| {
                w.log
                    .push((s.now().as_nanos(), TypedEvent::Timer { id: 99 }));
            }),
        );
        e.post_at(SimTime::from_nanos(5), TypedEvent::Timer { id: 11 });
        e.run(&mut w);
        assert_eq!(
            w.log.iter().map(|(_, ev)| *ev).collect::<Vec<_>>(),
            vec![
                TypedEvent::Timer { id: 10 },
                TypedEvent::Timer { id: 99 },
                TypedEvent::Timer { id: 11 },
            ]
        );
        let stats = e.event_stats();
        assert_eq!((stats.typed, stats.dynamic), (2, 1));
    }

    #[test]
    fn continuations_recycle_slab_slots() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        // Chain of deferred continuations: each frees its slot before the
        // next is parked, so the slab never grows past one slot.
        fn arm(s: &mut Scheduler<World>, depth: u64) {
            s.defer_in(SimDuration::from_nanos(2), move |s, w: &mut World| {
                w.push((s.now().as_nanos(), "cont"));
                if depth > 0 {
                    arm(s, depth - 1);
                }
            });
        }
        e.defer_in(SimDuration::from_nanos(2), |s, w: &mut World| {
            w.push((s.now().as_nanos(), "cont"));
            arm(s, 3);
        });
        e.run(&mut w);
        assert_eq!(
            w,
            vec![
                (2, "cont"),
                (4, "cont"),
                (6, "cont"),
                (8, "cont"),
                (10, "cont")
            ]
        );
        let stats = e.event_stats();
        assert_eq!(stats.continuations, 5);
        assert_eq!(stats.slab_reuses, 4, "all but the first reuse the slot");
    }

    #[test]
    fn alloc_counters_reach_metrics() {
        let mut e = Engine::new();
        let mut w = TypedWorld::default();
        e.post_at(SimTime::from_nanos(1), TypedEvent::Timer { id: 5 });
        e.defer_at(SimTime::from_nanos(2), |_, _| {});
        e.run(&mut w);
        let mut reg = obs::MetricsRegistry::new();
        e.export_metrics(&mut reg);
        assert_eq!(
            reg.get("engine.alloc.typed_events")
                .and_then(|m| m.as_f64()),
            Some(1.0)
        );
        assert_eq!(
            reg.get("engine.alloc.continuations")
                .and_then(|m| m.as_f64()),
            Some(1.0)
        );
    }

    #[test]
    fn clock_is_monotone_across_steps() {
        let mut e = Engine::new();
        let mut w: World = Vec::new();
        e.schedule_at(SimTime::from_nanos(7), record("a"));
        e.schedule_at(SimTime::from_nanos(7), record("b"));
        e.schedule_at(SimTime::from_nanos(9), record("c"));
        let mut last = SimTime::ZERO;
        while e.step(&mut w) {
            assert!(e.now() >= last);
            last = e.now();
        }
        assert_eq!(e.now(), SimTime::from_nanos(9));
    }
}
