//! The discrete-event engine.
//!
//! [`Engine`] owns a time-ordered set of pending events and a
//! monotonically advancing clock over a user-supplied *world* type `W`
//! (the mutable simulation state). Events are plain-data
//! [`TypedEvent`]s, stored inline and dispatched through the world's
//! [`EventWorld::dispatch`] `match`: no allocation and no indirect call
//! per event. Firing an event may schedule further events. Ties in
//! firing time break by insertion order, which makes every run
//! deterministic.
//!
//! # The pending set
//!
//! Most events a simulation posts are a constant delay after the instant
//! that posts them: a fixed software overhead, a copy of a fixed message
//! length. The pending set exploits that. In front of a binary heap it
//! keeps a few FIFO *lanes*, each holding the events posted with one
//! delay `at − now`. A lane is sorted by construction: its delay is
//! constant, the clock never rewinds and sequence numbers only grow, so
//! each append sorts after the one before. The lane does not rely on
//! that argument, though: a post joins its delay's lane (or claims an
//! empty lane) only when it sorts after the lane's tail by the full
//! `(at, seq)` key, and goes to the heap otherwise, as does every post
//! whose delay has no lane and finds none free. A pop takes the least
//! key among the lane heads and the heap top. Every container is sorted,
//! so a pop returns the global minimum and the firing order is exactly
//! that of a single heap, while most events skip the heap's logarithmic
//! sift. A tie swap's push-back (see [`Engine::with_tie_swap`]) goes to
//! the heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::marker::PhantomData;

use crate::event::{EventStats, EventWorld, TypedEvent};
use crate::eventlog::EventLog;
use crate::provenance::{Provenance, ROOT};
use crate::time::{SimDuration, SimTime};

/// One pending event: when it fires, its insertion sequence number (the
/// same-instant tie-break), and its payload.
#[derive(Clone, Copy)]
pub(crate) struct Scheduled {
    at: SimTime,
    seq: u64,
    ev: TypedEvent,
}

impl Scheduled {
    /// Fills a lane slot that holds no event.
    const VACANT: Scheduled = Scheduled {
        at: SimTime::ZERO,
        seq: 0,
        ev: TypedEvent::Timer { id: 0 },
    };

    /// The firing-order key, earliest instant first and then insertion
    /// order, packed into one integer: `at` in the high word, `seq` in
    /// the low.
    fn key(&self) -> u128 {
        (u128::from(self.at.as_nanos()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// How many constant-delay lanes sit in front of the heap. Chosen by
/// measurement on recorded executor runs: four lanes were as fast as
/// three overall and faster than two, five, six or eight. An alltoall
/// message posts three of its four events at constant delays, and each
/// lane costs every post and pop a comparison.
const LANES: usize = 4;

/// The head key of an empty lane. No event has it: its seq would be the
/// 2⁶⁴th post.
const EMPTY: u128 = u128::MAX;

/// The engine's pending events: sorted constant-delay lanes in front of
/// a binary heap (see the module docs).
///
/// Lane `i` holds `count[i]` events, all posted `delays[i]` nanoseconds
/// before they fire, in the ring `slots[i * cap..(i + 1) * cap]` from
/// offset `first[i]` on. `heads[i]` and `tails[i]` cache the keys of its
/// first and last event; `heads[i]` is [`EMPTY`] while the lane holds
/// none (its delay and tail are then stale). The lanes share one buffer,
/// doubled for all of them when one fills, so a run allocates for its
/// lanes as often as a single growing queue would.
pub(crate) struct Pending {
    heads: [u128; LANES],
    tails: [u128; LANES],
    delays: [u64; LANES],
    first: [usize; LANES],
    count: [usize; LANES],
    /// Slots per lane: zero until a lane is first claimed, then a power
    /// of two.
    cap: usize,
    slots: Vec<Scheduled>,
    heap: BinaryHeap<Scheduled>,
    /// Events pending in the lanes and the heap together.
    len: usize,
}

impl Pending {
    fn new() -> Self {
        Pending {
            heads: [EMPTY; LANES],
            tails: [0; LANES],
            delays: [0; LANES],
            first: [0; LANES],
            count: [0; LANES],
            cap: 0,
            slots: Vec::new(),
            heap: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Adds `e`, posted at instant `now`: to the lane of its delay, or
    /// else to an empty lane, when it sorts after that lane's tail; to
    /// the heap otherwise.
    fn push(&mut self, now: SimTime, e: Scheduled) {
        self.len += 1;
        let delay = e.at.as_nanos() - now.as_nanos();
        let key = e.key();
        let mut free = None;
        for i in 0..LANES {
            if self.heads[i] == EMPTY {
                free.get_or_insert(i);
            } else if self.delays[i] == delay {
                if self.tails[i] < key {
                    self.append(i, key, e);
                } else {
                    self.heap.push(e);
                }
                return;
            }
        }
        match free {
            Some(i) => {
                self.heads[i] = key;
                self.delays[i] = delay;
                self.append(i, key, e);
            }
            None => self.heap.push(e),
        }
    }

    /// Appends `e`, whose key is `key`, to lane `i`.
    fn append(&mut self, i: usize, key: u128, e: Scheduled) {
        if self.count[i] == self.cap {
            self.grow();
        }
        let slot = (self.first[i] + self.count[i]) & (self.cap - 1);
        self.slots[i * self.cap + slot] = e;
        self.count[i] += 1;
        self.tails[i] = key;
    }

    /// Doubles every lane's ring, moving each lane's events to the start
    /// of its new ring in order.
    fn grow(&mut self) {
        let cap = (2 * self.cap).max(8);
        let mut slots = Vec::with_capacity(LANES * cap);
        for i in 0..LANES {
            for k in 0..self.count[i] {
                let slot = (self.first[i] + k) & (self.cap - 1);
                slots.push(self.slots[i * self.cap + slot]);
            }
            slots.resize(cap * (i + 1), Scheduled::VACANT);
            self.first[i] = 0;
        }
        self.slots = slots;
        self.cap = cap;
    }

    /// Returns `e`, just popped, to the set, where it is again the least
    /// entry. It goes to the heap, whatever container it came from.
    fn push_back(&mut self, e: Scheduled) {
        self.len += 1;
        self.heap.push(e);
    }

    /// The least pending key, [`EMPTY`] when nothing is pending, and the
    /// container holding it: a lane index, or [`LANES`] for the heap.
    fn least(&self) -> (usize, u128) {
        let mut from = LANES;
        let mut least = self.heap.peek().map_or(EMPTY, Scheduled::key);
        for (i, &head) in self.heads.iter().enumerate() {
            if head < least {
                from = i;
                least = head;
            }
        }
        (from, least)
    }

    /// When the least pending event fires, if any event is pending.
    fn next_at(&self) -> Option<SimTime> {
        let (_, least) = self.least();
        (least != EMPTY).then(|| SimTime::from_nanos((least >> 64) as u64))
    }

    /// Removes and returns the least pending entry.
    fn pop(&mut self) -> Option<Scheduled> {
        let (from, least) = self.least();
        if least == EMPTY {
            return None;
        }
        self.len -= 1;
        if from == LANES {
            return self.heap.pop();
        }
        let base = from * self.cap;
        let e = self.slots[base + self.first[from]];
        self.first[from] = (self.first[from] + 1) & (self.cap - 1);
        self.count[from] -= 1;
        self.heads[from] = if self.count[from] == 0 {
            EMPTY
        } else {
            self.slots[base + self.first[from]].key()
        };
        Some(e)
    }
}

/// The part of the engine visible to a firing event: the clock and the
/// pending events it posts into.
///
/// Split from [`Engine`] so a firing event can post and read the clock
/// but cannot step the engine or touch its instrumentation. `W` is the
/// world type the queued events are dispatched to.
pub struct Scheduler<W> {
    now: SimTime,
    next_seq: u64,
    pending: Pending,
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
    /// in the pending set and dispatched through [`EventWorld::dispatch`].
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
        self.pending.push(self.now, Scheduled { at, seq, ev });
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
                pending: Pending::new(),
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
        self.scheduler.pending.len == 0 && self.held.is_none()
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
        self.queue_high_water = self.queue_high_water.max(self.scheduler.pending.len);
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
        let ev = self.scheduler.pending.pop()?;
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
                self.scheduler.pending.push_back(other);
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
            let at = match (&self.held, self.scheduler.pending.next_at()) {
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
            .field("queued", &self.scheduler.pending.len)
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

    fn entry(at: u64, seq: u64) -> Scheduled {
        Scheduled {
            at: SimTime::from_nanos(at),
            seq,
            ev: TypedEvent::Timer { id: seq },
        }
    }

    /// Lanes holding events, and the heap's length.
    fn occupancy(p: &Pending) -> (usize, usize) {
        (p.count.iter().filter(|&&c| c > 0).count(), p.heap.len())
    }

    #[test]
    fn an_entry_sorting_before_its_lanes_tail_goes_to_the_heap() {
        let mut p = Pending::new();
        let now = SimTime::from_nanos;
        p.push(now(10), entry(15, 3));
        // Same delay, earlier instant: an earlier post time, which the
        // engine never makes, must not land behind the tail.
        p.push(now(5), entry(10, 4));
        // Same delay and instant, lower seq: before the tail by the tie.
        p.push(now(10), entry(15, 2));
        // Same delay, after the tail: appended.
        p.push(now(12), entry(17, 5));
        assert_eq!(occupancy(&p), (1, 2));
        assert_eq!(p.count[0], 2);
        let order: Vec<u64> = std::iter::from_fn(|| p.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![4, 2, 3, 5]);
        assert_eq!(p.len, 0);
        assert!(p.heads.iter().all(|&h| h == EMPTY));
    }

    #[test]
    fn lanes_fill_then_spill_and_are_rekeyed_once_drained() {
        let mut p = Pending::new();
        for (i, delay) in (1..=LANES as u64 + 1).enumerate() {
            p.push(SimTime::ZERO, entry(delay, i as u64));
        }
        assert_eq!(
            occupancy(&p),
            (LANES, 1),
            "one lane per delay, then the heap"
        );
        assert_eq!(p.pop().map(|e| e.seq), Some(0));
        // The drained lane takes the next new delay.
        p.push(SimTime::from_nanos(1), entry(101, 9));
        assert_eq!(occupancy(&p), (LANES, 1));
        assert_eq!(p.delays[0], 100);
    }

    #[test]
    fn lane_rings_keep_order_across_wraps_and_growth() {
        let mut p = Pending::new();
        let mut popped = Vec::new();
        for t in 0..200u64 {
            p.push(SimTime::from_nanos(t), entry(t + 7, t));
            if t % 3 != 0 {
                popped.extend(p.pop().map(|e| e.seq));
            }
        }
        assert_eq!(occupancy(&p).1, 0, "one delay never spills");
        popped.extend(std::iter::from_fn(|| p.pop()).map(|e| e.seq));
        assert_eq!(popped, (0..200).collect::<Vec<u64>>());
        assert!(p.cap >= 64, "the ring grew with its lane's backlog");
    }

    /// Fires timers; timer 0 posts timer `child` at instant 10.
    struct Spawn {
        fired: Vec<u64>,
        child: u64,
    }

    impl EventWorld for Spawn {
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
            let TypedEvent::Timer { id } = ev else {
                unreachable!("only timers are posted")
            };
            self.fired.push(id);
            if id == 0 {
                let child = TypedEvent::Timer { id: self.child };
                s.post_at(SimTime::from_nanos(10), child);
            }
        }
    }

    /// Posts timer `id` at instant `roots[id]` from time zero, in id
    /// order (so its seq is its id), and builds the world.
    fn spawn(mut e: Engine<Spawn>, roots: &[u64]) -> (Engine<Spawn>, Spawn) {
        for (id, &at) in roots.iter().enumerate() {
            let id = id as u64;
            e.post_at(SimTime::from_nanos(at), TypedEvent::Timer { id });
        }
        let child = roots.len() as u64;
        (
            e,
            Spawn {
                fired: Vec::new(),
                child,
            },
        )
    }

    /// Runs [`spawn`]'s engine, checking after `before` steps that the
    /// heap top and the least lane head are `(heap_top, lane_head)`;
    /// returns the firing order and whether the armed swap engaged.
    fn run_spawn(
        e: Engine<Spawn>,
        roots: &[u64],
        before: usize,
        (heap_top, lane_head): (u64, u64),
    ) -> (Vec<u64>, Option<bool>) {
        let (mut e, mut w) = spawn(e, roots);
        for _ in 0..before {
            e.step(&mut w);
        }
        let pending = &e.scheduler.pending;
        assert_eq!(pending.heap.peek().map(|s| s.seq), Some(heap_top));
        let least_head = pending.heads.iter().min().map(|&k| k as u64);
        assert_eq!(least_head, Some(lane_head));
        e.run(&mut w);
        (w.fired, e.tie_swap_applied())
    }

    /// An engine armed to swap seqs `first` and `second` at instant 10.
    fn swap_at_10(first: u64, second: u64) -> Engine<Spawn> {
        Engine::new().with_tie_swap(SimTime::from_nanos(10), first, second)
    }

    #[test]
    fn tie_swap_pairs_a_lane_head_with_the_heap_top() {
        // Lanes take delays 3 (timers 0 and 1), 10, 20 and 30. Timer 0
        // fires at 3 and posts timer 5 at 10: delay 7 has no lane and
        // none is free, so it goes to the heap, tied with timer 2 at the
        // head of the lane of delay 10.
        assert_eq!(LANES, 4, "the scenario fills every lane");
        let roots = [3, 3, 10, 20, 30];
        let base = run_spawn(Engine::new(), &roots, 2, (5, 2));
        assert_eq!(base, (vec![0, 1, 2, 5, 3, 4], None));
        let swapped = run_spawn(swap_at_10(2, 5), &roots, 2, (5, 2));
        assert_eq!(swapped, (vec![0, 1, 5, 2, 3, 4], Some(true)));
    }

    #[test]
    fn tie_swap_pairs_the_heap_top_with_a_lane_head() {
        // Lanes take delays 3 (timers 0 and 1), 7, 20 and 30; timer 5 at
        // 10 finds no free lane and goes to the heap. Timer 0 posts timer
        // 6 at 10 with delay 7, behind timer 2 in the lane of delay 7.
        let roots = [3, 3, 7, 20, 30, 10];
        let base = run_spawn(Engine::new(), &roots, 3, (5, 6));
        assert_eq!(base, (vec![0, 1, 2, 5, 6, 3, 4], None));
        let swapped = run_spawn(swap_at_10(5, 6), &roots, 3, (5, 6));
        assert_eq!(swapped, (vec![0, 1, 2, 6, 5, 3, 4], Some(true)));
        // A partner that is not next: timer 6 leaves its lane, goes back
        // to the heap, and still fires right after timer 5.
        let (mut e, mut w) = spawn(swap_at_10(5, 3), &roots);
        for _ in 0..4 {
            e.step(&mut w);
        }
        let pending = &e.scheduler.pending;
        assert_eq!(pending.heap.peek().map(|s| s.seq), Some(6));
        assert!(pending.heads.iter().all(|&k| k as u64 != 6));
        e.run(&mut w);
        let missed = (w.fired, e.tie_swap_applied());
        assert_eq!(missed, (vec![0, 1, 2, 5, 6, 3, 4], Some(false)));
    }
}
