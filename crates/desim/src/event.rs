//! The typed event vocabulary of the engine.
//!
//! Historically every scheduled event was a `Box<dyn FnOnce>` closure: one
//! heap allocation plus one indirect call per event. Profiling showed the
//! simulator is dispatch-bound at millions of events per second, and the
//! closure path was the single largest per-event cost. [`TypedEvent`]
//! replaces it for the known hot events: a plain-data enum stored *inline*
//! in the calendar/heap queue and dispatched with a `match` through the
//! world's [`EventWorld::dispatch`] — zero allocations, static dispatch.
//!
//! The closure path still exists for the rare genuinely dynamic case:
//! [`Event::Dyn`] wraps the classic boxed closure (the
//! `schedule_in(Box::new(..))` API is a thin shim over it), and
//! [`TypedEvent::Continuation`] runs a closure parked in the engine's
//! slab (see `Scheduler::defer_in`), whose free-list recycles slots so
//! steady-state continuation traffic stops growing the slab.
//!
//! # Examples
//!
//! A world that counts timer firings:
//!
//! ```
//! use desim::{Engine, EventWorld, Scheduler, SimDuration, TypedEvent};
//!
//! #[derive(Default)]
//! struct Clock {
//!     fired: Vec<u64>,
//! }
//!
//! impl EventWorld for Clock {
//!     fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
//!         match ev {
//!             TypedEvent::Timer { id } => {
//!                 self.fired.push(id);
//!                 if id < 3 {
//!                     s.post_in(SimDuration::from_nanos(10), TypedEvent::Timer { id: id + 1 });
//!                 }
//!             }
//!             other => unreachable!("unexpected {other:?}"),
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let mut world = Clock::default();
//! engine.post_in(SimDuration::from_nanos(5), TypedEvent::Timer { id: 1 });
//! engine.run(&mut world);
//! assert_eq!(world.fired, vec![1, 2, 3]);
//! ```

use crate::engine::{EventFn, Scheduler};

/// A plain-data event payload, dispatched by the world via
/// [`EventWorld::dispatch`]. Variants cover the simulator's hot events;
/// their fields are opaque small integers whose meaning the world
/// assigns (ranks, link ids, tape positions, timer cookies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypedEvent {
    /// Resume a parked actor (a simulated rank un-blocking, an overhead
    /// charge elapsing).
    RankResume {
        /// The actor to resume.
        rank: u32,
    },
    /// A message payload (or a coalesced segment batch) has fully
    /// arrived at its destination.
    MessageReady {
        /// Sending actor.
        src: u32,
        /// Receiving actor.
        dst: u32,
    },
    /// A granted link / FIFO occupancy window has elapsed.
    LinkGrant {
        /// The link whose grant completed.
        link: u32,
        /// The actor holding the grant.
        grantee: u32,
    },
    /// Execute the schedule step at tape position `step` on `rank` (the
    /// world owns the step tape; the event carries only the position).
    ScheduleStep {
        /// The acting rank.
        rank: u32,
        /// Tape index of the step to execute.
        step: u32,
    },
    /// An opaque timer.
    Timer {
        /// User-assigned cookie.
        id: u64,
    },
    /// Run the dynamic continuation parked in the engine slab at `slot`
    /// (posted by `Scheduler::defer_in` / `Scheduler::defer_at`; never
    /// reaches [`EventWorld::dispatch`] — the engine resolves it).
    Continuation {
        /// Slab slot holding the closure.
        slot: u32,
    },
}

/// An event as stored inline in the pending queue: either a typed
/// plain-data payload or the classic boxed closure.
pub enum Event<W> {
    /// Allocation-free typed payload, dispatched via [`EventWorld`].
    Typed(TypedEvent),
    /// Boxed dynamic closure (one heap allocation; the legacy path).
    Dyn(EventFn<W>),
}

impl<W> From<TypedEvent> for Event<W> {
    fn from(ev: TypedEvent) -> Self {
        Event::Typed(ev)
    }
}

impl<W> std::fmt::Debug for Event<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Event::Typed(t) => f.debug_tuple("Typed").field(t).finish(),
            Event::Dyn(_) => f.write_str("Dyn(<closure>)"),
        }
    }
}

/// A world that can receive [`TypedEvent`]s.
///
/// The engine's `step`/`run` loop requires this of the world type; firing
/// a typed event compiles down to a `match` in the monomorphized
/// implementation — no virtual call, no allocation. Worlds that only ever
/// use the closure API can rely on the default implementation, which
/// panics if a typed event somehow reaches it (closure-only worlds never
/// post any):
///
/// ```
/// struct MyWorld;
/// impl desim::EventWorld for MyWorld {}
/// ```
///
/// Implementations for `()`, the primitive integers, and `Vec<T>` are
/// provided so simple closure-driven simulations (tests, examples,
/// benchmarks) need no boilerplate.
pub trait EventWorld: Sized {
    /// Handles one typed event at the current instant. `s` schedules
    /// follow-up events and reads the clock.
    fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
        let _ = s;
        panic!("typed event {ev:?} dispatched to a world without an EventWorld::dispatch impl");
    }
}

macro_rules! closure_only_worlds {
    ($($t:ty),* $(,)?) => {
        $(impl EventWorld for $t {})*
    };
}

closure_only_worlds!(
    (),
    bool,
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    String
);

impl<T> EventWorld for Vec<T> {}

/// Counts of how events entered the queue, for the `engine.alloc.*`
/// observability counters: typed events are allocation-free, every
/// dynamic closure is one heap allocation, and slab reuses measure how
/// well the continuation free-list recycles slots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Typed events posted (inline, zero-allocation).
    pub typed: u64,
    /// Boxed-closure events scheduled (one heap allocation each).
    pub dynamic: u64,
    /// Slab continuations deferred.
    pub continuations: u64,
    /// Continuation posts that reused a freed slab slot.
    pub slab_reuses: u64,
}

impl EventStats {
    /// Exports the counters into `reg` under `engine.alloc.*`.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter("engine.alloc.typed_events", self.typed);
        reg.counter("engine.alloc.dyn_events", self.dynamic);
        reg.counter("engine.alloc.continuations", self.continuations);
        reg.counter("engine.alloc.slab_reuses", self.slab_reuses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_event_is_small_and_copyable() {
        // The whole point: a typed event must stay register-sized so the
        // queue holds it inline. 16 bytes = discriminant + two u64 words.
        assert!(std::mem::size_of::<TypedEvent>() <= 16);
        let ev = TypedEvent::MessageReady { src: 3, dst: 9 };
        let copy = ev;
        assert_eq!(ev, copy);
    }

    #[test]
    fn event_debug_does_not_expose_closures() {
        let typed: Event<u32> = TypedEvent::Timer { id: 7 }.into();
        assert!(format!("{typed:?}").contains("Timer"));
        let dynamic: Event<u32> = Event::Dyn(Box::new(|_, _| {}));
        assert_eq!(format!("{dynamic:?}"), "Dyn(<closure>)");
    }

    #[test]
    #[should_panic(expected = "without an EventWorld::dispatch impl")]
    fn default_dispatch_rejects_typed_events() {
        struct ClosureOnly;
        impl EventWorld for ClosureOnly {}
        let mut engine = crate::Engine::new();
        let mut w = ClosureOnly;
        engine.post_at(crate::SimTime::from_nanos(1), TypedEvent::Timer { id: 0 });
        engine.run(&mut w);
    }

    #[test]
    fn alloc_stats_export() {
        let stats = EventStats {
            typed: 10,
            dynamic: 2,
            continuations: 3,
            slab_reuses: 1,
        };
        let mut reg = obs::MetricsRegistry::new();
        stats.export_metrics(&mut reg);
        assert_eq!(
            reg.get("engine.alloc.typed_events")
                .and_then(|m| m.as_f64()),
            Some(10.0)
        );
        assert_eq!(
            reg.get("engine.alloc.dyn_events").and_then(|m| m.as_f64()),
            Some(2.0)
        );
    }
}
