//! The typed event vocabulary of the engine.
//!
//! Every scheduled event is a [`TypedEvent`]: a plain-data enum stored
//! *inline* in the engine's binary heap and dispatched with a `match`
//! through the world's [`EventWorld::dispatch`]. The simulator is
//! dispatch-bound at millions of events per second, so an event costs
//! no heap allocation and no indirect call.
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

use crate::engine::Scheduler;

/// A plain-data event payload, dispatched by the world via
/// [`EventWorld::dispatch`]. Variants cover every event the simulator posts;
/// their fields are opaque small integers whose meaning the world
/// assigns (ranks, tape positions, timer cookies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypedEvent {
    /// Resume a parked actor (a simulated rank un-blocking, an overhead
    /// charge elapsing).
    RankResume {
        /// The actor to resume.
        rank: u32,
    },
    /// A message payload has fully arrived at its destination.
    MessageReady {
        /// Sending actor.
        src: u32,
        /// Receiving actor.
        dst: u32,
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
}

/// A world that can receive [`TypedEvent`]s.
///
/// The engine's `step`/`run` loop requires this of the world type; firing
/// a typed event compiles down to a `match` in the monomorphized
/// implementation — no virtual call, no allocation.
pub trait EventWorld: Sized {
    /// Handles one typed event at the current instant. `s` schedules
    /// follow-up events and reads the clock.
    fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent);
}

/// How many events entered the queue, for the `engine.alloc.*`
/// observability counter. Every event is typed and stored inline, so
/// none costs an allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Typed events posted (inline, zero-allocation).
    pub typed: u64,
}

impl EventStats {
    /// Exports the counter into `reg` under `engine.alloc.*`.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.counter("engine.alloc.typed_events", self.typed);
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
    fn queue_entry_stays_at_most_32_bytes() {
        // The pending set holds `(at, seq, event)` inline: two u64 words
        // plus the 16-byte event.
        assert!(std::mem::size_of::<crate::engine::Scheduled>() <= 32);
    }

    #[test]
    fn alloc_stats_export() {
        let stats = EventStats { typed: 10 };
        let mut reg = obs::MetricsRegistry::new();
        stats.export_metrics(&mut reg);
        assert_eq!(
            reg.get("engine.alloc.typed_events")
                .and_then(|m| m.as_f64()),
            Some(10.0)
        );
        assert_eq!(reg.len(), 1);
    }
}
