//! Opt-in canonical event log: one compact record per *fired* event.
//!
//! The differential-observability layer (`obs::diff` and the `tracediff`
//! binary) needs a canonical, deterministic stream of what the engine
//! actually executed — not what was scheduled, which includes events
//! superseded or reordered by ties. [`EventLog`] captures, per fired
//! event, the `(seq, at, kind, a, b)` tuple where `kind`/`a`/`b` encode
//! the [`TypedEvent`] payload losslessly.
//!
//! Like profiling and provenance, the log follows the zero-cost-when-off
//! pattern: `None` (the default) unless the engine was built
//! [`Engine::with_event_log`](crate::Engine::with_event_log) — one
//! branch per step when off, and recording never perturbs the
//! simulation (timing, ordering, and event stats are identical on and
//! off).
//!
//! # Examples
//!
//! ```
//! use desim::{Engine, EventKind, EventWorld, Scheduler, SimTime, TypedEvent};
//!
//! #[derive(Default)]
//! struct World;
//! impl EventWorld for World {
//!     fn dispatch(&mut self, _s: &mut Scheduler<Self>, _ev: TypedEvent) {}
//! }
//!
//! let mut e = Engine::new().with_event_log(1);
//! e.post_at(SimTime::from_nanos(5), TypedEvent::Timer { id: 42 });
//! e.run(&mut World);
//! let log = e.take_event_log().expect("log enabled");
//! assert_eq!(log.len(), 1);
//! assert_eq!(log.get(0).kind, EventKind::Timer);
//! assert_eq!(log.get(0).a, 42);
//! ```

use crate::event::TypedEvent;
use crate::time::SimTime;

/// The kind of a fired event, as recorded in the log. Mirrors the
/// [`TypedEvent`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// [`TypedEvent::RankResume`] — `a` = rank.
    RankResume,
    /// [`TypedEvent::MessageReady`] — `a` = src, `b` = dst.
    MessageReady,
    /// [`TypedEvent::ScheduleStep`] — `a` = rank, `b` = step.
    ScheduleStep,
    /// [`TypedEvent::Timer`] — `a` = id.
    Timer,
}

impl EventKind {
    /// Every kind, in serialization-code order.
    pub const ALL: [EventKind; 4] = [
        EventKind::RankResume,
        EventKind::MessageReady,
        EventKind::ScheduleStep,
        EventKind::Timer,
    ];

    /// Stable snake_case key for serialization and display.
    pub fn key(&self) -> &'static str {
        match self {
            EventKind::RankResume => "rank_resume",
            EventKind::MessageReady => "message_ready",
            EventKind::ScheduleStep => "schedule_step",
            EventKind::Timer => "timer",
        }
    }

    /// Inverse of [`EventKind::key`].
    pub fn from_key(key: &str) -> Option<EventKind> {
        EventKind::ALL.into_iter().find(|k| k.key() == key)
    }

    /// Human-readable description of the `(a, b)` payload fields for
    /// this kind, e.g. `("src", "dst")`; empty strings for unused slots.
    pub fn field_names(&self) -> (&'static str, &'static str) {
        match self {
            EventKind::RankResume => ("rank", ""),
            EventKind::MessageReady => ("src", "dst"),
            EventKind::ScheduleStep => ("rank", "step"),
            EventKind::Timer => ("id", ""),
        }
    }
}

/// One fired event: schedule sequence number, firing instant, and the
/// encoded payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedEvent {
    /// Scheduling sequence number (push order; ties fire in this order).
    pub seq: u64,
    /// The instant the event fired.
    pub at: SimTime,
    /// What fired.
    pub kind: EventKind,
    /// First payload field (see [`EventKind::field_names`]); 0 if unused.
    pub a: u64,
    /// Second payload field; 0 if unused.
    pub b: u64,
}

impl LoggedEvent {
    /// Decodes the logged `(kind, a, b)` triple back into the
    /// [`TypedEvent`] it encoded — the inverse of [`encode`].
    pub fn typed(&self) -> TypedEvent {
        match self.kind {
            EventKind::RankResume => TypedEvent::RankResume {
                rank: self.a as u32,
            },
            EventKind::MessageReady => TypedEvent::MessageReady {
                src: self.a as u32,
                dst: self.b as u32,
            },
            EventKind::ScheduleStep => TypedEvent::ScheduleStep {
                rank: self.a as u32,
                step: self.b as u32,
            },
            EventKind::Timer => TypedEvent::Timer { id: self.a },
        }
    }
}

/// Encodes an event payload into its canonical `(kind, a, b)` triple.
pub fn encode(ev: &TypedEvent) -> (EventKind, u64, u64) {
    match *ev {
        TypedEvent::RankResume { rank } => (EventKind::RankResume, rank as u64, 0),
        TypedEvent::MessageReady { src, dst } => (EventKind::MessageReady, src as u64, dst as u64),
        TypedEvent::ScheduleStep { rank, step } => {
            (EventKind::ScheduleStep, rank as u64, step as u64)
        }
        TypedEvent::Timer { id } => (EventKind::Timer, id, 0),
    }
}

/// The canonical fired-event stream, in firing order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<LoggedEvent>,
}

impl EventLog {
    /// An empty log with room for `capacity` events.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventLog {
            events: Vec::with_capacity(capacity),
        }
    }

    /// Number of fired events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True before anything fired.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The `i`-th fired event (firing order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> LoggedEvent {
        self.events[i]
    }

    /// Iterates the fired events in firing order.
    pub fn iter(&self) -> impl Iterator<Item = &LoggedEvent> {
        self.events.iter()
    }

    /// Appends a fired event. Called by the engine in `step()`, in
    /// firing order, so the vector index equals the firing index.
    pub(crate) fn record(&mut self, seq: u64, at: SimTime, kind: EventKind, a: u64, b: u64) {
        self.events.push(LoggedEvent {
            seq,
            at,
            kind,
            a,
            b,
        });
    }
}

impl<'a> IntoIterator for &'a EventLog {
    type Item = &'a LoggedEvent;
    type IntoIter = std::slice::Iter<'a, LoggedEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_keys_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_key(k.key()), Some(k));
        }
        assert_eq!(EventKind::from_key("nonsense"), None);
    }

    #[test]
    fn encode_covers_every_typed_variant_and_typed_inverts_it() {
        let cases = [
            (
                TypedEvent::RankResume { rank: 3 },
                EventKind::RankResume,
                3,
                0,
            ),
            (
                TypedEvent::MessageReady { src: 1, dst: 2 },
                EventKind::MessageReady,
                1,
                2,
            ),
            (
                TypedEvent::ScheduleStep { rank: 4, step: 11 },
                EventKind::ScheduleStep,
                4,
                11,
            ),
            (
                TypedEvent::Timer { id: u64::MAX },
                EventKind::Timer,
                u64::MAX,
                0,
            ),
        ];
        for (ev, kind, a, b) in cases {
            assert_eq!(encode(&ev), (kind, a, b));
            let logged = LoggedEvent {
                seq: 0,
                at: SimTime::ZERO,
                kind,
                a,
                b,
            };
            assert_eq!(logged.typed(), ev);
        }
    }

    #[test]
    fn record_preserves_firing_order() {
        let mut log = EventLog::default();
        log.record(2, SimTime::from_nanos(5), EventKind::Timer, 1, 0);
        log.record(0, SimTime::from_nanos(5), EventKind::RankResume, 2, 0);
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(0).seq, 2);
        assert_eq!(log.get(1).seq, 0);
    }
}
