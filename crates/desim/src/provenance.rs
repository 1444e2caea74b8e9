//! Causal event provenance: one compact parent edge per scheduled event.
//!
//! When an engine is built with [`Engine::with_provenance`] every call
//! that enqueues an event also records *which event was firing at the
//! time* — the causal parent. Because the scheduler assigns sequence
//! numbers in push order, the records form a flat `Vec` indexed by
//! sequence number: 16 bytes per event, no hashing, no pointers. The
//! collected [`Provenance`] can then be walked backwards from any event
//! (typically the last one fired) to reconstruct the causal chain that
//! produced it — the raw material of critical-path analysis.
//!
//! The hook is an `Option<Box<Provenance>>` that costs one branch per
//! push and zero allocations when disabled.
//!
//! [`Engine::with_provenance`]: crate::Engine::with_provenance
//!
//! # Examples
//!
//! ```
//! use desim::{Engine, EventWorld, Scheduler, SimDuration, TypedEvent};
//!
//! #[derive(Default)]
//! struct World;
//! impl EventWorld for World {
//!     fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
//!         let TypedEvent::Timer { id } = ev else { unreachable!() };
//!         if id < 2 {
//!             s.post_in(SimDuration::from_nanos(10), TypedEvent::Timer { id: id + 1 });
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new().with_provenance(3);
//! engine.post_in(SimDuration::from_nanos(5), TypedEvent::Timer { id: 0 });
//! engine.run(&mut World);
//! let prov = engine.take_provenance().expect("collected");
//! // Timer 0 -> Timer 1 -> Timer 2: a three-event causal chain.
//! assert_eq!(prov.chain(prov.last_fired().unwrap()), vec![2, 1, 0]);
//! ```

use crate::time::SimTime;

/// Sentinel parent for events scheduled outside any dispatch (the
/// simulation's root stimuli, posted before `run`).
pub const ROOT: u64 = u64::MAX;

/// The causal edge recorded for one scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvRecord {
    /// Sequence number of the event that was being dispatched when this
    /// one was scheduled; [`ROOT`] for events posted from outside the
    /// event loop.
    pub parent: u64,
    /// The instant the event was scheduled to fire at.
    pub at: SimTime,
}

/// The collected causal-parent log, indexed by event sequence number.
///
/// Only meaningful when provenance recording was enabled for the
/// engine's whole lifetime (which [`crate::Engine::with_provenance`]
/// guarantees — it is a construction-time switch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    records: Vec<ProvRecord>,
    last_fired: u64,
}

impl Default for Provenance {
    fn default() -> Self {
        Provenance::with_capacity(0)
    }
}

impl Provenance {
    /// An empty log with room for `capacity` records.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Provenance {
            records: Vec::with_capacity(capacity),
            last_fired: ROOT,
        }
    }

    /// Number of events recorded (equals the engine's scheduled total).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been scheduled yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record for event `seq`, if it exists.
    pub fn get(&self, seq: u64) -> Option<ProvRecord> {
        usize::try_from(seq)
            .ok()
            .and_then(|i| self.records.get(i).copied())
    }

    /// The causal parent of event `seq`; `None` for [`ROOT`] parents or
    /// unknown sequence numbers.
    pub fn parent_of(&self, seq: u64) -> Option<u64> {
        self.get(seq).map(|r| r.parent).filter(|&p| p != ROOT)
    }

    /// Sequence number of the most recently dispatched event; `None`
    /// before anything fired.
    pub fn last_fired(&self) -> Option<u64> {
        (self.last_fired != ROOT).then_some(self.last_fired)
    }

    /// Appends one record (crate-internal: the scheduler's push hook).
    pub(crate) fn record(&mut self, parent: u64, at: SimTime) {
        self.records.push(ProvRecord { parent, at });
    }

    /// Marks `seq` as the event currently being dispatched.
    pub(crate) fn mark_fired(&mut self, seq: u64) {
        self.last_fired = seq;
    }

    /// The causal chain ending at `seq`, newest first, walking parent
    /// edges back to a root stimulus. Returns an empty chain for an
    /// unknown sequence number.
    pub fn chain(&self, seq: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = seq;
        while let Some(rec) = self.get(cur) {
            out.push(cur);
            if rec.parent == ROOT {
                break;
            }
            cur = rec.parent;
        }
        out
    }

    /// Length of the causal chain ending at the last fired event; 0
    /// before anything fired.
    pub fn chain_depth(&self) -> usize {
        self.last_fired().map_or(0, |seq| self.chain(seq).len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::event::{EventWorld, TypedEvent};
    use crate::time::SimDuration;
    use crate::Scheduler;

    /// Each timer re-arms `id` more timers, giving a known causal tree.
    #[derive(Default)]
    struct Cascade {
        fired: Vec<u64>,
    }

    impl EventWorld for Cascade {
        fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
            let TypedEvent::Timer { id } = ev else {
                unreachable!()
            };
            self.fired.push(id);
            for _ in 0..id {
                s.post_in(
                    SimDuration::from_nanos(10),
                    TypedEvent::Timer { id: id - 1 },
                );
            }
        }
    }

    #[test]
    fn records_parent_edges_and_chains() {
        let mut e = Engine::new().with_provenance(0);
        let mut w = Cascade::default();
        e.post_at(SimTime::from_nanos(1), TypedEvent::Timer { id: 2 });
        e.run(&mut w);
        // Timer 2 spawns two Timer 1s, each spawning one Timer 0:
        // 5 events total.
        assert_eq!(w.fired, vec![2, 1, 1, 0, 0]);
        let prov = e.take_provenance().expect("enabled");
        assert_eq!(prov.len(), 5);
        // Root stimulus has the ROOT parent; its children point at it.
        assert_eq!(prov.get(0).unwrap().parent, ROOT);
        assert_eq!(prov.parent_of(0), None);
        assert_eq!(prov.parent_of(1), Some(0));
        assert_eq!(prov.parent_of(2), Some(0));
        // The last fired event (a Timer 0) chains back to the root.
        let last = prov.last_fired().expect("events fired");
        let chain = prov.chain(last);
        assert_eq!(chain.len(), 3, "timer 0 <- timer 1 <- timer 2");
        assert_eq!(*chain.last().unwrap(), 0);
        assert_eq!(prov.chain_depth(), 3);
        // Scheduled instants are recorded.
        assert_eq!(prov.get(0).unwrap().at, SimTime::from_nanos(1));
    }

    #[test]
    fn disabled_engine_collects_nothing() {
        let mut e = Engine::new();
        let mut w = Cascade::default();
        e.post_at(SimTime::from_nanos(1), TypedEvent::Timer { id: 2 });
        e.run(&mut w);
        assert!(e.take_provenance().is_none());
    }

    #[test]
    fn provenance_does_not_perturb_or_allocate_events() {
        let run = |prov: bool| {
            let mut e = if prov {
                Engine::new().with_provenance(0)
            } else {
                Engine::new()
            };
            let mut w = Cascade::default();
            e.post_at(SimTime::from_nanos(1), TypedEvent::Timer { id: 3 });
            let end = e.run(&mut w);
            (end, w.fired, e.event_stats())
        };
        let (end_off, fired_off, stats_off) = run(false);
        let (end_on, fired_on, stats_on) = run(true);
        assert_eq!(end_off, end_on, "provenance must not change timing");
        assert_eq!(fired_off, fired_on);
        // Provenance posts no events of its own.
        assert_eq!(stats_off, stats_on);
    }

    #[test]
    fn unknown_seq_yields_empty_chain() {
        let prov = Provenance::default();
        assert!(prov.chain(42).is_empty());
        assert!(prov.last_fired().is_none());
        assert_eq!(prov.chain_depth(), 0);
        assert!(prov.is_empty());
    }
}
