//! Static read/write footprints for the typed event vocabulary.
//!
//! The commutativity analyzer (`ordercheck`) needs to know, for two
//! events firing at the *same instant*, whether swapping their order can
//! change the simulation: two events commute if the state each handler
//! reads or writes is disjoint from the other's. This module declares,
//! per [`TypedEvent`] variant, the conservative set of abstract
//! [`Resource`]s its handler may touch — rank-private state, a directed
//! communicator channel, the shared network (link/FIFO occupancy), the
//! hardware-barrier word, or (for opaque payloads) everything.
//!
//! The footprints here are the *world-agnostic base*: what the event
//! payload alone implies. Analyzers that know more about the world —
//! e.g. that a rank's remaining program contains sends, so resuming it
//! can reach the shared network — refine a base footprint with
//! [`Footprint::with`]. Disjointness is checked by
//! [`Footprint::disjoint`]; [`Resource::Global`] conflicts with
//! everything, including itself.
//!
//! # Examples
//!
//! ```
//! use desim::{Footprint, Resource, TypedEvent};
//!
//! let a = TypedEvent::MessageReady { src: 0, dst: 1 }.footprint();
//! let b = TypedEvent::MessageReady { src: 0, dst: 2 }.footprint();
//! assert!(a.disjoint(&b)); // different destination ranks commute
//!
//! let c = TypedEvent::ScheduleStep { rank: 5, step: 3 }.footprint();
//! let d = TypedEvent::ScheduleStep { rank: 6, step: 3 }.footprint();
//! assert!(!c.disjoint(&d)); // both acquire shared link/FIFO state
//!
//! // Refinement: a resume of a rank that still has sends ahead of it
//! // can reach the network, so the analyzer widens its footprint.
//! let e = TypedEvent::RankResume { rank: 2 }.footprint().with(Resource::Network);
//! assert!(!e.disjoint(&c));
//! ```

use crate::event::TypedEvent;

/// One abstract unit of simulation state an event handler may read or
/// write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource {
    /// Everything private to one rank: its program position, mailbox,
    /// blocked/wait state, and per-rank accounting.
    Rank(u32),
    /// The in-flight payload stream from `src` to `dst` (FIFO channel
    /// semantics: delivery order on a channel is observable).
    Channel { src: u32, dst: u32 },
    /// The shared network state: link and injection-FIFO occupancy.
    /// Any two acquisitions can contend, so Network conflicts with
    /// Network.
    Network,
    /// The hardware-barrier synchronization word.
    Barrier,
    /// Opaque payload (timers): may touch anything. Conflicts with
    /// every resource including itself.
    Global,
}

impl Resource {
    /// True when two resources can alias: same rank, same channel, the
    /// shared network/barrier words, or [`Resource::Global`] against
    /// anything.
    pub fn conflicts(self, other: Resource) -> bool {
        match (self, other) {
            (Resource::Global, _) | (_, Resource::Global) => true,
            (Resource::Rank(a), Resource::Rank(b)) => a == b,
            (Resource::Channel { src: a, dst: b }, Resource::Channel { src: c, dst: d }) => {
                (a, b) == (c, d)
            }
            (Resource::Network, Resource::Network) => true,
            (Resource::Barrier, Resource::Barrier) => true,
            _ => false,
        }
    }
}

/// The set of resources one event handler may touch — at most
/// [`Footprint::MAX`] entries, stored inline (no allocation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    slots: [Option<Resource>; Footprint::MAX],
}

impl Footprint {
    /// Maximum resources per footprint: a base footprint holds at most
    /// two entries, and refinement can add Network and Barrier.
    pub const MAX: usize = 4;

    /// Builds a footprint from up to [`Footprint::MAX`] resources.
    ///
    /// # Panics
    ///
    /// Panics if more than [`Footprint::MAX`] resources are given.
    pub fn of(resources: &[Resource]) -> Self {
        let mut fp = Footprint::default();
        for &r in resources {
            fp = fp.with(r);
        }
        fp
    }

    /// Returns this footprint extended by `r` (idempotent: adding a
    /// resource already present is a no-op).
    ///
    /// # Panics
    ///
    /// Panics if the footprint already holds [`Footprint::MAX`]
    /// distinct resources.
    pub fn with(mut self, r: Resource) -> Self {
        if self.iter().any(|have| have == r) {
            return self;
        }
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.is_none())
            .expect("footprint capacity exceeded");
        *slot = Some(r);
        self
    }

    /// Iterates the resources present.
    pub fn iter(&self) -> impl Iterator<Item = Resource> + '_ {
        self.slots.iter().filter_map(|s| *s)
    }

    /// True when no resource of `self` can alias a resource of `other` —
    /// the commutation criterion for same-instant events.
    pub fn disjoint(&self, other: &Footprint) -> bool {
        !self.iter().any(|a| other.iter().any(|b| a.conflicts(b)))
    }
}

impl TypedEvent {
    /// The conservative world-agnostic footprint of this event's
    /// handler (see the [module docs](self) for the refinement
    /// contract).
    ///
    /// * `RankResume { rank }` — resumes one rank's program: rank state.
    /// * `MessageReady { src, dst }` — delivers on channel `src→dst`
    ///   into `dst`'s mailbox and may advance `dst` inline.
    /// * `ScheduleStep { rank, .. }` — re-reads the rank's step and
    ///   injects into the network, acquiring shared link/FIFO state.
    /// * `Timer` — opaque payload: global.
    pub fn footprint(&self) -> Footprint {
        match *self {
            TypedEvent::RankResume { rank } => Footprint::of(&[Resource::Rank(rank)]),
            TypedEvent::MessageReady { src, dst } => {
                Footprint::of(&[Resource::Rank(dst), Resource::Channel { src, dst }])
            }
            TypedEvent::ScheduleStep { rank, .. } => {
                Footprint::of(&[Resource::Rank(rank), Resource::Network])
            }
            TypedEvent::Timer { .. } => Footprint::of(&[Resource::Global]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_ranks_commute() {
        let a = TypedEvent::RankResume { rank: 0 }.footprint();
        let b = TypedEvent::RankResume { rank: 1 }.footprint();
        assert!(a.disjoint(&b));
        assert!(!a.disjoint(&a));
    }

    #[test]
    fn network_acquisitions_conflict() {
        let a = TypedEvent::ScheduleStep { rank: 0, step: 1 }.footprint();
        let b = TypedEvent::ScheduleStep { rank: 9, step: 4 }.footprint();
        assert!(!a.disjoint(&b));
    }

    #[test]
    fn deliveries_conflict_only_on_shared_destination() {
        let a = TypedEvent::MessageReady { src: 0, dst: 1 }.footprint();
        let b = TypedEvent::MessageReady { src: 2, dst: 1 }.footprint();
        let c = TypedEvent::MessageReady { src: 0, dst: 3 }.footprint();
        assert!(!a.disjoint(&b));
        assert!(a.disjoint(&c));
    }

    #[test]
    fn global_conflicts_with_everything() {
        let t = TypedEvent::Timer { id: 1 }.footprint();
        for other in [
            TypedEvent::RankResume { rank: 7 }.footprint(),
            TypedEvent::Timer { id: 2 }.footprint(),
        ] {
            assert!(!t.disjoint(&other));
        }
    }

    #[test]
    fn refinement_is_idempotent_and_widens() {
        let base = TypedEvent::RankResume { rank: 3 }.footprint();
        let widened = base.with(Resource::Network).with(Resource::Network);
        assert_eq!(widened.iter().count(), 2);
        let net = TypedEvent::ScheduleStep { rank: 8, step: 0 }.footprint();
        assert!(base.disjoint(&net));
        assert!(!widened.disjoint(&net));
    }

    #[test]
    fn footprint_of_dedupes() {
        let fp = Footprint::of(&[Resource::Network, Resource::Network, Resource::Barrier]);
        assert_eq!(fp.iter().count(), 2);
    }
}
