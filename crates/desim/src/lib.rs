//! # desim — deterministic discrete-event simulation kernel
//!
//! The foundation of the multicomputer simulator used to reproduce the
//! HPCA'97 MPI collective-communication study. Everything above this crate
//! (topologies, machine models, the MPI layer) is expressed in terms of:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — integer-nanosecond clock;
//! * [`engine::Engine`] — the event engine over a user world type,
//!   with deterministic FIFO tie-breaking. Its pending events sit in a
//!   few sorted FIFO lanes, one per constant delay, in front of a binary
//!   heap that takes the rest (see the [`engine`] module);
//! * [`event::TypedEvent`] — the plain-data event vocabulary, stored
//!   inline in the pending set and dispatched through the world's
//!   [`event::EventWorld::dispatch`] match;
//! * [`resource::FifoResource`] — serializing servers used for links, NIC
//!   ports and DMA engines;
//! * [`rng::SplitMix64`] — seeded randomness for clock skew and noise.
//!
//! # Examples
//!
//! A two-event simulation:
//!
//! ```
//! use desim::{Engine, EventWorld, Scheduler, SimDuration, TypedEvent};
//!
//! #[derive(Default)]
//! struct World {
//!     total: u64,
//! }
//!
//! impl EventWorld for World {
//!     fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
//!         let TypedEvent::Timer { id } = ev else { unreachable!() };
//!         self.total += id;
//!         if id == 1 {
//!             s.post_in(SimDuration::from_micros(2), TypedEvent::Timer { id: 10 });
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new();
//! let mut world = World::default();
//! engine.post_in(SimDuration::from_micros(1), TypedEvent::Timer { id: 1 });
//! let end = engine.run(&mut world);
//! assert_eq!(world.total, 11);
//! assert_eq!(end.as_micros_f64(), 3.0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod check;
pub mod engine;
pub mod event;
pub mod eventlog;
pub mod footprint;
pub mod provenance;
pub mod resource;
pub mod rng;
pub mod time;

pub use engine::{Engine, Scheduler};
pub use event::{EventStats, EventWorld, TypedEvent};
pub use eventlog::{EventKind, EventLog, LoggedEvent};
pub use footprint::{Footprint, Resource};
pub use provenance::{ProvRecord, Provenance};
pub use resource::{FifoResource, ResourcePool};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
