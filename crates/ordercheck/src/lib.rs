//! Same-instant commutativity analysis for collective runs.
//!
//! The simulator breaks event-queue ties (same firing instant) by
//! insertion order. Earlier work showed that inverting *all* ties
//! (`TieBreakPolicy::InvertAll`) produces divergent runs on contended
//! points — so tie order is semantically load-bearing somewhere. This
//! crate answers *where*, and certifies everywhere else:
//!
//! 1. **Static layer** ([`model`]) — an independence relation over
//!    [`desim::TypedEvent`] variants derived from read/write footprints
//!    ([`desim::Footprint`]): the rank state an event resumes, the
//!    link/FIFO occupancy it may acquire, and the channel it delivers
//!    on. Footprints are widened by whole-program closure flags from
//!    the [`collectives::Schedule`] (a rank that ever sends couples to
//!    the network; a rank that ever barriers couples to the barrier
//!    line), so the relation is sound for the event's entire causal
//!    future, not just its immediate handler. Two same-instant events
//!    commute statically iff their widened footprints are disjoint.
//!
//! 2. **Dynamic layer** ([`explore`]) — a DPOR-style explorer over a
//!    recorded [`desim::EventLog`]: enumerate same-instant adjacent
//!    pairs, prune pairs already ordered by provenance (parent → child
//!    is not co-enabled), then re-execute the run with a
//!    targeted [`mpisim::TieBreakPolicy::InvertPair`] swap and compare
//!    the two runs under the canonical-order oracle
//!    ([`obs::RunRecord::canonicalized`]). A pair whose inversion
//!    changes the canonicalized record is **order-sensitive**; if the
//!    static layer called it independent, it is **unexplained** — the
//!    deny-gate failure condition.
//!
//! The output is a machine-readable commutability census per suite
//! point ([`census`]), naming the event-class pairs whose order
//! matters. [`demo`] seeds the known failure mode (invert *all* ties)
//! and reports the minimal divergent pair with provenance context —
//! the end-to-end proof that the analysis catches real reorder bugs.

pub mod census;
pub mod demo;
pub mod explore;
pub mod model;

pub use census::{ClassCensus, PointCensus, SuiteCensus};
pub use demo::{demo_broken, DemoReport, MinimalPair, Transposition};
pub use explore::{
    analyze_point, enumerate, suite_census, Candidate, Enumeration, ExploreOptions, PointSpec,
};
pub use model::StaticModel;
