//! # collectives — MPI collective algorithms as communication schedules
//!
//! Every collective operation of the study compiles to a
//! [`Schedule`]: one ordered step program per rank
//! (sends, blocking receives, local reduction arithmetic, hardware
//! barrier entry). The `mpisim` executor replays these programs on the
//! discrete-event machine models.
//!
//! Algorithms implemented (vendor choices per §7–§8 of the paper, plus
//! baselines for ablation):
//!
//! | Operation | Vendor schedule | Baselines |
//! |---|---|---|
//! | Broadcast | binomial tree | linear |
//! | Scatter / Gather | linear root loop | binomial |
//! | Total exchange | pairwise XOR (ring fallback) | ring, Bruck |
//! | Reduce | binomial fan-in | linear |
//! | Scan | recursive doubling | linear pipeline |
//! | Barrier | dissemination (T3D: hardware) | tree |
//! | Allgather/Allreduce/Reduce-scatter | ring / recursive doubling / pairwise (extensions) | — |
//!
//! # Examples
//!
//! ```
//! use collectives::{select, schedule::Rank};
//! use netmodel::{MachineId, OpClass};
//!
//! let s = select::vendor_schedule(
//!     MachineId::T3d, OpClass::Bcast, 64, Rank(0), 65_536,
//! )?;
//! assert_eq!(s.message_depth(), 6); // log2(64) stages
//! # Ok::<(), collectives::select::UnsupportedAlgorithm>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod alltoall;
pub mod barrier;
pub mod bcast;
pub mod extra;
pub mod gather;
pub mod patterns;
pub mod reduce;
pub mod scan;
pub mod scatter;
pub mod schedule;
pub mod select;

pub use schedule::{Checked, Rank, Schedule, ScheduleError, Slots, Step};
pub use select::{build, generic_algorithm, vendor_algorithm, vendor_schedule, Algorithm};
