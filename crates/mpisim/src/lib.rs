//! # mpisim — an MPI-like collective layer over simulated multicomputers
//!
//! The public API of the reproduction: open a [`Machine`] (SP2, T3D, or
//! Paragon, or a custom spec), derive a [`Communicator`], and invoke the
//! collective operations the paper evaluates. Each call compiles the
//! machine's vendor algorithm to a per-rank schedule
//! ([`collectives`]) and executes it event by event on the machine model
//! ([`netmodel`] over [`desim`]), returning per-rank elapsed times.
//!
//! ```
//! use mpisim::{Machine, Rank};
//!
//! // Total exchange of 64 KB messages on 64 T3D nodes (paper §5):
//! let machine = Machine::t3d();
//! let comm = machine.communicator(64)?;
//! let outcome = comm.alltoall(65_536)?;
//! println!("T(64KB, 64) = {}", outcome.time());
//! assert!(outcome.time().as_millis_f64() > 1.0); // tens of ms territory
//! # Ok::<(), mpisim::SimMpiError>(())
//! ```
//!
//! [`Communicator::run`], [`Communicator::run_with`] and
//! [`Communicator::run_observed`] are the only way to execute a
//! schedule; [`RunOptions`] holds every per-run setting. For the paper's
//! exact measurement methodology (warm-up discards, k-iteration loops,
//! max-reduction over unsynchronized clocks) see the `harness` crate,
//! which drives [`Communicator::run_with`].

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod comm;
pub mod critpath;
pub mod datatype;
pub mod error;
pub mod exec;
pub mod machine;
pub mod observe;
pub mod placement;
pub mod record;

pub use collectives::{Rank, Schedule, Step};
pub use comm::{CollectiveOutcome, Communicator, RunOptions};
pub use critpath::{analyze, CritPath};
pub use datatype::Datatype;
pub use error::SimMpiError;
pub use exec::{
    CpuNoise, ExecOutcome, MessageTrace, Observed, PhaseKind, PhaseSpan, RankPhases, TieBreakPolicy,
};
pub use machine::{AlgorithmPolicy, Machine};
pub use netmodel::{MachineId, OpClass, WireConfig};
pub use placement::{ExplicitPlacement, Placement};
