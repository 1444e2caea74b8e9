//! # harness — the paper's measurement methodology
//!
//! Reimplements §2 of the paper over the simulator: warm-up discards,
//! `k`-iteration timing loops fenced by a (logically synchronizing)
//! barrier, per-process `MPI_Wtime` readings on skewed clocks with
//! finite timer resolution, max-reduction across processes, and five
//! independent repetitions.
//!
//! * [`Protocol`] — every methodology knob, defaulting to the paper's;
//! * [`measure()`](measure::measure) — one `T(m, p)` data point;
//! * [`SweepBuilder`] — grids of measurements over machines × operations
//!   × message lengths × node counts, optionally sharded across worker
//!   threads ([`SweepBuilder::threads`]) with a deterministic
//!   canonical-order merge;
//! * [`par`] — the work-distributing executor behind parallel sweeps
//!   (`thread::scope` + shared atomic work index, no dependencies);
//! * [`Dataset`] — series queries used by the figure/table generators.
//!
//! # Examples
//!
//! ```
//! use harness::{measure, Protocol};
//! use mpisim::{Machine, OpClass};
//!
//! let comm = Machine::t3d().communicator(16)?;
//! let point = measure(&comm, OpClass::Bcast, 1024, &Protocol::quick())?;
//! println!("T(1KB, 16) = {:.1} us on {}", point.time_us, point.machine);
//! # Ok::<(), mpisim::SimMpiError>(())
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod dataset;
pub mod measure;
pub mod par;
pub mod pingpong;
pub mod protocol;
pub mod sweep;

pub use dataset::{Dataset, ParseDatasetError, CSV_HEADER};
pub use measure::{measure, Measurement};
pub use par::{map_indexed, resolve_threads, run_indexed};
pub use pingpong::{measure_pingpong, PingPongSample};
pub use protocol::Protocol;
pub use sweep::{SweepBuilder, PAPER_MESSAGE_SIZES, PAPER_NODE_COUNTS};
