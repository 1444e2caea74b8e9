//! # obs — low-overhead simulator observability
//!
//! The measurement substrate for the HPCA'97 reproduction: the paper's
//! whole argument decomposes measured time (`T(m,p) = T0(p) + D(m,p)`),
//! and this crate gives the simulator the same power over its own runs —
//! *where* does simulated time go (software overhead vs. wire vs.
//! blocked-waiting), which links saturate, and why two schedules differ.
//!
//! The pieces:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and power-of-two
//!   histograms. Simulator components keep their own cheap accumulators
//!   and export into a registry once per run.
//! * [`ChromeTrace`] — span/flow sink producing Chrome Trace Event
//!   Format JSON (loadable in Perfetto / `chrome://tracing`): one track
//!   per MPI rank, async arrows for messages.
//! * [`RunManifest`] — provenance header (machine, p, m, seed, config
//!   ablations) attached to every exported artifact.
//! * [`prom`] — Prometheus text-exposition export of a registry.
//! * [`critpath`] — causal critical-path reconstruction: walks blame
//!   spans backward from completion and decomposes end-to-end latency
//!   into exact per-category totals, plus the contention census.
//!
//! The crate is intentionally dependency-free — even of `desim` — so
//! every layer of the stack can feed it without cycles. Times cross the
//! boundary as integer nanoseconds or float microseconds.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod critpath;
pub mod diff;
pub mod json;
pub mod manifest;
pub mod prom;
pub mod record;
pub mod registry;
pub mod trace;

pub use diff::{DiffReport, Verdict};
pub use json::{validate, Json};
pub use manifest::RunManifest;
pub use record::RunRecord;
pub use registry::{Metric, MetricsRegistry, Pow2Histogram};
pub use trace::ChromeTrace;
