//! # schedcheck — static analysis of collective communication schedules
//!
//! Verifies a compiled [`Schedule`](collectives::Schedule) *without
//! executing it*, proving the structural claims the paper's measurements
//! rest on (§3, Table 3):
//!
//! 1. **Happens-before graph** — program order, the FIFO message edges
//!    of [`Schedule::resolve`](collectives::Schedule::resolve) (the
//!    send-to-receive match `Schedule::check` runs on, so there is one
//!    matching rule), and barrier synchronization rounds; deadlocks are
//!    reported as the exact wait-for cycle.
//! 2. **Match-ambiguity races** — sends that could match a different
//!    `Recv` under another interleaving, a hazard the
//!    single-interleaving dynamic check cannot see. Reported through
//!    [`verify`] as [`ScheduleError::AmbiguousMatch`](collectives::ScheduleError::AmbiguousMatch).
//! 3. **Conservation lints** ([`conservation`]) — total bytes against
//!    each algorithm family's prediction (never below the paper's
//!    `f(m, p)` floor) and data-flow coverage of every required
//!    contribution (root reaches all, all reach root, scan prefixes,
//!    complete exchange).
//! 4. **Critical path** ([`critpath`]) — message depth against the
//!    family bound: `⌈log₂ p⌉` for trees and recursive doubling, `p − 1`
//!    for rings and pairwise exchange — the static counterpart of
//!    Table 3's O(log p) vs O(p) startup regimes.
//!
//! The structural pre-checks delegate to
//! [`Schedule::check`](collectives::Schedule::check), the same
//! routine the dynamic executor runs, so the static and runtime passes
//! share one implementation (and one error vocabulary,
//! [`ScheduleError`](collectives::ScheduleError)) and cannot drift.
//!
//! # Examples
//!
//! ```
//! use collectives::{Algorithm, Rank, build};
//! use netmodel::OpClass;
//! use schedcheck::{verify_expected, Expectations};
//!
//! let s = build(Algorithm::Binomial, OpClass::Bcast, 64, Rank(0), 1_024)?;
//! let report = verify_expected(&s, &Expectations {
//!     algorithm: Algorithm::Binomial,
//!     root: Rank(0),
//!     bytes: 1_024,
//! });
//! assert!(report.is_clean());
//! assert_eq!(report.stats.crit.depth, 6); // log2(64)
//! # Ok::<(), collectives::select::UnsupportedAlgorithm>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod ambiguity;
pub mod conservation;
pub mod critpath;
mod graph;
#[cfg(test)]
mod reference;
pub mod report;

pub use conservation::{coverage_gaps, expected_volume, VolumeBound};
pub use critpath::{analyze, depth_bound, CritPath};
pub use report::{verify, verify_expected, Expectations, Finding, Report, Stats};
