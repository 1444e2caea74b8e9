//! # report — tables, CSV, and ASCII charts for the reproduction
//!
//! Presentation utilities used by the `bench` binaries that regenerate
//! the paper's tables and figures:
//!
//! * [`table::Table`] — aligned text and markdown tables (Table 3,
//!   headline comparisons);
//! * [`chart::LogChart`] — log-log ASCII charts (Figs. 1–3, 5);
//! * [`csv`] — dataset export for external plotting;
//! * [`timeline::Timeline`] — per-rank message timelines from executor
//!   traces.

#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod chart;
pub mod csv;
pub mod diff;
pub mod gnuplot;
pub mod metrics;
pub mod table;
pub mod timeline;

pub use chart::{LogChart, Series};
pub use gnuplot::GnuplotFigure;
pub use table::Table;
pub use timeline::{Timeline, TimelineMessage};
