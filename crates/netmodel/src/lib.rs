//! # netmodel — machine models of the SP2, T3D, and Paragon
//!
//! This crate turns the [`topo`] topologies into *timed* machines:
//!
//! * [`class`] — operation classes and the per-class software cost tables
//!   that stand in for the vendor MPI libraries;
//! * [`spec`] — [`MachineSpec`]: one machine's physics (hop latency, link
//!   bandwidth), software costs, and architectural features (hardware
//!   barrier, send engine);
//! * [`net`] — [`NetState`]: the mutable contention state plus the
//!   pipelined-wormhole wire-time model;
//! * [`machines`] — calibrated constructors [`sp2`], [`t3d`],
//!   [`paragon`] (see DESIGN.md §7 for calibration provenance);
//! * [`builder`] — [`MachineBuilder`] for custom machines (workstation
//!   clusters, what-if variants).
//!
//! # Examples
//!
//! Time a single point-to-point message on the T3D:
//!
//! ```
//! use netmodel::{t3d, NetState, OpClass};
//! use desim::SimTime;
//! use topo::NodeId;
//!
//! let spec = t3d();
//! let mut net = NetState::new(&spec, 8);
//! let t = net.send(&spec, OpClass::PointToPoint,
//!                  NodeId(0), NodeId(5), 1024, SimTime::ZERO);
//! assert!(t.delivered > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod builder;
pub mod class;
pub mod machines;
pub mod net;
pub mod spec;

pub use builder::MachineBuilder;
pub use class::{ClassCosts, CostTable, OpClass};
pub use machines::{paragon, sp2, t3d, MachineId};
pub use net::{NetInstr, NetState, SendTiming, WireConfig};
pub use spec::{HwBarrierSpec, MachineSpec, SendEngine, TopologyKind};
