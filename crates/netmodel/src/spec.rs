//! Machine specifications.
//!
//! A [`MachineSpec`] is a pure description of one multicomputer: its
//! topology family, wire physics, software cost table, and architectural
//! features (hardware barrier, send engine). Instantiating the mutable
//! network state for a particular partition size happens in
//! [`crate::net::NetState`].

use crate::class::{CostTable, OpClass};
use topo::{Crossbar, FatTree, Hypercube, Mesh2d, Omega, Topology, Torus3d};

/// Which interconnect family a machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// 3-D bidirectional torus (Cray T3D).
    Torus3d,
    /// 2-D mesh with XY routing (Intel Paragon).
    Mesh2d,
    /// Multistage Omega network with the given switch radix (IBM SP2).
    Omega {
        /// Switch radix (ports per direction).
        radix: usize,
    },
    /// Ideal contention-free crossbar (ablation baseline, not a paper
    /// machine).
    Crossbar,
    /// Binary hypercube (what-if topology, not a paper machine).
    Hypercube,
    /// K-ary fat tree with up/down routing (alternative SP2 abstraction).
    FatTree {
        /// Switch radix.
        radix: usize,
    },
}

impl TopologyKind {
    /// Builds the concrete topology for a `p`-node partition.
    pub fn build(self, p: usize) -> Box<dyn Topology + Send + Sync> {
        match self {
            TopologyKind::Torus3d => Box::new(Torus3d::for_nodes(p)),
            TopologyKind::Mesh2d => Box::new(Mesh2d::for_nodes(p)),
            TopologyKind::Omega { radix } => Box::new(Omega::new(p, radix)),
            TopologyKind::Crossbar => Box::new(Crossbar::new(p)),
            TopologyKind::Hypercube => Box::new(Hypercube::for_nodes(p)),
            TopologyKind::FatTree { radix } => Box::new(FatTree::new(p, radix)),
        }
    }
}

/// How the send path moves payload bytes out of the node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendEngine {
    /// The CPU itself copies and injects; it stays busy for the whole
    /// per-byte cost (IBM SP2).
    Cpu,
    /// A dedicated message co-processor streams the payload; the CPU is
    /// released after posting the descriptor (Intel Paragon's i860 MP).
    Coprocessor {
        /// Co-processor streaming cost, nanoseconds per byte.
        ns_per_byte: f64,
    },
    /// CPU copies small messages; payloads at or above `threshold_bytes`
    /// are handed to the block-transfer engine (Cray T3D BLT).
    BlockTransfer {
        /// Minimum payload size routed through the BLT.
        threshold_bytes: u32,
        /// One-time BLT descriptor setup, microseconds.
        setup_us: f64,
        /// BLT streaming cost, nanoseconds per byte.
        ns_per_byte: f64,
    },
}

/// A hardware barrier network (the T3D's hardwired AND tree).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HwBarrierSpec {
    /// Fixed release latency once the last rank arrives, microseconds.
    pub base_us: f64,
    /// Additional latency per log2(p) level of the AND tree, microseconds.
    pub per_level_us: f64,
}

impl HwBarrierSpec {
    /// Release latency for a `p`-rank barrier, microseconds.
    pub fn latency_us(&self, p: usize) -> f64 {
        let levels = (p.max(1) as f64).log2();
        self.base_us + self.per_level_us * levels
    }
}

/// A complete description of one multicomputer.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Human-readable machine name ("IBM SP2", …).
    pub name: &'static str,
    /// Interconnect family.
    pub topology: TopologyKind,
    /// Per-hop switch/router latency, nanoseconds.
    pub hop_ns: f64,
    /// Link streaming cost, nanoseconds per byte (inverse link bandwidth).
    pub link_ns_per_byte: f64,
    /// Smallest unit that occupies the wire (packet/flit floor), bytes.
    pub min_packet_bytes: u32,
    /// Per-class software costs (calibrated; see DESIGN.md §7).
    pub costs: CostTable,
    /// Reduction arithmetic cost, nanoseconds per byte of operand.
    pub compute_ns_per_byte: f64,
    /// How payload leaves the node.
    pub send_engine: SendEngine,
    /// Hardware barrier support, if any.
    pub hw_barrier: Option<HwBarrierSpec>,
    /// Largest partition the paper measured on this machine.
    pub max_nodes: usize,
}

impl MachineSpec {
    /// Validates physical sanity of all parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.hop_ns < 0.0 || !self.hop_ns.is_finite() {
            return Err(format!("hop_ns invalid: {}", self.hop_ns));
        }
        if self.link_ns_per_byte <= 0.0 || !self.link_ns_per_byte.is_finite() {
            return Err(format!(
                "link_ns_per_byte invalid: {}",
                self.link_ns_per_byte
            ));
        }
        if self.min_packet_bytes == 0 {
            return Err("min_packet_bytes must be positive".into());
        }
        if self.compute_ns_per_byte < 0.0 {
            return Err("compute_ns_per_byte must be non-negative".into());
        }
        if self.max_nodes == 0 {
            return Err("max_nodes must be positive".into());
        }
        match self.send_engine {
            SendEngine::Cpu => {}
            SendEngine::Coprocessor { ns_per_byte } => {
                if ns_per_byte < 0.0 {
                    return Err("coprocessor ns_per_byte must be non-negative".into());
                }
            }
            SendEngine::BlockTransfer {
                threshold_bytes,
                setup_us,
                ns_per_byte,
            } => {
                if threshold_bytes == 0 {
                    return Err("BLT threshold must be positive".into());
                }
                if setup_us < 0.0 || ns_per_byte < 0.0 {
                    return Err("BLT costs must be non-negative".into());
                }
            }
        }
        self.costs.validate()
    }

    /// Link bandwidth in MB/s (the number the paper quotes).
    pub fn link_bandwidth_mb_s(&self) -> f64 {
        1_000.0 / self.link_ns_per_byte
    }

    /// Whether `class` on this machine bypasses the network software path
    /// entirely (currently: barrier on machines with a hardware barrier).
    pub fn uses_hw_barrier(&self, class: OpClass) -> bool {
        class == OpClass::Barrier && self.hw_barrier.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassCosts, CostTable};

    fn dummy() -> MachineSpec {
        MachineSpec {
            name: "dummy",
            topology: TopologyKind::Mesh2d,
            hop_ns: 40.0,
            link_ns_per_byte: 5.0,
            min_packet_bytes: 32,
            costs: CostTable::uniform(ClassCosts::FREE),
            compute_ns_per_byte: 10.0,
            send_engine: SendEngine::Cpu,
            hw_barrier: None,
            max_nodes: 128,
        }
    }

    #[test]
    fn valid_spec_passes() {
        assert!(dummy().validate().is_ok());
    }

    #[test]
    fn invalid_fields_rejected() {
        let mut s = dummy();
        s.link_ns_per_byte = 0.0;
        assert!(s.validate().is_err());

        let mut s = dummy();
        s.min_packet_bytes = 0;
        assert!(s.validate().is_err());

        let mut s = dummy();
        s.send_engine = SendEngine::BlockTransfer {
            threshold_bytes: 0,
            setup_us: 1.0,
            ns_per_byte: 1.0,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn bandwidth_conversion() {
        let mut s = dummy();
        s.link_ns_per_byte = 25.0; // SP2: 40 MB/s
        assert!((s.link_bandwidth_mb_s() - 40.0).abs() < 1e-9);
        s.link_ns_per_byte = 1_000.0 / 300.0; // T3D: 300 MB/s
        assert!((s.link_bandwidth_mb_s() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn topology_kinds_build() {
        assert_eq!(TopologyKind::Torus3d.build(64).nodes(), 64);
        assert_eq!(TopologyKind::Mesh2d.build(128).nodes(), 128);
        assert_eq!(TopologyKind::Omega { radix: 4 }.build(16).nodes(), 16);
        assert_eq!(TopologyKind::Crossbar.build(32).nodes(), 32);
        assert_eq!(TopologyKind::Hypercube.build(64).nodes(), 64);
        assert_eq!(TopologyKind::FatTree { radix: 4 }.build(48).nodes(), 48);
    }

    #[test]
    fn hw_barrier_latency() {
        let hb = HwBarrierSpec {
            base_us: 3.0,
            per_level_us: 0.011,
        };
        assert!((hb.latency_us(2) - 3.011).abs() < 1e-9);
        assert!((hb.latency_us(64) - (3.0 + 0.011 * 6.0)).abs() < 1e-9);
        assert!((hb.latency_us(1) - 3.0).abs() < 1e-9, "log2(1)=0");
    }

    #[test]
    fn hw_barrier_flag_only_for_barrier() {
        let mut s = dummy();
        s.hw_barrier = Some(HwBarrierSpec {
            base_us: 3.0,
            per_level_us: 0.0,
        });
        assert!(s.uses_hw_barrier(OpClass::Barrier));
        assert!(!s.uses_hw_barrier(OpClass::Bcast));
        assert!(!dummy().uses_hw_barrier(OpClass::Barrier));
    }
}
