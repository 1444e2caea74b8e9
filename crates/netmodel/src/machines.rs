//! Calibrated machine models for the three multicomputers of the study.
//!
//! # Where the numbers come from
//!
//! *Physical* constants are taken directly from the paper (§4): per-hop
//! network latency of 125 ns (SP2), 20 ns (T3D), 40 ns (Paragon), and
//! link bandwidths of 40, 300, and 175 MB/s respectively.
//!
//! *Software* constants (per-message overheads, per-byte copy costs)
//! encapsulate the vendor MPI library code paths we cannot run — MPICH
//! over MPL on the SP2, CRI/EPCC MPI on the T3D, MPICH over NX on the
//! Paragon. They were calibrated so that the full simulation pipeline
//! (collective schedules → discrete-event execution → the paper's
//! measurement methodology → least-squares fitting) reproduces the
//! shapes and magnitudes of the paper's Table 3; see
//! `results/calibrate.txt` (written by `full_report --out results`) and
//! `EXPERIMENTS.md`. Starting points were derived analytically from
//! Table 3 coefficients, e.g. the SP2's 5.8 µs/message scatter startup
//! slope is charged as the root's per-send overhead.
//!
//! Architectural features follow the paper's narrative (§4, §5): the
//! T3D's hardwired barrier (≈3 µs regardless of size) and block-transfer
//! engine for long messages; the Paragon's dedicated i860 message
//! co-processor; the SP2's CPU-driven messaging.

use crate::class::{ClassCosts, CostTable, OpClass};
use crate::spec::{HwBarrierSpec, MachineSpec, SendEngine, TopologyKind};

/// Identifies one of the three machines of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MachineId {
    /// IBM SP2 (Maui High-Performance Computing Center configuration).
    Sp2,
    /// Cray T3D (Cray Eagan Center configuration).
    T3d,
    /// Intel Paragon (San Diego Supercomputer Center configuration).
    Paragon,
}

impl MachineId {
    /// All three machines, in the paper's order.
    pub const ALL: [MachineId; 3] = [MachineId::Sp2, MachineId::T3d, MachineId::Paragon];

    /// Builds the calibrated spec for this machine.
    pub fn spec(self) -> MachineSpec {
        match self {
            MachineId::Sp2 => sp2(),
            MachineId::T3d => t3d(),
            MachineId::Paragon => paragon(),
        }
    }

    /// Paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            MachineId::Sp2 => "SP2",
            MachineId::T3d => "T3D",
            MachineId::Paragon => "Paragon",
        }
    }

    /// Largest partition measured in the paper (T3D allocation was capped
    /// at 64 nodes; SP2 and Paragon went to 128).
    pub fn max_nodes(self) -> usize {
        match self {
            MachineId::T3d => 64,
            _ => 128,
        }
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn costs(
    entry_us: f64,
    o_send_us: f64,
    o_recv_us: f64,
    byte_send_ns: f64,
    byte_recv_ns: f64,
) -> ClassCosts {
    ClassCosts {
        entry_us,
        o_send_us,
        o_recv_us,
        byte_send_ns,
        byte_recv_ns,
        offload: true,
    }
}

/// Costs for a class whose per-block copies stay on the CPU even when the
/// machine has an offload engine (non-contiguous buffer handling in the
/// vendor library).
fn costs_cpu(
    entry_us: f64,
    o_send_us: f64,
    o_recv_us: f64,
    byte_send_ns: f64,
    byte_recv_ns: f64,
) -> ClassCosts {
    ClassCosts {
        offload: false,
        ..costs(entry_us, o_send_us, o_recv_us, byte_send_ns, byte_recv_ns)
    }
}

/// The IBM SP2: Omega-network multistage switch, CPU-driven messaging
/// (no co-processor, no hardware barrier), 40 MB/s links.
pub fn sp2() -> MachineSpec {
    let table = CostTable::uniform(costs(0.0, 20.0, 20.0, 2.0, 2.0))
        //                          entry  o_send o_recv  bs   br
        .with(OpClass::Barrier, costs(0.0, 52.0, 52.0, 0.0, 0.0))
        .with(OpClass::Bcast, costs(30.0, 50.0, 45.0, 4.0, 4.0))
        .with(OpClass::Gather, costs(128.0, 2.0, 3.7, 0.0, 0.0))
        .with(OpClass::Scatter, costs(77.0, 5.8, 3.0, 30.0, 7.0))
        .with(OpClass::Reduce, costs(26.0, 52.0, 52.0, 2.0, 16.0))
        .with(OpClass::Scan, costs(0.0, 48.0, 48.0, 2.0, 2.0))
        .with(OpClass::Alltoall, costs(90.0, 12.0, 12.0, 23.0, 23.0));
    MachineSpec {
        name: "IBM SP2",
        topology: TopologyKind::Omega { radix: 4 },
        hop_ns: 125.0,
        link_ns_per_byte: 25.0, // 40 MB/s
        min_packet_bytes: 64,
        costs: table,
        compute_ns_per_byte: 12.0, // POWER2 reduction arithmetic
        send_engine: SendEngine::Cpu,
        hw_barrier: None,
        max_nodes: 128,
    }
}

/// The Cray T3D: 3-D torus, hardwired barrier tree, block-transfer engine
/// for long messages, 300 MB/s links, 20 ns hops.
pub fn t3d() -> MachineSpec {
    let table = CostTable::uniform(costs(0.0, 10.0, 10.0, 2.0, 2.0))
        .with(OpClass::Barrier, costs(0.0, 10.0, 10.0, 0.0, 0.0)) // barrier HW ignores these; generic-policy ablation uses them
        .with(OpClass::Bcast, costs_cpu(12.0, 21.0, 19.0, 9.0, 12.0))
        .with(OpClass::Gather, costs(30.0, 2.0, 5.3, 0.5, 4.7))
        .with(OpClass::Scatter, costs_cpu(67.0, 4.3, 2.0, 11.0, 1.5))
        .with(OpClass::Reduce, costs(49.0, 30.0, 29.0, 2.0, 50.0))
        .with(OpClass::Scan, costs(41.0, 14.0, 13.0, 2.0, 40.0))
        .with(OpClass::Alltoall, costs(8.6, 13.0, 12.0, 10.0, 30.0));
    MachineSpec {
        name: "Cray T3D",
        topology: TopologyKind::Torus3d,
        hop_ns: 20.0,
        link_ns_per_byte: 1_000.0 / 300.0, // 300 MB/s
        min_packet_bytes: 32,
        costs: table,
        compute_ns_per_byte: 15.0, // Alpha 21064 reduction arithmetic
        send_engine: SendEngine::BlockTransfer {
            threshold_bytes: 1024,
            setup_us: 2.0,
            ns_per_byte: 0.5,
        },
        hw_barrier: Some(HwBarrierSpec {
            base_us: 3.0,
            per_level_us: 0.011,
        }),
        max_nodes: 64,
    }
}

/// The Intel Paragon: 2-D mesh, i860 message co-processor per node,
/// NX kernel messaging (long per-message overheads for the many-to-many
/// operations), 175 MB/s links.
pub fn paragon() -> MachineSpec {
    let table = CostTable::uniform(costs(0.0, 30.0, 30.0, 0.0, 4.0))
        .with(OpClass::Barrier, costs(0.0, 73.0, 72.0, 0.0, 0.0))
        .with(OpClass::Bcast, costs_cpu(15.0, 48.0, 46.0, 10.0, 20.0))
        .with(OpClass::Gather, costs(15.0, 3.0, 48.0, 0.0, 9.0))
        .with(OpClass::Scatter, costs(78.0, 18.0, 5.0, 0.0, 0.5))
        .with(OpClass::Reduce, costs(3.6, 75.0, 74.0, 0.0, 90.0))
        .with(OpClass::Scan, costs(73.0, 5.0, 5.0, 0.0, 11.0))
        .with(OpClass::Alltoall, costs(82.0, 48.0, 47.0, 25.0, 60.0));
    MachineSpec {
        name: "Intel Paragon",
        topology: TopologyKind::Mesh2d,
        hop_ns: 40.0,
        link_ns_per_byte: 1_000.0 / 175.0, // 175 MB/s
        min_packet_bytes: 32,
        costs: table,
        compute_ns_per_byte: 60.0, // reduction arithmetic via NX buffers
        send_engine: SendEngine::Coprocessor { ns_per_byte: 5.0 },
        hw_barrier: None,
        max_nodes: 128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_validate() {
        for id in MachineId::ALL {
            let spec = id.spec();
            spec.validate().unwrap_or_else(|e| panic!("{id}: {e}"));
        }
    }

    #[test]
    fn every_calibrated_class_charges_a_send_overhead() {
        // `ordercheck` has no happens-before pruning because of this: a
        // send's `ScheduleStep` fires `o_send` after the step is issued,
        // and every step ordered after it is issued at that instant or
        // later, so no `ScheduleStep` it orders shares the instant.
        for id in MachineId::ALL {
            let spec = id.spec();
            for class in OpClass::ALL {
                assert!(
                    spec.send_overhead(class) > desim::SimDuration::ZERO,
                    "{id} {class}"
                );
            }
        }
    }

    #[test]
    fn paper_link_bandwidths() {
        assert!((sp2().link_bandwidth_mb_s() - 40.0).abs() < 0.5);
        assert!((t3d().link_bandwidth_mb_s() - 300.0).abs() < 0.5);
        assert!((paragon().link_bandwidth_mb_s() - 175.0).abs() < 0.5);
    }

    #[test]
    fn paper_hop_latencies() {
        assert_eq!(sp2().hop_ns, 125.0);
        assert_eq!(t3d().hop_ns, 20.0);
        assert_eq!(paragon().hop_ns, 40.0);
    }

    #[test]
    fn only_t3d_has_hw_barrier() {
        assert!(t3d().hw_barrier.is_some());
        assert!(sp2().hw_barrier.is_none());
        assert!(paragon().hw_barrier.is_none());
        // And it releases in ~3 us as the paper reports.
        let hb = t3d().hw_barrier.unwrap();
        assert!(hb.latency_us(64) < 4.0);
    }

    #[test]
    fn engines_match_architecture() {
        assert_eq!(sp2().send_engine, SendEngine::Cpu);
        assert!(matches!(
            t3d().send_engine,
            SendEngine::BlockTransfer { .. }
        ));
        assert!(matches!(
            paragon().send_engine,
            SendEngine::Coprocessor { .. }
        ));
    }

    #[test]
    fn node_limits_match_paper() {
        assert_eq!(MachineId::T3d.max_nodes(), 64);
        assert_eq!(MachineId::Sp2.max_nodes(), 128);
        assert_eq!(MachineId::Paragon.max_nodes(), 128);
    }

    #[test]
    fn paragon_nx_overheads_dominate() {
        // §7: Paragon's per-message costs for alltoall/gather are several
        // times those of the other machines.
        let pg = paragon();
        let sp = sp2();
        let t3 = t3d();
        for class in [OpClass::Alltoall, OpClass::Gather] {
            let p = pg.costs.get(class).o_send_us + pg.costs.get(class).o_recv_us;
            let s = sp.costs.get(class).o_send_us + sp.costs.get(class).o_recv_us;
            let t = t3.costs.get(class).o_send_us + t3.costs.get(class).o_recv_us;
            assert!(p > 1.8 * s, "{class}: paragon {p} vs sp2 {s}");
            assert!(p > 1.8 * t, "{class}: paragon {p} vs t3d {t}");
        }
    }

    #[test]
    fn display_and_ids() {
        assert_eq!(MachineId::Sp2.to_string(), "SP2");
        assert_eq!(MachineId::ALL.len(), 3);
    }
}
