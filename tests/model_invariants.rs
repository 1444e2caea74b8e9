//! Cross-cutting model invariants: relationships between wire-model
//! variants, placements, and topologies that must hold for *any*
//! calibration — violations indicate executor or model bugs rather than
//! miscalibrated constants.

#![allow(clippy::unwrap_used)]

use harness::{measure, Protocol};
use mpi_collectives_eval::prelude::*;
use mpisim::Placement;

fn t(machine: &Machine, op: OpClass, m: u32, p: usize) -> f64 {
    let comm = machine.communicator(p).unwrap();
    measure(&comm, op, m, &Protocol::quick()).unwrap().time_us
}

#[test]
fn removing_contention_never_slows_anything() {
    for base in Machine::all() {
        let relaxed = base.clone().with_wire_config(WireConfig {
            link_contention: false,
            nic_serialization: false,
            ..WireConfig::default()
        });
        for op in [OpClass::Alltoall, OpClass::Scatter, OpClass::Bcast] {
            let full = t(&base, op, 8_192, 32);
            let no_contention = t(&relaxed, op, 8_192, 32);
            assert!(
                no_contention <= full * 1.001,
                "{}/{op}: {no_contention} vs {full}",
                base.name()
            );
        }
    }
}

#[test]
fn store_and_forward_never_beats_wormhole_uncontended() {
    // Without contention the comparison is pure pipelining: paying the
    // full serialization on every hop can only be slower. (With
    // contention, SAF's staggered link holds can occasionally interleave
    // competing messages better — a real effect, not asserted.)
    let quiet = WireConfig {
        link_contention: false,
        nic_serialization: false,
        ..WireConfig::default()
    };
    for base in Machine::all() {
        let wormhole = base.clone().with_wire_config(quiet);
        let saf = base.clone().with_wire_config(WireConfig {
            wormhole: false,
            ..quiet
        });
        for op in [OpClass::Bcast, OpClass::Alltoall] {
            let wh = t(&wormhole, op, 16_384, 32);
            let sf = t(&saf, op, 16_384, 32);
            assert!(sf >= wh * 0.999, "{}/{op}: {sf} vs {wh}", base.name());
        }
    }
}

#[test]
fn segmentation_overhead_is_bounded() {
    // Packetizing may shuffle contention order but must stay within a
    // modest band of the whole-message model for a quiet collective.
    for base in Machine::all() {
        let seg = base.clone().with_wire_config(WireConfig {
            segment_bytes: Some(4_096),
            ..WireConfig::default()
        });
        let whole = t(&base, OpClass::Bcast, 65_536, 16);
        let packetized = t(&seg, OpClass::Bcast, 65_536, 16);
        let ratio = packetized / whole;
        assert!((0.7..1.3).contains(&ratio), "{}: {ratio}", base.name());
    }
}

#[test]
fn scattered_placement_never_helps_much_on_direct_networks() {
    // On the mesh and torus, random placement lengthens routes, so it is
    // roughly neutral or worse (small wins possible from contention
    // reshuffling, hence the 5% band). The SP2's Omega is deliberately
    // excluded: its route lengths are placement-invariant and scattering
    // can genuinely reduce internal wire-column blocking.
    for base in [Machine::t3d(), Machine::paragon()] {
        let scattered = base
            .clone()
            .with_placement(Placement::Scattered { seed: 77 });
        for op in [OpClass::Bcast, OpClass::Alltoall] {
            let contiguous = t(&base, op, 4_096, 32);
            let moved = t(&scattered, op, 4_096, 32);
            assert!(
                moved >= contiguous * 0.95,
                "{}/{op}: scattered {moved} vs contiguous {contiguous}",
                base.name()
            );
        }
    }
}

#[test]
fn ideal_crossbar_never_slower_for_rootless_ops() {
    // Replacing the real interconnect with dedicated per-pair links can
    // only help (same software costs, no shared-wire serialization).
    for base in Machine::all() {
        let mut spec = base.spec().clone();
        spec.topology = netmodel::TopologyKind::Crossbar;
        let ideal = Machine::custom(spec).unwrap();
        for op in [OpClass::Alltoall, OpClass::Gather, OpClass::Bcast] {
            let real = t(&base, op, 8_192, 32);
            let xbar = t(&ideal, op, 8_192, 32);
            assert!(
                xbar <= real * 1.02,
                "{}/{op}: crossbar {xbar} vs real {real}",
                base.name()
            );
        }
    }
}

#[test]
fn hypercube_machine_runs_all_collectives() {
    // A what-if T3D on a hypercube: everything still executes and the
    // timings stay in the same decade as the torus.
    let torus = Machine::t3d();
    let mut spec = torus.spec().clone();
    spec.topology = netmodel::TopologyKind::Hypercube;
    let cube = Machine::custom(spec).unwrap();
    for op in OpClass::COLLECTIVES {
        let m = if op == OpClass::Barrier { 0 } else { 4_096 };
        let a = t(&torus, op, m, 32);
        let b = t(&cube, op, m, 32);
        let ratio = b / a.max(1e-9);
        assert!((0.3..3.0).contains(&ratio), "{op}: {ratio}");
    }
}

#[test]
fn subgroup_times_consistent_with_full_group() {
    // A contiguous subgroup of half the partition behaves like a
    // communicator of that size (same software costs; route lengths can
    // only match or shrink on the torus).
    let machine = Machine::t3d();
    let full = machine.communicator(32).unwrap();
    let sub = full.group(&(0..16).collect::<Vec<_>>()).unwrap();
    let direct = machine.communicator(16).unwrap();
    let a = sub.alltoall(2_048).unwrap().time().as_micros_f64();
    let b = direct.alltoall(2_048).unwrap().time().as_micros_f64();
    let ratio = a / b;
    assert!((0.8..1.6).contains(&ratio), "subgroup {a} vs direct {b}");
}
