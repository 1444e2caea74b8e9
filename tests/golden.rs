//! Golden-value regression pins.
//!
//! The simulator is fully deterministic, so a handful of exact outputs
//! serve as drift detectors: any unintended change to the wire model,
//! executor ordering, cost tables, or measurement methodology shows up
//! here immediately. **These values are expected to change whenever the
//! calibration constants in `netmodel::machines` are retuned on
//! purpose** — update them alongside, and re-check the calibration grid
//! (`results/calibrate.txt`, from `full_report --out results`) before
//! doing so.

#![allow(clippy::unwrap_used)]

use harness::{measure, Protocol};
use mpi_collectives_eval::prelude::*;

fn cold_us(machine: &Machine, op: OpClass, m: u32, p: usize) -> f64 {
    let comm = machine.communicator(p).unwrap();
    let out = match op {
        OpClass::Barrier => comm.barrier().unwrap(),
        OpClass::Bcast => comm.bcast(Rank(0), m).unwrap(),
        OpClass::Alltoall => comm.alltoall(m).unwrap(),
        OpClass::Gather => comm.gather(Rank(0), m).unwrap(),
        OpClass::Scatter => comm.scatter(Rank(0), m).unwrap(),
        OpClass::Reduce => comm.reduce(Rank(0), m).unwrap(),
        OpClass::Scan => comm.scan(m).unwrap(),
        OpClass::PointToPoint => unreachable!(),
    };
    out.time().as_micros_f64()
}

#[test]
fn cold_start_collectives_are_pinned() {
    // 32 nodes, 1 KB — the quickstart table, to the nanosecond.
    let sp2 = Machine::sp2();
    let paragon = Machine::paragon();
    let t3d = Machine::t3d();
    let cases: [(&Machine, OpClass, f64); 9] = [
        (&sp2, OpClass::Bcast, 676.460),
        (&paragon, OpClass::Bcast, 690.200),
        (&t3d, OpClass::Bcast, 365.740),
        (&sp2, OpClass::Alltoall, 3_103.140),
        (&t3d, OpClass::Alltoall, 1_945.917),
        (&sp2, OpClass::Gather, 927.800),
        (&paragon, OpClass::Scatter, 647.763),
        (&t3d, OpClass::Scan, 491.671),
        (&t3d, OpClass::Barrier, 3.055),
    ];
    for (machine, op, expected) in cases {
        let got = cold_us(machine, op, 1_024, 32);
        assert!(
            (got - expected).abs() < 0.5,
            "{}/{op}: {got:.3} us, pinned {expected:.3}",
            machine.name()
        );
    }
}

#[test]
fn paper_methodology_measurement_is_pinned() {
    // T3D alltoall under the full paper protocol (seeded skew included).
    let comm = Machine::t3d().communicator(32).unwrap();
    let m = measure(&comm, OpClass::Alltoall, 1_024, &Protocol::paper()).unwrap();
    assert!(
        (m.time_us - 1_936.8).abs() < 1.0,
        "max-reduced time drifted: {:.1}",
        m.time_us
    );
    assert!(m.min_time_us <= m.time_us);
}

#[test]
fn message_and_event_counts_are_pinned() {
    // Structural pins: traffic counts are calibration-independent.
    let comm = Machine::sp2().communicator(64).unwrap();
    let a2a = comm.alltoall(4_096).unwrap();
    assert_eq!(a2a.messages(), 64 * 63);
    assert_eq!(a2a.bytes(), 64 * 63 * 4_096);
    let bcast = comm.bcast(Rank(0), 4_096).unwrap();
    assert_eq!(bcast.messages(), 63);
}
