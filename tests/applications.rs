//! Application-level integration: the STAP workload and the
//! point-to-point communication patterns running end to end on the
//! machine models, with scaling analysis on top.

#![allow(clippy::unwrap_used)]

use collectives::patterns;
use mpi_collectives_eval::prelude::*;
use mpisim::{ExecOutcome, RunOptions};
use perfmodel::ScalingCurve;
use stap::{DataCube, StapRun, StapStage};

#[test]
fn stap_pipeline_reproduces_tradeoff_narrative() {
    // The paper's motivation: growing p divides computation but inflates
    // collective cost; communication share rises monotonically.
    let cube = DataCube::medium();
    let machine = Machine::t3d();
    let mut last_fraction = 0.0;
    for p in [4usize, 8, 16, 32, 64] {
        let run = StapRun::execute(&machine, cube, p).unwrap();
        assert!(
            run.comm_fraction() >= last_fraction - 0.02,
            "comm share fell at p={p}: {} -> {}",
            last_fraction,
            run.comm_fraction()
        );
        last_fraction = run.comm_fraction();
        // Corner turn is the dominant communication stage everywhere.
        let ct = run
            .stages
            .iter()
            .find(|s| s.stage == StapStage::CornerTurn)
            .unwrap()
            .comm_us;
        assert!(ct > run.comm_us() * 0.4, "p={p}");
    }
}

#[test]
fn stap_scaling_curve_analysis() {
    let cube = DataCube::small();
    let machine = Machine::paragon();
    let samples: Vec<(usize, f64)> = [2usize, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|p| {
            let run = StapRun::execute(&machine, cube, p).unwrap();
            (p, run.total_us())
        })
        .collect();
    let curve = ScalingCurve::new(samples);
    // Speedup grows then saturates; efficiency decays monotonically at
    // the tail.
    let eff = curve.efficiency();
    assert!(eff.first().unwrap().1 > eff.last().unwrap().1);
    // The small cube on the slow-communication Paragon stops scaling
    // before the largest size.
    let sweet = curve.fastest().unwrap();
    assert!(sweet >= 4, "some parallelism helps: {sweet}");
    // Karp–Flatt on the largest point yields a sensible serial fraction.
    let (p_last, s_last) = *curve.speedup().last().unwrap();
    let f = perfmodel::karp_flatt(s_last, p_last).unwrap();
    assert!((0.0..1.0).contains(&f), "serial fraction {f}");
}

#[test]
fn halo_exchange_is_cheap_on_all_machines() {
    // A ring halo swap is two messages per rank, independent of p: its
    // cost must stay far below an alltoall of the same payload.
    for machine in Machine::all() {
        let comm = machine.communicator(32).unwrap();
        let halo = comm.run(&patterns::halo_ring(32, 8_192)).unwrap();
        let a2a = comm.alltoall(8_192).unwrap();
        assert!(
            halo.time().as_micros_f64() * 4.0 < a2a.time().as_micros_f64(),
            "{}: halo {} vs alltoall {}",
            machine.name(),
            halo.time(),
            a2a.time()
        );
    }
}

#[test]
fn stencil_matches_mesh_structure() {
    // An 8x8 stencil on the Paragon's 8x8 mesh maps neighbours onto
    // physical links: every message is a single hop, so the exchange
    // completes in near-constant time regardless of grid position.
    let machine = Machine::paragon();
    let comm = machine.communicator(64).unwrap();
    let out = comm.run(&patterns::stencil2d(8, 8, 4_096)).unwrap();
    assert_eq!(out.messages(), 2 * 2 * (8 * 7));
    // All interior ranks finish within a tight band.
    let times: Vec<f64> = out.per_rank().iter().map(|d| d.as_micros_f64()).collect();
    let max = times.iter().cloned().fold(f64::MIN, f64::max);
    let min = times.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max < min * 3.0, "stencil spread too wide: {min}..{max}");
}

#[test]
fn master_worker_bottlenecks_on_master() {
    let machine = Machine::sp2();
    let comm = machine.communicator(16).unwrap();
    let s = patterns::master_worker(16, 4, 1_024, 1_024, 10_000);
    let out = comm.run(&s).unwrap();
    // The master's elapsed time is the maximum: it serializes all task
    // handout and result collection.
    let master = out.per_rank()[0];
    assert_eq!(out.time(), master);
}

fn traced() -> RunOptions {
    RunOptions {
        record_trace: true,
        ..RunOptions::default()
    }
}

#[test]
fn traced_run_matches_untraced_timing() {
    let comm = Machine::t3d().communicator(16).unwrap();
    let s = comm.schedule(OpClass::Bcast, Rank(0), 4_096).unwrap();
    let plain = comm.run_with(&[&s], RunOptions::default()).unwrap();
    let traced = comm.run_with(&[&s], traced()).unwrap();
    let untraced = ExecOutcome {
        trace: Vec::new(),
        link_loads: Vec::new(),
        ..traced.clone()
    };
    assert_eq!(plain, untraced, "tracing must not perturb timing");
    assert_eq!(traced.trace.len(), 15);
    // Trace sanity: every delivery follows its posting.
    for m in &traced.trace {
        assert!(m.delivered >= m.posted);
        assert!(m.bytes == 4_096);
    }
}

#[test]
fn diagnosed_run_reports_hot_links() {
    let comm = Machine::paragon().communicator(64).unwrap();
    let s = comm.schedule(OpClass::Alltoall, Rank(0), 1_024).unwrap();
    let out = comm.run_with(&[&s], traced()).unwrap();
    assert!(!out.link_loads.is_empty());
    // Sorted hottest-first.
    assert!(out.link_loads.windows(2).all(|w| w[0].1 >= w[1].1));
}
