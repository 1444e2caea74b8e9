//! Full STAP workload report: per-stage breakdowns for every machine
//! across partition sizes and cube scales — the application-level view
//! of the paper's collective measurements (its §9 promises the full STAP
//! results "in a separate paper"; this binary is our stand-in).

use bench::Cli;
use mpisim::Machine;
use report::Table;
use stap::{DataCube, StapRun, StapStage};

fn main() {
    Cli::parse(&[]);
    for (label, cube) in [("small", DataCube::small()), ("medium", DataCube::medium())] {
        println!(
            "\n================ {label} cube: {} MB ================",
            cube.bytes() >> 20
        );
        for machine in [Machine::sp2(), Machine::paragon(), Machine::t3d()] {
            let mut t = Table::new([
                "p",
                "Doppler",
                "corner turn",
                "weights+bcast",
                "beamform",
                "CFAR",
                "reduce",
                "total (ms)",
                "comm %",
            ]);
            for p in [4usize, 8, 16, 32, 64] {
                if p > machine.spec().max_nodes {
                    continue;
                }
                let run = StapRun::execute(&machine, cube, p).expect("run");
                let us = |stage: StapStage| {
                    run.stages
                        .iter()
                        .find(|s| s.stage == stage)
                        .map(|s| s.total_us())
                        .unwrap_or(0.0)
                };
                t.push_row([
                    p.to_string(),
                    format!("{:.1}", us(StapStage::DopplerFilter) / 1000.0),
                    format!("{:.1}", us(StapStage::CornerTurn) / 1000.0),
                    format!(
                        "{:.1}",
                        (us(StapStage::WeightCompute) + us(StapStage::WeightBroadcast)) / 1000.0
                    ),
                    format!("{:.1}", us(StapStage::Beamform) / 1000.0),
                    format!("{:.1}", us(StapStage::CfarDetect) / 1000.0),
                    format!("{:.1}", us(StapStage::ReportReduce) / 1000.0),
                    format!("{:.1}", run.total_us() / 1000.0),
                    format!("{:.0}%", 100.0 * run.comm_fraction()),
                ]);
            }
            println!("\n-- {} (stage times in ms) --", machine.name());
            print!("{}", t.render());
        }
    }
}
