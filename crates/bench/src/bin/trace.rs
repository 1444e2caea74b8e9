//! Message-timeline visualization: execute one collective with tracing
//! enabled and render the per-rank message flow. Makes the algorithm
//! structure visible — the binomial broadcast's tree cascade, the linear
//! scatter's root serialization, the dissemination barrier's rounds.

use bench::Cli;
use mpisim::{Machine, OpClass, Rank};
use report::{Timeline, TimelineMessage};

fn show(machine: &Machine, op: OpClass, p: usize, bytes: u32) {
    let comm = machine.communicator(p).expect("size");
    let schedule = comm.schedule(op, Rank(0), bytes).expect("schedule");
    let (outcome, trace) = comm.run_traced(&schedule).expect("run");
    let timeline = Timeline::new(
        format!(
            "{} — {} of {} B on {} nodes (T = {})",
            machine.name(),
            op.paper_name(),
            bytes,
            p,
            outcome.time()
        ),
        p,
    )
    .messages(trace.iter().map(|m| TimelineMessage {
        src: m.src,
        dst: m.dst,
        posted: m.posted.as_micros_f64(),
        delivered: m.delivered.as_micros_f64(),
    }));
    println!("\n{}", timeline.render());
}

fn main() {
    Cli::parse(&[]);
    let t3d = Machine::t3d();
    let sp2 = Machine::sp2();
    show(&t3d, OpClass::Bcast, 16, 4_096);
    show(&sp2, OpClass::Scatter, 12, 4_096);
    show(&sp2, OpClass::Barrier, 8, 0);
    show(&t3d, OpClass::Alltoall, 8, 1_024);
    show(&t3d, OpClass::Scan, 12, 1_024);
}
