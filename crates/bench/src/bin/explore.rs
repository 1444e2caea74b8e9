//! Interactive query tool: time one collective configuration and show
//! everything the library knows about it — the measured value, the
//! paper's Table-3 prediction, the startup/transmission split, traffic
//! counters, and, with `--timeline`, the per-rank message flow.
//!
//! ```sh
//! cargo run -p bench --release --bin explore -- \
//!     --machine t3d --op alltoall -p 64 -m 65536
//! ```
//!
//! The timeline makes an algorithm's structure visible. A gallery:
//!
//! ```sh
//! explore --machine t3d --op bcast -p 16 -m 4096 --timeline    # binomial tree cascade
//! explore --machine sp2 --op scatter -p 12 -m 4096 --timeline  # root serialization
//! explore --machine sp2 --op barrier -p 8 --timeline           # dissemination rounds
//! explore --machine t3d --op alltoall -p 8 -m 1024 --timeline
//! explore --machine t3d --op scan -p 12 -m 1024 --timeline
//! ```
//!
//! The point flags are the shared [`bench::cli::PointCli`] ones;
//! `--suite`, `--threads`, `--out` and `--trace-cap` do not apply to a
//! single query and exit 2 with usage.

use bench::cli::{Accept, PointCli};
use bench::machine_id;
use bench::suite::SuitePoint;
use harness::{measure, Protocol};
use mpisim::{Rank, RunOptions};
use perfmodel::paper;
use report::{Timeline, TimelineMessage};

fn usage() -> ! {
    eprintln!("usage: explore {} [--timeline]", bench::cli::POINT_USAGE);
    std::process::exit(2);
}

/// The selected point and whether to render its timeline.
fn parse_args() -> (SuitePoint, bool) {
    let mut cli = PointCli::default();
    let mut timeline = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match cli.accept(&a, || args.next()) {
            Accept::Consumed => continue,
            Accept::Invalid => usage(),
            Accept::Unknown => {}
        }
        match a.as_str() {
            "--timeline" => timeline = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    if cli.suite || cli.out.is_some() || cli.trace_cap.is_some() || !cli.selection_ok() {
        usage();
    }
    if let Err(e) = cli.check_point() {
        eprintln!("{e}");
        usage();
    }
    (cli.point().expect("checked above"), timeline)
}

fn main() {
    let (
        SuitePoint {
            machine,
            op,
            bytes,
            nodes,
        },
        timeline,
    ) = parse_args();
    let comm = machine.communicator(nodes).expect("checked in parse_args");
    println!(
        "{} — {} of {} B over {} nodes ({})",
        machine.name(),
        op.paper_name(),
        bytes,
        nodes,
        machine.spec().topology.build(nodes).describe()
    );

    // Paper-methodology measurement.
    let meas = measure(&comm, op, bytes, &Protocol::paper()).expect("measure");
    println!(
        "\nmeasured (paper methodology): {:.1} us  (min {:.1}, mean {:.1} across ranks)",
        meas.time_us, meas.min_time_us, meas.mean_time_us
    );

    // Published prediction, if this is a paper machine/op.
    if let Some(f) = machine_id(machine.name()).and_then(|id| paper::table3(id, op)) {
        let pred = f.predict_us(bytes, nodes);
        println!(
            "paper's Table 3 predicts:     {:.1} us  (T0 {:.1} + D {:.1}; sim/paper = {:.2})",
            pred,
            f.startup_us(nodes),
            f.transmission_us(bytes, nodes),
            meas.time_us / pred.max(1e-9),
        );
    }

    // Cold-start run with diagnostics.
    let schedule = comm.schedule(op, Rank(0), bytes).expect("schedule");
    let traced = RunOptions {
        record_trace: true,
        ..RunOptions::default()
    };
    let out = comm.run_with(&[&schedule], traced).expect("run");
    println!(
        "cold-start single run:        {:.1} us;  {} messages, {} payload bytes",
        out.rank_segment_time(0, (0..nodes).max_by_key(|&r| out.finish[0][r]).unwrap_or(0))
            .as_micros_f64(),
        out.messages,
        out.bytes,
    );
    if let Some(&(link, busy)) = out.link_loads.first() {
        println!(
            "hottest link: l{link} busy {:.1} us across {} active links",
            busy.as_micros_f64(),
            out.link_loads.len()
        );
    }
    if meas.aggregated_bytes() > 0 {
        if let Some(r) = meas.aggregated_bandwidth_mb_s(0.0) {
            println!("aggregated bandwidth at this point: {r:.0} MB/s (no startup subtracted)");
        }
    }

    if timeline {
        let tl = Timeline::new("message timeline (cold start)", nodes).messages(
            out.trace.iter().map(|m| TimelineMessage {
                src: m.src,
                dst: m.dst,
                posted: m.posted.as_micros_f64(),
                delivered: m.delivered.as_micros_f64(),
            }),
        );
        println!("\n{}", tl.render());
    }
}
