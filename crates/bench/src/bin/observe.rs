//! Observability driver: run one (machine, collective, m, p) point under
//! full instrumentation and emit
//!
//! * a Chrome Trace Event JSON file (open in Perfetto or
//!   `chrome://tracing`) with one track per rank and flow arrows for
//!   every message,
//! * a metrics snapshot JSON with the run manifest,
//! * a text report: manifest header, metrics table, and an ASCII
//!   link-utilization heatmap.
//!
//! ```text
//! cargo run -p bench --bin observe -- --machine t3d --op bcast -p 64 -m 4096
//! ```
//!
//! `--profile` additionally enables the desim engine's self-profiling
//! (wall-clock, events/sec, sampled queue-depth quantiles), which then
//! appears in the metrics snapshot under `engine.prof.*`.
//!
//! `--suite` runs the fixed 21-point perfgate suite (all seven
//! collectives × three machines at the representative `(m, p)`) instead
//! of a single point, executing each point once and writing its trace +
//! metrics + canonical `*.record.json` run-record triple, plus a
//! `dataset.csv` measured over the same grid. Every file is a pure function of the
//! simulation seed, so the whole output directory is byte-identical for
//! any `--threads N` — the CI determinism job compares a serial run
//! against `--threads 4` with `tracediff`, which explains the first
//! divergent event structurally when the gate trips.
//!
//! `--trace-cap N` caps recorded message traces at N entries
//! (messages beyond the cap are counted as dropped; `tracediff`
//! refuses to certify runs with drops as identical).

use harness::{Protocol, SweepBuilder};
use mpisim::comm::RunOptions;
use mpisim::exec::{ExecOutcome, Observed};
use mpisim::{observe, Machine, OpClass, Rank};
use obs::MetricsRegistry;

use bench::cli::{Accept, PointCli};

fn usage() -> ! {
    eprintln!(
        "usage: observe {} [--out DIR] [--profile] [--trace-cap N]\n       observe --suite [--threads N] [--out DIR] [--trace-cap N]",
        bench::cli::POINT_USAGE
    );
    std::process::exit(2);
}

fn parse_args() -> (PointCli, bool) {
    let mut cli = PointCli::default();
    let mut profile = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match cli.accept(&a, || args.next()) {
            Accept::Consumed => continue,
            Accept::Invalid => usage(),
            Accept::Unknown => {}
        }
        match a.as_str() {
            "--profile" => profile = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    if !cli.selection_ok() {
        usage();
    }
    if let Err(e) = cli.check_point() {
        eprintln!("{e}");
        usage();
    }
    (cli, profile)
}

/// One shade per link, busy time normalized against the hottest link.
fn heatmap(loads: &[(usize, desim::SimDuration)], links: usize) -> String {
    const SHADES: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut busy_us = vec![0.0f64; links];
    for &(id, b) in loads {
        if let Some(cell) = busy_us.get_mut(id) {
            *cell = b.as_micros_f64();
        }
    }
    let max = busy_us.iter().cloned().fold(0.0f64, f64::max);
    let mut out = String::new();
    out.push_str(&format!(
        "link-utilization heatmap ({links} links, '@' = hottest {max:.0} us, ' ' = idle)\n"
    ));
    for (row, chunk) in busy_us.chunks(64).enumerate() {
        let cells: String = chunk
            .iter()
            .map(|&b| {
                if max <= 0.0 {
                    ' '
                } else {
                    let idx = ((b / max) * (SHADES.len() - 1) as f64).round() as usize;
                    SHADES[idx.min(SHADES.len() - 1)]
                }
            })
            .collect();
        out.push_str(&format!("  l{:<5} |{cells}|\n", row * 64));
    }
    out
}

/// Stable per-point file stem, e.g. `observe_ibm_sp2_alltoall_p64_m4096`.
fn stem(machine: &Machine, op: OpClass, p: usize, bytes: u32) -> String {
    format!(
        "observe_{}_{}_p{}_m{}",
        machine.name().to_ascii_lowercase().replace(' ', "_"),
        op.key(),
        p,
        bytes
    )
}

/// One fully instrumented point, rendered to its output documents.
struct ObservedPoint {
    out: ExecOutcome,
    trace: obs::ChromeTrace,
    snapshot: String,
    reg: MetricsRegistry,
    manifest: obs::RunManifest,
    links: usize,
}

/// Runs one point under full instrumentation and renders its trace +
/// metrics documents.
fn observe_point(
    machine: &Machine,
    op: OpClass,
    p: usize,
    bytes: u32,
    options: RunOptions,
) -> ObservedPoint {
    let comm = machine.communicator(p).expect("communicator size");
    let schedule = comm.schedule(op, Rank(0), bytes).expect("schedule build");
    let (out, observed) = comm
        .run_observed(&[&schedule], options)
        .expect("observed execution");
    render_point(machine, op, p, bytes, out, &observed)
}

/// Renders one observed execution of the point `(machine, op, p,
/// bytes)` to its trace + metrics documents. Pure: same inputs produce
/// the same bytes.
fn render_point(
    machine: &Machine,
    op: OpClass,
    p: usize,
    bytes: u32,
    out: ExecOutcome,
    observed: &Observed,
) -> ObservedPoint {
    let wire = machine.wire_config();
    let manifest = obs::RunManifest::new(machine.name())
        .param("op", op.key())
        .param("p", p)
        .param("m_bytes", bytes)
        .param("start", "cold, no skew")
        .param("link_contention", wire.link_contention)
        .param("nic_serialization", wire.nic_serialization)
        .param("wormhole", wire.wormhole)
        .param(
            "segment_bytes",
            wire.segment_bytes
                .map_or("none".to_string(), |s| s.to_string()),
        );

    let mut reg = MetricsRegistry::new();
    observe::export_metrics(&out, observed, &mut reg);
    let trace = observe::chrome_trace(machine.name(), &out, observed);
    let snapshot = observe::snapshot(&manifest, &reg).to_string_pretty();
    let links = observed.net.link_bytes.len();
    ObservedPoint {
        out,
        trace,
        snapshot,
        reg,
        manifest,
        links,
    }
}

/// The fixed 21-point suite in canonical order, run under full
/// instrumentation with `threads` workers; every output file is written
/// in canonical order from the merged results.
fn run_suite(out_dir: &str, threads: usize, trace_cap: Option<usize>) {
    let suite = bench::perfgate::default_suite();
    std::fs::create_dir_all(out_dir).expect("create output directory");

    let (rendered, stats) = harness::map_indexed(
        suite.len(),
        threads,
        |i| {
            let pt = &suite[i];
            // One run with provenance and the event log on feeds the
            // canonical run record `tracediff` compares structurally;
            // neither changes the execution, so the same run also
            // yields the trace and the metrics snapshot.
            let recorded = bench::diffsuite::record_suite_point(
                pt,
                mpisim::TieBreakPolicy::InsertionOrder,
                trace_cap,
            );
            let obs = render_point(
                &pt.machine,
                pt.op,
                pt.nodes,
                pt.bytes,
                recorded.out,
                &recorded.observed,
            );
            let file_stem = stem(&pt.machine, pt.op, pt.nodes, pt.bytes);
            (
                file_stem,
                obs.trace.to_json_string(),
                obs.snapshot,
                recorded.record.to_json_string(),
                obs.trace.len(),
            )
        },
        &|_, _| {},
    );
    for (file_stem, trace_json, metrics_json, record_json, events) in &rendered {
        std::fs::write(format!("{out_dir}/{file_stem}.trace.json"), trace_json)
            .expect("write trace");
        std::fs::write(format!("{out_dir}/{file_stem}.metrics.json"), metrics_json)
            .expect("write metrics");
        std::fs::write(format!("{out_dir}/{file_stem}.record.json"), record_json)
            .expect("write record");
        println!("wrote {out_dir}/{file_stem}.trace.json ({events} events)");
    }

    // The same grid measured through the harness methodology: the
    // Dataset side of the serial-vs-parallel byte-equality gate.
    let ops: Vec<OpClass> = suite
        .iter()
        .map(|pt| pt.op)
        .collect::<Vec<_>>()
        .into_iter()
        .fold(Vec::new(), |mut acc, op| {
            if !acc.contains(&op) {
                acc.push(op);
            }
            acc
        });
    let machines: Vec<Machine> = {
        let mut seen: Vec<Machine> = Vec::new();
        for pt in &suite {
            if !seen.iter().any(|m| m.name() == pt.machine.name()) {
                seen.push(pt.machine.clone());
            }
        }
        seen
    };
    let data = SweepBuilder::new()
        .machines(machines)
        .ops(ops)
        .message_sizes([bench::perfgate::SUITE_BYTES])
        .node_counts([bench::perfgate::SUITE_NODES])
        .protocol(Protocol::quick())
        .threads(threads)
        .run()
        .expect("suite sweep");
    std::fs::write(format!("{out_dir}/dataset.csv"), data.to_csv()).expect("write dataset");
    println!(
        "wrote {out_dir}/dataset.csv ({} points, {} workers, {:.0}% utilization)",
        data.len(),
        stats.threads,
        100.0 * stats.utilization()
    );
}

fn main() {
    let (cli, profile) = parse_args();
    if cli.suite {
        run_suite(cli.out_dir(), cli.threads, cli.trace_cap);
        return;
    }

    let machine = cli.machine.as_ref().expect("checked in parse_args");
    let op = cli.op.expect("checked in parse_args");
    let bytes = if op == OpClass::Barrier { 0 } else { cli.m };
    let options = RunOptions {
        profile,
        trace_limit: cli.trace_cap,
        ..RunOptions::default()
    };
    let point = observe_point(machine, op, cli.p, bytes, options);

    let file_stem = stem(machine, op, cli.p, bytes);
    std::fs::create_dir_all(cli.out_dir()).expect("create output directory");
    let trace_path = format!("{}/{file_stem}.trace.json", cli.out_dir());
    let metrics_path = format!("{}/{file_stem}.metrics.json", cli.out_dir());

    std::fs::write(&trace_path, point.trace.to_json_string()).expect("write trace");
    std::fs::write(&metrics_path, &point.snapshot).expect("write metrics");

    println!("{}", report::metrics::render(&point.manifest, &point.reg));
    println!();
    println!(
        "{}",
        heatmap(
            &point
                .out
                .link_loads
                .iter()
                .map(|&(id, b)| (id, b))
                .collect::<Vec<_>>(),
            point.links
        )
    );
    println!("wrote {trace_path} ({} events)", point.trace.len());
    println!("wrote {metrics_path} ({} metrics)", point.reg.len());
    println!("open the trace at https://ui.perfetto.dev (drag & drop the .trace.json)");
}
