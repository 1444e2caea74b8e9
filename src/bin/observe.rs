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
//! cargo run --release --bin observe -- --machine t3d --op bcast -p 64 -m 4096
//! ```
//!
//! `--suite` refuses the point flags (`--machine`, `--op`, `-p`, `-m`),
//! and a single point refuses `--threads`, with usage and exit status 2.
//!
//! `--suite` is the one suite run: it executes each of the fixed 21
//! points of `bench::suite` (all seven collectives × three machines at
//! the representative `(m, p)`) once, through
//! `bench::suite::record_point`, and renders every suite artifact from
//! that execution:
//!
//! * per point, the trace, the metrics snapshot and the canonical
//!   `*.record.json` run record;
//! * `critpath.json`, one critical-path decomposition per point, and
//!   `census.prom`, the contention census as Prometheus gauges, with
//!   the blame table and the scan-vs-bcast comparison on stdout;
//! * `dataset.csv`, the same grid measured through the harness
//!   methodology.
//!
//! Every file is a pure function of the simulation seed, so the whole
//! output directory is byte-identical for any `--threads N` — the CI
//! determinism job compares a serial run against `--threads 4` with
//! `tracediff`, which explains the first divergent event structurally
//! when the gate trips.
//!
//! `--trace-cap N` caps recorded message traces at N entries
//! (messages beyond the cap are counted as dropped; `tracediff`
//! refuses to certify runs with drops as identical).

use harness::{Protocol, SweepBuilder};
use mpisim::comm::RunOptions;
use mpisim::critpath::CritPath;
use mpisim::exec::{ExecOutcome, Observed};
use mpisim::{observe, Rank, TieBreakPolicy};
use obs::{Json, MetricsRegistry};

use bench::cli::{Accept, PointCli};
use bench::suite::{
    blame_table, census_metrics, decomposition_json, default_suite, record_point, scan_vs_bcast,
    SuitePoint, SUITE_BYTES, SUITE_NODES,
};

fn usage() -> ! {
    eprintln!(
        "usage: observe {} [--out DIR] [--trace-cap N]\n       observe --suite [--threads N] [--out DIR] [--trace-cap N]",
        bench::cli::POINT_USAGE
    );
    std::process::exit(2);
}

fn parse_args() -> PointCli {
    let mut cli = PointCli::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match cli.accept(&a, || args.next()) {
            Accept::Consumed => continue,
            Accept::Invalid => usage(),
            Accept::Unknown => {}
        }
        match a.as_str() {
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
    cli
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

/// The trace, metrics and run manifest of one observed execution of
/// `pt`. Pure: same inputs produce the same bytes.
fn render_point(
    pt: &SuitePoint,
    out: &ExecOutcome,
    observed: &Observed,
) -> (obs::ChromeTrace, MetricsRegistry, obs::RunManifest) {
    let wire = pt.machine.wire_config();
    let manifest = obs::RunManifest::new(pt.machine.name())
        .param("op", pt.op.key())
        .param("p", pt.nodes)
        .param("m_bytes", pt.bytes)
        .param("start", "cold, no skew")
        .param("link_contention", wire.link_contention)
        .param("nic_serialization", wire.nic_serialization)
        .param("wormhole", wire.wormhole);
    let mut reg = MetricsRegistry::new();
    observe::export_metrics(out, observed, &mut reg);
    let trace = observe::chrome_trace(pt.machine.name(), out, observed);
    (trace, reg, manifest)
}

/// The fixed 21-point suite in canonical order, each point executed
/// once under full instrumentation with `threads` workers; every suite
/// artifact is rendered from those executions and written in canonical
/// order from the merged results.
fn run_suite(out_dir: &str, threads: usize, trace_cap: Option<usize>) {
    let suite = default_suite();
    std::fs::create_dir_all(out_dir).expect("create output directory");

    let rendered = harness::map_indexed(
        suite.len(),
        threads,
        |i| {
            let pt = &suite[i];
            // One run with provenance and the event log on feeds the
            // canonical run record `tracediff` compares structurally;
            // neither changes the execution, so the same run also
            // yields the trace, the metrics snapshot and the critical
            // path.
            let rec = record_point(pt, TieBreakPolicy::InsertionOrder, trace_cap);
            let (trace, reg, manifest) = render_point(pt, &rec.out, &rec.observed);
            (
                trace.to_json_string(),
                observe::snapshot(&manifest, &reg).to_string_pretty(),
                rec.record.to_json_string(),
                trace.len(),
                rec.cp,
                rec.out.dropped_messages,
            )
        },
        &|_, _| {},
    );
    let mut dropped = 0;
    for (pt, (trace_json, metrics_json, record_json, events, _, d)) in suite.iter().zip(&rendered) {
        dropped += d;
        let file_stem = pt.stem("observe");
        std::fs::write(format!("{out_dir}/{file_stem}.trace.json"), trace_json)
            .expect("write trace");
        std::fs::write(format!("{out_dir}/{file_stem}.metrics.json"), metrics_json)
            .expect("write metrics");
        std::fs::write(format!("{out_dir}/{file_stem}.record.json"), record_json)
            .expect("write record");
        println!("wrote {out_dir}/{file_stem}.trace.json ({events} events)");
    }

    // The critical-path decomposition and contention census of the
    // same executions.
    let rows: Vec<(&SuitePoint, &CritPath)> = suite
        .iter()
        .zip(&rendered)
        .map(|(pt, (.., cp, _))| (pt, cp))
        .collect();
    println!("critical-path blame decomposition ({} points):", rows.len());
    println!("{}", blame_table(&rows).render());
    if dropped > 0 {
        println!("WARNING: {dropped} messages exceeded the trace cap and were not walked");
    }
    print!("{}", scan_vs_bcast(&rows));
    let census = census_metrics(&rows);
    std::fs::write(format!("{out_dir}/census.prom"), obs::prom::text(&census))
        .expect("write census");
    println!("wrote {out_dir}/census.prom ({} series)", census.len());
    let decompositions = rows
        .iter()
        .map(|(pt, cp)| decomposition_json(pt, cp))
        .collect();
    std::fs::write(
        format!("{out_dir}/critpath.json"),
        Json::Array(decompositions).to_string_pretty(),
    )
    .expect("write decompositions");
    println!("wrote {out_dir}/critpath.json ({} points)", rows.len());

    // The same grid measured through the harness methodology: the
    // Dataset side of the serial-vs-parallel byte-equality gate.
    let data = SweepBuilder::new()
        .machines(bench::machines())
        .ops(bench::suite::ops())
        .message_sizes([SUITE_BYTES])
        .node_counts([SUITE_NODES])
        .protocol(Protocol::quick())
        .threads(threads)
        .run()
        .expect("suite sweep");
    std::fs::write(format!("{out_dir}/dataset.csv"), data.to_csv()).expect("write dataset");
    println!("wrote {out_dir}/dataset.csv ({} points)", data.len());
}

fn main() {
    let cli = parse_args();
    if cli.suite {
        run_suite(cli.out_dir(), cli.threads, cli.trace_cap);
        return;
    }

    let pt = cli.point().expect("checked in parse_args");
    let comm = pt.machine.communicator(pt.nodes).expect("communicator");
    let schedule = comm
        .schedule(pt.op, Rank(0), pt.bytes)
        .expect("schedule build");
    let options = RunOptions {
        trace_limit: cli.trace_cap,
        ..RunOptions::default()
    };
    let (out, observed) = comm
        .run_observed(&[&schedule], options)
        .expect("observed execution");
    let (trace, reg, manifest) = render_point(&pt, &out, &observed);

    let file_stem = pt.stem("observe");
    std::fs::create_dir_all(cli.out_dir()).expect("create output directory");
    let trace_path = format!("{}/{file_stem}.trace.json", cli.out_dir());
    let metrics_path = format!("{}/{file_stem}.metrics.json", cli.out_dir());
    std::fs::write(&trace_path, trace.to_json_string()).expect("write trace");
    let snapshot = observe::snapshot(&manifest, &reg).to_string_pretty();
    std::fs::write(&metrics_path, snapshot).expect("write metrics");

    println!("{}", report::metrics::render(&manifest, &reg));
    println!();
    let links = observed.net.link_bytes.len();
    println!("{}", heatmap(&out.link_loads, links));
    println!("wrote {trace_path} ({} events)", trace.len());
    println!("wrote {metrics_path} ({} metrics)", reg.len());
    println!("open the trace at https://ui.perfetto.dev (drag & drop the .trace.json)");
}
