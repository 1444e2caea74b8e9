//! Critical-path profiler driver: reconstruct the causal critical path
//! of a collective run, decompose its end-to-end latency into blame
//! categories (software overhead, wire, FIFO/link contention waits,
//! barrier sync), and report the contention census.
//!
//! ```text
//! cargo run -p bench --bin critpath -- --machine t3d --op scan -p 64 -m 4096
//! ```
//!
//! writes a Perfetto trace with a dedicated "critical path" track (flow
//! arrows at every rank hop) plus a `*.critpath.json` decomposition
//! document, and prints the blame table.
//!
//! `--suite [--threads N]` sweeps the fixed 21-point perfgate suite
//! instead, printing one decomposition row per point and writing a
//! single `critpath.json` artifact plus a `census.prom` exposition
//! file with the per-machine × op contention census (wait-free
//! fraction) as Prometheus gauges. The output is a pure function of
//! the simulation inputs, so the whole directory is byte-identical for
//! any `--threads N` — the CI determinism job compares a serial run
//! against `--threads 4` with `tracediff`. The suite run ends with the
//! scan-vs-bcast comparison the decomposition exists to answer: *why*
//! the T3D scan is slower than its bcast at the same `(m, p)`.
//!
//! `--trace-cap N` caps recorded message traces at N entries; capped
//! runs report how many messages the critical-path walk missed.

use mpisim::comm::RunOptions;
use mpisim::critpath::CritPath;
use mpisim::{observe, Machine, OpClass, Rank};
use obs::critpath::Blame;
use obs::{Json, MetricsRegistry};
use report::Table;

use bench::cli::{Accept, PointCli};

fn usage() -> ! {
    eprintln!(
        "usage: critpath {} [--out DIR] [--trace-cap N]\n       critpath --suite [--threads N] [--out DIR] [--trace-cap N]",
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

/// One analyzed point: the critical path plus everything needed to
/// render and archive it.
struct Analyzed {
    cp: CritPath,
    trace: obs::ChromeTrace,
    manifest: obs::RunManifest,
    reg: MetricsRegistry,
    dropped: u64,
}

/// Runs one point under full observability + provenance and walks its
/// critical path. Pure: same inputs produce the same bytes.
fn analyze_point(
    machine: &Machine,
    op: OpClass,
    p: usize,
    m: u32,
    trace_cap: Option<usize>,
) -> Analyzed {
    let bytes = if op == OpClass::Barrier { 0 } else { m };
    let comm = machine.communicator(p).expect("communicator size");
    let schedule = comm.schedule(op, Rank(0), bytes).expect("schedule build");
    let (out, observed) = comm
        .run_observed(
            &[&schedule],
            RunOptions {
                provenance: true,
                trace_limit: trace_cap,
                ..RunOptions::default()
            },
        )
        .expect("observed execution");
    let cp = mpisim::critpath::analyze(&out, &observed);
    let trace = observe::chrome_trace_with_critpath(machine.name(), &out, &observed, &cp);
    let manifest = obs::RunManifest::new(machine.name())
        .param("op", op.key())
        .param("p", p)
        .param("m_bytes", bytes)
        .param("end_rank", cp.end_rank)
        .param("chain_depth", cp.chain_depth.unwrap_or(0));
    let mut reg = MetricsRegistry::new();
    observe::export_metrics(&out, &observed, &mut reg);
    cp.export_metrics(&mut reg);
    Analyzed {
        cp,
        trace,
        manifest,
        reg,
        dropped: out.dropped_messages,
    }
}

/// The decomposition as a JSON document: absolute nanoseconds per
/// category (zeros included, so the schema is stable across points).
fn decomposition_json(machine: &Machine, op: OpClass, p: usize, m: u32, cp: &CritPath) -> Json {
    Json::object([
        ("machine", Json::str(machine.name())),
        ("op", Json::str(op.key())),
        ("p", Json::UInt(p as u64)),
        ("m_bytes", Json::UInt(u64::from(m))),
        ("elapsed_ns", Json::UInt(cp.decomposition.elapsed_ns())),
        ("end_rank", Json::UInt(cp.end_rank as u64)),
        (
            "chain_depth",
            Json::UInt(cp.chain_depth.unwrap_or(0) as u64),
        ),
        (
            "segments",
            Json::UInt(cp.decomposition.segments.len() as u64),
        ),
        (
            "blame_ns",
            Json::object(
                Blame::ALL
                    .iter()
                    .map(|&b| (b.key(), Json::UInt(cp.decomposition.get(b)))),
            ),
        ),
        (
            "census",
            Json::object([
                ("transfers", Json::UInt(cp.census.transfers)),
                ("uncontended", Json::UInt(cp.census.uncontended)),
                ("fraction", Json::Float(cp.census.fraction())),
            ]),
        ),
    ])
}

/// Stable per-point file stem, e.g. `critpath_cray_t3d_scan_p64_m4096`.
fn stem(machine: &Machine, op: OpClass, p: usize, bytes: u32) -> String {
    format!(
        "critpath_{}_{}_p{}_m{}",
        machine.name().to_ascii_lowercase().replace(' ', "_"),
        op.key(),
        p,
        bytes
    )
}

/// Per-category percentage cell, e.g. `41.3`.
fn pct(cp: &CritPath, b: Blame) -> String {
    format!("{:5.1}", 100.0 * cp.decomposition.fraction(b))
}

fn suite_table(rows: &[(String, String, CritPath)]) -> Table {
    let mut t = Table::new(
        ["machine", "op", "us"]
            .into_iter()
            .map(str::to_string)
            .chain(Blame::ALL.iter().map(|b| format!("{}%", b.key())))
            .chain(["census%".to_string()]),
    );
    for (machine, op, cp) in rows {
        t.push_row(
            [
                machine.clone(),
                op.clone(),
                format!("{:.1}", cp.decomposition.elapsed_ns() as f64 / 1_000.0),
            ]
            .into_iter()
            .chain(Blame::ALL.iter().map(|&b| pct(cp, b)))
            .chain([format!("{:5.1}", 100.0 * cp.census.fraction())]),
        );
    }
    t
}

/// The headline anomaly the decomposition explains: scan vs bcast on
/// each machine at the suite point, with the categories that differ.
fn scan_vs_bcast(rows: &[(String, String, CritPath)]) {
    println!("scan vs bcast at the suite point (m=4096, p=64):");
    for machine in ["IBM SP2", "Cray T3D", "Intel Paragon"] {
        let find = |op: &str| {
            rows.iter()
                .find(|(m, o, _)| m == machine && o == op)
                .map(|(_, _, cp)| cp)
        };
        let (Some(scan), Some(bcast)) = (find("scan"), find("bcast")) else {
            continue;
        };
        let s_us = scan.decomposition.elapsed_ns() as f64 / 1_000.0;
        let b_us = bcast.decomposition.elapsed_ns() as f64 / 1_000.0;
        let recv = |cp: &CritPath| cp.decomposition.get(Blame::RecvSw) as f64 / 1_000.0;
        let sends = |cp: &CritPath| {
            (cp.decomposition.get(Blame::SendSw) + cp.decomposition.get(Blame::Copy)) as f64
                / 1_000.0
        };
        println!(
            "  {machine:<13} scan {s_us:8.1} us = {:.2}x bcast {b_us:8.1} us  \
             (path recv_sw {:.1} vs {:.1} us, send+copy {:.1} vs {:.1} us, \
             {} vs {} path segments)",
            s_us / b_us,
            recv(scan),
            recv(bcast),
            sends(scan),
            sends(bcast),
            scan.decomposition.segments.len(),
            bcast.decomposition.segments.len(),
        );
    }
}

/// The fixed 21-point suite, analyzed with `threads` workers and written
/// in canonical order from the merged results.
fn run_suite(out_dir: &str, threads: usize, trace_cap: Option<usize>) {
    let suite = bench::perfgate::default_suite();
    std::fs::create_dir_all(out_dir).expect("create output directory");

    let (analyzed, stats) = harness::map_indexed(
        suite.len(),
        threads,
        |i| {
            let pt = &suite[i];
            let a = analyze_point(&pt.machine, pt.op, pt.nodes, pt.bytes, trace_cap);
            let doc = decomposition_json(&pt.machine, pt.op, pt.nodes, pt.bytes, &a.cp);
            (
                pt.machine.name().to_string(),
                pt.op.key().to_string(),
                a,
                doc,
            )
        },
        &|_, _| {},
    );

    let rows: Vec<(String, String, CritPath)> = analyzed
        .iter()
        .map(|(m, o, a, _)| (m.clone(), o.clone(), a.cp.clone()))
        .collect();
    println!("critical-path blame decomposition ({} points):", rows.len());
    println!("{}", suite_table(&rows).render());
    let dropped: u64 = analyzed.iter().map(|(_, _, a, _)| a.dropped).sum();
    if dropped > 0 {
        println!("WARNING: {dropped} messages exceeded the trace cap and were not walked");
    }
    scan_vs_bcast(&rows);

    // The contention census as Prometheus gauges, one set per
    // machine × op: the fraction of transfers that never waited for a
    // busy injection engine or link.
    let mut census_reg = MetricsRegistry::new();
    for (machine, op, a, _) in &analyzed {
        let id = bench::machine_id(machine)
            .map(|id| id.name().to_ascii_lowercase())
            .unwrap_or_else(|| machine.to_ascii_lowercase().replace(' ', "_"));
        let base = format!("critpath.census.{id}.{op}");
        census_reg.gauge(format!("{base}.transfers"), a.cp.census.transfers as f64);
        census_reg.gauge(
            format!("{base}.uncontended"),
            a.cp.census.uncontended as f64,
        );
        census_reg.gauge(format!("{base}.frac"), a.cp.census.fraction());
    }
    let census_path = format!("{out_dir}/census.prom");
    std::fs::write(&census_path, obs::prom::text(&census_reg)).expect("write census");
    println!("wrote {census_path} ({} series)", census_reg.len());

    let artifact = Json::Array(analyzed.into_iter().map(|(_, _, _, doc)| doc).collect());
    let path = format!("{out_dir}/critpath.json");
    std::fs::write(&path, artifact.to_string_pretty()).expect("write artifact");
    println!(
        "wrote {path} ({} points, {} workers, {:.0}% utilization)",
        rows.len(),
        stats.threads,
        100.0 * stats.utilization()
    );
}

fn main() {
    let cli = parse_args();
    if cli.suite {
        run_suite(cli.out_dir(), cli.threads, cli.trace_cap);
        return;
    }

    let machine = cli.machine.as_ref().expect("checked in parse_args");
    let op = cli.op.expect("checked in parse_args");
    let bytes = if op == OpClass::Barrier { 0 } else { cli.m };
    let a = analyze_point(machine, op, cli.p, cli.m, cli.trace_cap);

    println!("{}", report::metrics::render(&a.manifest, &a.reg));
    println!();
    let mut t = Table::new(["category", "ns", "%"]);
    for &b in &Blame::ALL {
        let ns = a.cp.decomposition.get(b);
        if ns > 0 {
            t.push_row([
                format!("critpath.{}", b.key()),
                ns.to_string(),
                pct(&a.cp, b),
            ]);
        }
    }
    t.push_row([
        "total".to_string(),
        a.cp.decomposition.total_ns().to_string(),
        "100.0".to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "census: {}/{} remote transfers uncontended ({:.1}%) — never waited for a busy injection engine or link",
        a.cp.census.uncontended,
        a.cp.census.transfers,
        100.0 * a.cp.census.fraction()
    );

    std::fs::create_dir_all(cli.out_dir()).expect("create output directory");
    let file_stem = stem(machine, op, cli.p, bytes);
    let trace_path = format!("{}/{file_stem}.trace.json", cli.out_dir());
    let json_path = format!("{}/{file_stem}.critpath.json", cli.out_dir());
    std::fs::write(&trace_path, a.trace.to_json_string()).expect("write trace");
    let doc = decomposition_json(machine, op, cli.p, cli.m, &a.cp);
    std::fs::write(&json_path, doc.to_string_pretty()).expect("write decomposition");
    println!("wrote {trace_path} ({} events)", a.trace.len());
    println!("wrote {json_path}");
    println!("open the trace at https://ui.perfetto.dev (drag & drop the .trace.json)");
}
