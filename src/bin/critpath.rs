//! Critical-path profiler: reconstruct the causal critical path
//! of one collective run, decompose its end-to-end latency into blame
//! categories (software overhead, wire, FIFO/link contention waits,
//! barrier sync), and report the contention census.
//!
//! ```text
//! cargo run --release --bin critpath -- --machine t3d --op scan -p 64 -m 4096
//! ```
//!
//! runs the point once through `bench::suite::record_point` and writes a
//! Perfetto trace with a dedicated "critical path" track (flow arrows at
//! every rank hop) plus a `*.critpath.json` decomposition document, and
//! prints the metrics and the blame table.
//!
//! The 21-point suite's decomposition (`critpath.json`), contention
//! census (`census.prom`), blame table and scan-vs-bcast comparison are
//! written by `observe --suite`, from the same execution as the suite's
//! traces and run records; `critpath --suite` exits 2 with usage.
//!
//! `--trace-cap N` caps recorded message traces at N entries; capped
//! runs report how many messages the critical-path walk missed.

use bench::cli::{Accept, PointCli};
use bench::suite::{blame_pct, decomposition_json, record_point};
use mpisim::{observe, TieBreakPolicy};
use obs::critpath::Blame;
use report::Table;

fn usage() -> ! {
    eprintln!(
        "usage: critpath {} [--out DIR] [--trace-cap N]\n       (the suite decomposition is written by `observe --suite`)",
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
    if cli.suite || !cli.selection_ok() {
        usage();
    }
    if let Err(e) = cli.check_point() {
        eprintln!("{e}");
        usage();
    }
    cli
}

fn main() {
    let cli = parse_args();
    let pt = cli.point().expect("checked in parse_args");
    let rec = record_point(&pt, TieBreakPolicy::InsertionOrder, cli.trace_cap);
    let cp = &rec.cp;
    let manifest = obs::RunManifest::new(pt.machine.name())
        .param("op", pt.op.key())
        .param("p", pt.nodes)
        .param("m_bytes", pt.bytes)
        .param("end_rank", cp.end_rank)
        .param("chain_depth", cp.chain_depth.unwrap_or(0));

    println!("{}", report::metrics::render(&manifest, &rec.reg));
    println!();
    let mut t = Table::new(["category", "ns", "%"]);
    for &b in &Blame::ALL {
        let ns = cp.decomposition.get(b);
        if ns > 0 {
            t.push_row([
                format!("critpath.{}", b.key()),
                ns.to_string(),
                blame_pct(cp, b),
            ]);
        }
    }
    t.push_row([
        "total".to_string(),
        cp.decomposition.total_ns().to_string(),
        "100.0".to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "census: {}/{} remote transfers uncontended ({:.1}%) — never waited for a busy injection engine or link",
        cp.census.uncontended,
        cp.census.transfers,
        100.0 * cp.census.fraction()
    );

    std::fs::create_dir_all(cli.out_dir()).expect("create output directory");
    let file_stem = pt.stem("critpath");
    let trace_path = format!("{}/{file_stem}.trace.json", cli.out_dir());
    let json_path = format!("{}/{file_stem}.critpath.json", cli.out_dir());
    let trace = observe::chrome_trace_with_critpath(pt.machine.name(), &rec.out, &rec.observed, cp);
    std::fs::write(&trace_path, trace.to_json_string()).expect("write trace");
    let doc = decomposition_json(&pt, cp);
    std::fs::write(&json_path, doc.to_string_pretty()).expect("write decomposition");
    println!("wrote {trace_path} ({} events)", trace.len());
    println!("wrote {json_path}");
    println!("open the trace at https://ui.perfetto.dev (drag & drop the .trace.json)");
}
