//! Order-analysis driver: certify which same-instant event reorderings
//! commute and name the ones that do not.
//!
//! ```text
//! cargo run --bin ordercheck -- --machine t3d --op alltoall -p 64 -m 4096
//! ```
//!
//! runs one point: baseline execution, static independence over
//! schedule-widened footprints, then bounded DPOR-style exploration —
//! each co-enabled same-instant pair re-executed with a targeted
//! `TieBreakPolicy::InvertPair` swap and judged by the canonical-order
//! oracle. Prints the commutability census and writes a
//! `*.ordercheck.json` document.
//!
//! `--suite [--threads N]` sweeps the fixed 21-point `bench::suite` grid
//! (it refuses the point flags `--machine`, `--op`, `-p` and `-m`),
//! writing `ordercheck.json` plus an `ordercheck.prom` exposition file
//! (`ordercheck.sensitive_pairs`, `ordercheck.explored`, and per-point
//! series). Output is byte-identical for any `--threads N`. With
//! `--deny`, exits nonzero if any explored order-sensitive pair was
//! *not* predicted by the static relation (an unexplained pair) — the
//! CI gate keeping the commutability census exact.
//!
//! `--demo-broken` seeds the known failure mode instead (invert *all*
//! ties) and reports the minimal divergent pair with provenance
//! context, plus the canonical oracle's verdict on whether the reorder
//! changed the execution or only the bookkeeping.
//!
//! `--per-class N` / `--max-explore N` bound how many inversions are
//! re-executed per event-class pair and per point.

use bench::cli::{Accept, PointCli};
use ordercheck::{analyze_point, demo_broken, ExploreOptions, PointCensus, PointSpec, SuiteCensus};
use report::Table;

struct Args {
    cli: PointCli,
    deny: bool,
    demo: bool,
    opts: ExploreOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: ordercheck {} [--out DIR] [--per-class N] [--max-explore N] [--trace-cap N] [--demo-broken]\n       ordercheck --suite [--threads N] [--deny] [--out DIR] [--per-class N] [--max-explore N]",
        bench::cli::POINT_USAGE
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut cli = PointCli::default();
    let mut deny = false;
    let mut demo = false;
    let mut opts = ExploreOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match cli.accept(&a, || args.next()) {
            Accept::Consumed => continue,
            Accept::Invalid => usage(),
            Accept::Unknown => {}
        }
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--deny" => deny = true,
            "--demo-broken" => demo = true,
            "--per-class" => opts.per_class = value().parse().unwrap_or_else(|_| usage()),
            "--max-explore" => opts.max_explore = value().parse().unwrap_or_else(|_| usage()),
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
    opts.trace_limit = cli.trace_cap;
    Args {
        cli,
        deny,
        demo,
        opts,
    }
}

fn census_table(points: &[PointCensus]) -> Table {
    let mut t = Table::new(
        [
            "machine",
            "op",
            "ties",
            "pruned",
            "cand",
            "indep",
            "explored",
            "commute",
            "sensitive",
            "unexplained",
            "missed",
        ]
        .into_iter()
        .map(str::to_string),
    );
    for c in points {
        t.push_row([
            c.machine.clone(),
            c.op.clone(),
            c.tie_pairs.to_string(),
            (c.pruned_causal + c.pruned_hb).to_string(),
            c.candidates.to_string(),
            c.independent.to_string(),
            c.explored.to_string(),
            c.commuting.to_string(),
            c.sensitive.to_string(),
            c.unexplained.to_string(),
            c.missed.to_string(),
        ]);
    }
    t
}

fn print_point(c: &PointCensus) {
    println!("{}", census_table(std::slice::from_ref(c)).render());
    for cl in &c.classes {
        println!(
            "  {}: explored {} commute {} sensitive {} (unexplained {}) missed {}",
            cl.classes, cl.explored, cl.commuting, cl.sensitive, cl.unexplained, cl.missed
        );
    }
    for ex in &c.sensitive_examples {
        println!("  sensitive {ex}");
    }
}

/// Stable per-point file stem, e.g. `ordercheck_cray_t3d_alltoall_p64_m4096`.
fn stem(c: &PointCensus) -> String {
    format!(
        "ordercheck_{}_{}_p{}_m{}",
        c.machine.to_ascii_lowercase().replace(' ', "_"),
        c.op,
        c.p,
        c.m
    )
}

fn run_suite(args: &Args) {
    let suite = bench::suite::default_suite();
    let points: Vec<PointSpec> = suite
        .iter()
        .map(|pt| PointSpec {
            machine: pt.machine.clone(),
            op: pt.op,
            p: pt.nodes,
            m: pt.bytes,
        })
        .collect();
    let (census, stats) = ordercheck::suite_census(&points, args.cli.threads, &args.opts);

    println!(
        "same-instant commutability census ({} points):",
        census.points.len()
    );
    println!("{}", census_table(&census.points).render());
    summary(&census);

    let out_dir = args.cli.out_dir();
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let json_path = format!("{out_dir}/ordercheck.json");
    std::fs::write(&json_path, census.to_json_string()).expect("write census");
    let mut reg = obs::MetricsRegistry::new();
    census.export_metrics(&mut reg);
    let prom_path = format!("{out_dir}/ordercheck.prom");
    std::fs::write(&prom_path, obs::prom::text(&reg)).expect("write prom");
    println!(
        "wrote {json_path} and {prom_path} ({} workers, {:.0}% utilization)",
        stats.threads,
        100.0 * stats.utilization()
    );

    if args.deny && !census.clean() {
        for c in census.points.iter().filter(|c| !c.clean()) {
            eprintln!(
                "DENY: {} {} has {} unexplained order-sensitive pair(s):",
                c.machine, c.op, c.unexplained
            );
            for ex in &c.sensitive_examples {
                eprintln!("  {ex}");
            }
        }
        std::process::exit(1);
    }
}

fn summary(census: &SuiteCensus) {
    println!(
        "explored {} inversions: {} order-sensitive ({} unexplained) — \
         static independence {} the admission set",
        census.explored(),
        census.sensitive(),
        census.unexplained(),
        if census.clean() {
            "certifies"
        } else {
            "FAILS to certify"
        }
    );
}

fn main() {
    let args = parse_args();
    if args.cli.suite {
        run_suite(&args);
        return;
    }

    let machine = args.cli.machine.clone().expect("checked in parse_args");
    let op = args.cli.op.expect("checked in parse_args");
    let spec = PointSpec {
        machine,
        op,
        p: args.cli.p,
        m: args.cli.m,
    };

    if args.demo {
        let report = demo_broken(&spec, &args.opts);
        print!("{}", report.render());
        if !report.caught {
            std::process::exit(1);
        }
        return;
    }

    let census = analyze_point(&spec, &args.opts);
    print_point(&census);
    let suite = SuiteCensus {
        points: vec![census.clone()],
    };
    summary(&suite);

    let out_dir = args.cli.out_dir();
    std::fs::create_dir_all(out_dir).expect("create output directory");
    let path = format!("{out_dir}/{}.json", stem(&census));
    std::fs::write(&path, census.to_json().to_string_pretty()).expect("write census");
    println!("wrote {path}");
    if args.deny && !census.clean() {
        std::process::exit(1);
    }
}
