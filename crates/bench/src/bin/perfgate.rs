//! Continuous-benchmark pipeline: runs the fixed perfgate suite, writes
//! a schema-versioned `BENCH_<date>.json`, and gates against the
//! committed `crates/bench/baseline.json`.
//!
//! ```text
//! cargo run -p bench --release --bin perfgate -- [options]
//!
//!   --quick              reduced measurement protocol (CI default)
//!   --rounds N           timing rounds per suite point (default 5)
//!   --threads N          worker threads for the untimed stages (fit
//!                        sweep, communicator setup); 0 = auto-detect.
//!                        The wall-clock measurement points themselves
//!                        always run pinned to one worker, serialized
//!                        within each interleaved round, so reported
//!                        numbers stay comparable to the committed
//!                        baseline at any thread count (default 1)
//!   --out FILE           report path (default BENCH_<date>.json)
//!   --baseline FILE      baseline path (default crates/bench/baseline.json)
//!   --update-baseline    overwrite the baseline with this run and exit
//!   --report-only        never fail on regressions (still fails on
//!                        schema/IO errors) — the CI perf job's mode
//!   --no-fit             skip the fit-quality drift sweep
//! ```
//!
//! Alongside the report, the `sweep.par.*` worker-utilization metrics
//! of the fit sweep are written to `<out stem>.par.json` so CI can
//! archive executor utilization next to the wall-clock numbers.
//!
//! Exit codes: 0 pass, 1 regression beyond the noise-aware threshold,
//! 2 schema or I/O error, or an unknown flag or missing value.

use bench::perfgate::{
    compare, drift, iso_date, perf_rows, run_suite, BenchReport, GateStatus, SuiteConfig,
};
use bench::suite::default_suite;
use harness::{Protocol, SweepBuilder};
use mpisim::OpClass;
use obs::MetricsRegistry;
use std::time::SystemTime;

struct Opts {
    quick: bool,
    rounds: usize,
    threads: usize,
    out: Option<String>,
    baseline: String,
    update_baseline: bool,
    report_only: bool,
    fit: bool,
}

const USAGE: &str = "usage: perfgate [--quick] [--rounds N] [--threads N] [--out FILE] \
                     [--baseline FILE] [--update-baseline] [--report-only] [--no-fit]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        quick: false,
        rounds: 5,
        threads: 1,
        out: None,
        baseline: concat!(env!("CARGO_MANIFEST_DIR"), "/baseline.json").to_string(),
        update_baseline: false,
        report_only: false,
        fit: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => o.quick = true,
            "--rounds" => {
                o.rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--rounds needs a positive integer");
                        usage();
                    });
            }
            "--threads" => {
                o.threads = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a non-negative integer (0 = auto)");
                    usage();
                });
            }
            "--out" => {
                o.out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    usage();
                }));
            }
            "--baseline" => {
                o.baseline = args.next().unwrap_or_else(|| {
                    eprintln!("--baseline needs a path");
                    usage();
                });
            }
            "--update-baseline" => o.update_baseline = true,
            "--report-only" => o.report_only = true,
            "--no-fit" => o.fit = false,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    o
}

/// Fit-quality drift sweep: a small grid, fitted per (machine, op), with
/// R²/residual/accuracy gauges exported so each BENCH_*.json carries the
/// model-quality state alongside the wall-clock numbers.
fn fit_metrics(reg: &mut MetricsRegistry, threads: usize) -> Result<(), String> {
    let sweep = SweepBuilder::new()
        .ops(OpClass::COLLECTIVES)
        .message_sizes([64, 1024, 16_384])
        .node_counts([8, 16, 32, 64])
        .protocol(Protocol::quick())
        .threads(threads);
    let data = sweep.run_metered(reg).map_err(|e| e.to_string())?;
    for d in perfmodel::diagnose_all(&data) {
        d.export_metrics(reg);
    }
    Ok(())
}

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let opts = parse_opts();
    let date = iso_date(
        SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    );

    // Schema fail-fast: parse the committed baseline BEFORE spending
    // minutes on the fit sweep and timing suite, so a schema-version
    // drift between the baseline document and this writer dies in
    // seconds, not at the end of the run. A *missing* baseline is fine
    // (handled after the run, and irrelevant under --update-baseline).
    let baseline = if opts.update_baseline {
        None
    } else {
        match std::fs::read_to_string(&opts.baseline) {
            Ok(text) => match BenchReport::from_json(&text) {
                Ok(b) => Some(b),
                Err(e) => {
                    eprintln!("[perfgate] baseline {} invalid: {e}", opts.baseline);
                    eprintln!(
                        "[perfgate] refusing to run the suite against it — refresh with --update-baseline"
                    );
                    return 2;
                }
            },
            Err(_) => None,
        }
    };

    let mut reg = MetricsRegistry::new();
    if opts.fit {
        eprintln!(
            "[perfgate] fit-quality sweep ({} thread(s))…",
            harness::resolve_threads(opts.threads)
        );
        if let Err(e) = fit_metrics(&mut reg, opts.threads) {
            eprintln!("[perfgate] fit sweep failed: {e}");
            return 2;
        }
    }

    let suite = default_suite();

    let protocol = if opts.quick {
        Protocol::quick()
    } else {
        Protocol::paper()
    };
    eprintln!(
        "[perfgate] timing {} suite points x {} rounds ({})…",
        suite.len(),
        opts.rounds,
        if opts.quick { "quick" } else { "paper" }
    );
    let current = match run_suite(
        &suite,
        &protocol,
        SuiteConfig {
            rounds: opts.rounds,
            quick: opts.quick,
            threads: opts.threads,
        },
        date.clone(),
        reg.snapshot(),
        |done, total| {
            if done % suite_progress_stride(total) == 0 || done == total {
                eprintln!("[perfgate]   {done}/{total}");
            }
        },
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[perfgate] suite failed: {e}");
            return 2;
        }
    };

    let out_path = opts.out.clone().unwrap_or(format!("BENCH_{date}.json"));
    let doc = current.to_json().to_string_pretty();
    if let Err(e) = std::fs::write(&out_path, &doc) {
        eprintln!("[perfgate] cannot write {out_path}: {e}");
        return 2;
    }
    eprintln!("[perfgate] wrote {out_path}");

    // Executor-utilization sidecar: the sweep.par.* subset of the fit
    // sweep's metrics, archived by CI next to the report artifact.
    let par_path = format!("{}.par.json", out_path.trim_end_matches(".json"));
    let par_doc = match reg.snapshot() {
        obs::Json::Object(all) => obs::Json::Object(
            all.into_iter()
                .filter(|(k, _)| k.starts_with("sweep.par."))
                .collect(),
        ),
        other => other,
    };
    if let Err(e) = std::fs::write(&par_path, par_doc.to_string_pretty()) {
        eprintln!("[perfgate] cannot write {par_path}: {e}");
        return 2;
    }
    eprintln!("[perfgate] wrote {par_path}");

    if opts.update_baseline {
        if let Err(e) = std::fs::write(&opts.baseline, &doc) {
            eprintln!("[perfgate] cannot write baseline {}: {e}", opts.baseline);
            return 2;
        }
        println!(
            "baseline updated: {} ({} points)",
            opts.baseline,
            current.points.len()
        );
        return 0;
    }

    // Parsed (and schema-checked) before the suite ran.
    let Some(baseline) = baseline else {
        println!(
            "no baseline at {} — run with --update-baseline to create one",
            opts.baseline
        );
        let verdicts = compare(&current, &empty_baseline(&current));
        println!("{}", report::perf::render(&perf_rows(&current, &verdicts)));
        return 0;
    };

    let verdicts = compare(&current, &baseline);
    println!(
        "perfgate {date} vs baseline {} ({} rounds, {}); host drift {:+.1}% (normalized out):",
        baseline.date,
        current.rounds,
        if current.quick { "quick" } else { "paper" },
        (drift(&current, &baseline) - 1.0) * 100.0
    );
    println!("{}", report::perf::render(&perf_rows(&current, &verdicts)));

    let regressions: Vec<_> = verdicts
        .iter()
        .filter(|v| v.status == GateStatus::Regression)
        .collect();
    if regressions.is_empty() {
        println!("gate: PASS ({} points)", verdicts.len());
        0
    } else {
        println!(
            "gate: {} regression(s): {}",
            regressions.len(),
            regressions
                .iter()
                .map(|v| v.label.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        if opts.report_only {
            println!("(report-only mode: not failing the build)");
            0
        } else {
            1
        }
    }
}

fn suite_progress_stride(total: usize) -> usize {
    (total / 10).max(1)
}

/// A baseline with no points, so every current point reads as `new`.
fn empty_baseline(current: &BenchReport) -> BenchReport {
    BenchReport {
        points: Vec::new(),
        metrics: obs::Json::Null,
        ..current.clone()
    }
}
