//! Command-line entry point of the benchmark.
//!
//! ```sh
//! cargo run --release -p benchmark -- --workload <name|all> [--seed N] \
//!     [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json PATH]
//! ```
//!
//! Prints one `workload metric value unit` line per metric, a `#`
//! status line, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 1` reports
//! the per-layer metrics and the layer table instead and writes the
//! spans as a Chrome trace to `DIR/<workload>.trace.json`. `all` runs
//! each workload in its own process, so peak memory is per workload.

use benchmark::{Config, Workload};
use std::process::ExitCode;

/// Default measuring budget, matching `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str =
    "usage: benchmark --workload <paper_grid|cold_queries|quick_suite|observed_suite|all> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--json PATH]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: String,
    json: Option<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_dir: "target/benchmark-trace".to_string(),
        json: None,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                named = true;
                a.workload = match v.as_str() {
                    "all" => None,
                    name => {
                        Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?)
                    }
                };
            }
            "--seed" => {
                let v = value()?;
                a.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an integer, got {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds needs a non-negative number, got {v}"))?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                };
            }
            "--trace-dir" => a.trace_dir = value()?.clone(),
            "--json" => a.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !named {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

fn run_one(workload: Workload, a: &Args) -> Result<bool, benchmark::Error> {
    let cfg = Config {
        seed: a.seed,
        seconds: a.seconds,
        scale: 1.0,
        trace: a.trace,
    };
    println!(
        "# benchmark {} seed={} seconds={} trace={}",
        workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let out = benchmark::run(workload, &cfg)?;
    print!("{}", out.lines());
    if let Some(tr) = &out.tracer {
        let table = tr.table();
        println!("# {} layer table (traced run)", workload.name());
        print!("{}", table.render());
        std::fs::create_dir_all(&a.trace_dir)?;
        let path = format!("{}/{}.trace.json", a.trace_dir, workload.name());
        std::fs::write(&path, tr.chrome_trace(workload.name()).to_json_string())?;
        println!("# chrome trace: {path}");
    }
    let json = out.json().to_string_compact();
    if let Some(path) = &a.json {
        std::fs::write(path, format!("{json}\n"))?;
    }
    println!("{json}");
    Ok(out.correct())
}

/// Runs every workload in a child process of this executable, one after
/// another, forwarding the (already validated, flag-value paired) flags.
fn run_all(args: &[String]) -> Result<bool, benchmark::Error> {
    let exe = std::env::current_exe()?;
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let v = it.next().cloned().unwrap_or_default();
            match flag.as_str() {
                "--workload" => child_args.extend(["--workload".to_string(), w.name().to_string()]),
                "--json" => child_args.extend(["--json".to_string(), format!("{v}.{}", w.name())]),
                _ => child_args.extend([flag.clone(), v]),
            }
        }
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(3)
        }
    }
}
