//! Differential run observability driver: structural comparison of run
//! artifacts with first-divergence explanation, plus the perf-trend
//! history across committed benchmark reports.
//!
//! Three modes:
//!
//! ```text
//! tracediff <A> <B>
//! ```
//! compares two artifacts — files or whole directories. Run-record
//! documents (`*.record.json`) are compared structurally: on divergence
//! the report names the first divergent event in time order with its
//! causal ancestor window (walked through the provenance edges), the
//! ranks involved, and expected-vs-got. Other files fall back to a
//! byte comparison that still points at the first differing line — a
//! drop-in replacement for the CI determinism gate's `diff -r`.
//!
//! ```text
//! tracediff --suite [--threads N] [--perturb] [--trace-cap N] [--out DIR]
//! ```
//! runs every point of the fixed 21-point suite (`bench::suite`)
//! twice in-process and diffs the two records. Without `--perturb` both runs
//! are identical seeds and the suite certifies 21/21 byte-identical;
//! with `--perturb` the second run deliberately inverts the
//! send-completion FIFO tie-break (the eager-delivery failure mode) and
//! every divergence is explained. On failure the first-divergence
//! explanation is printed and, with `--out`, written to
//! `<point>.divergence.txt` so CI can upload it as an artifact.
//! Sharded via `harness::par`; output is byte-identical at any
//! `--threads` value.
//!
//! ```text
//! tracediff --history [--bench-dir DIR] [--out FILE]
//! ```
//! renders the performance trajectory across `baseline.json` and all
//! committed `BENCH_*.json` reports as a trend table, flagging
//! regressions between the two most recent reports with the perfgate's
//! noise-aware thresholds.

use bench::perfgate::{self, BenchReport, GateStatus};
use bench::suite::{default_suite, record_point};
use mpisim::TieBreakPolicy;
use obs::record::RunRecord;
use report::Table;
use std::path::Path;

struct Args {
    paths: Vec<String>,
    suite: bool,
    perturb: bool,
    history: bool,
    bench_dir: String,
    threads: usize,
    trace_cap: Option<usize>,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tracediff <A> <B>            compare two run artifacts (files or directories)\n       tracediff --suite [--threads N] [--perturb] [--trace-cap N] [--out DIR]\n       tracediff --history [--bench-dir DIR] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        paths: Vec::new(),
        suite: false,
        perturb: false,
        history: false,
        bench_dir: "crates/bench".to_string(),
        threads: 1,
        trace_cap: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--suite" => parsed.suite = true,
            "--perturb" => parsed.perturb = true,
            "--history" => parsed.history = true,
            "--bench-dir" => parsed.bench_dir = value(),
            "--threads" => parsed.threads = value().parse().unwrap_or_else(|_| usage()),
            "--trace-cap" => parsed.trace_cap = Some(value().parse().unwrap_or_else(|_| usage())),
            "--out" => parsed.out = Some(value()),
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            path => parsed.paths.push(path.to_string()),
        }
    }
    let modes = usize::from(parsed.suite) + usize::from(parsed.history);
    if modes > 1 || (modes == 1 && !parsed.paths.is_empty()) {
        usage();
    }
    if modes == 0 && parsed.paths.len() != 2 {
        usage();
    }
    parsed
}

/// Truncates a line for display, keeping the divergence readable.
fn clip(line: &str) -> String {
    const MAX: usize = 160;
    if line.len() <= MAX {
        line.to_string()
    } else {
        let cut: String = line.chars().take(MAX).collect();
        format!("{cut}… ({} bytes)", line.len())
    }
}

/// Compares two files. Run records get the structural treatment; other
/// content gets a byte comparison that names the first differing line.
/// Returns true when the pair is certified byte-identical.
fn compare_files(a_path: &Path, b_path: &Path, label: &str) -> bool {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let (a_text, b_text) = match (read(a_path), read(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            println!("{label}: ERROR: {e}");
            return false;
        }
    };
    let records = (RunRecord::from_json(&a_text), RunRecord::from_json(&b_text));
    if let (Ok(a), Ok(b)) = records {
        // Structural path: even byte-equal records go through the
        // comparator so certification (dropped-message refusal) applies.
        let diff = obs::diff::diff(&a, &b);
        print!("{}", report::diff::render_report(label, &diff));
        return diff.verdict == obs::Verdict::ByteIdentical && diff.certified;
    }
    if a_text == b_text {
        println!("{label}: byte-identical");
        return true;
    }
    let line = a_text
        .lines()
        .zip(b_text.lines())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a_text.lines().count().min(b_text.lines().count()));
    println!("{label}: DIVERGENT (first at line {})", line + 1);
    let side = |text: &str| {
        text.lines()
            .nth(line)
            .map_or("<end of file>".to_string(), clip)
    };
    println!("  expected: {}", side(&a_text));
    println!("  got:      {}", side(&b_text));
    false
}

/// All regular files under `dir`, as sorted relative paths.
fn walk(dir: &Path) -> Vec<String> {
    fn visit(root: &Path, sub: &Path, out: &mut Vec<String>) {
        let Ok(entries) = std::fs::read_dir(sub) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                visit(root, &path, out);
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().into_owned());
            }
        }
    }
    let mut files = Vec::new();
    visit(dir, dir, &mut files);
    files.sort();
    files
}

/// Directory comparison over the union of both trees.
fn compare_dirs(a_dir: &Path, b_dir: &Path) -> bool {
    let mut names = walk(a_dir);
    for n in walk(b_dir) {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    names.sort();
    if names.is_empty() {
        println!(
            "no files found under {} or {}",
            a_dir.display(),
            b_dir.display()
        );
        return false;
    }
    let mut ok = true;
    for name in &names {
        let (a, b) = (a_dir.join(name), b_dir.join(name));
        match (a.is_file(), b.is_file()) {
            (true, true) => ok &= compare_files(&a, &b, name),
            (present_a, _) => {
                let missing = if present_a { b_dir } else { a_dir };
                println!("{name}: DIVERGENT (missing from {})", missing.display());
                ok = false;
            }
        }
    }
    println!(
        "{} file{} compared: {}",
        names.len(),
        if names.len() == 1 { "" } else { "s" },
        if ok {
            "all byte-identical"
        } else {
            "DIVERGENCES FOUND"
        }
    );
    ok
}

fn run_pair(a: &str, b: &str) -> bool {
    let (a, b) = (Path::new(a), Path::new(b));
    match (a.is_dir(), b.is_dir()) {
        (true, true) => compare_dirs(a, b),
        (false, false) => compare_files(a, b, &format!("{} vs {}", a.display(), b.display())),
        _ => {
            eprintln!("cannot compare a directory against a file");
            std::process::exit(2);
        }
    }
}

/// Runs every suite point twice and diffs the records. The second run
/// is an identical seed (determinism certification) or, with
/// `--perturb`, the tie-break-inverted variant whose divergence the
/// report explains.
fn run_suite(args: &Args) -> bool {
    let suite = default_suite();
    let second = if args.perturb {
        TieBreakPolicy::InvertAll
    } else {
        TieBreakPolicy::InsertionOrder
    };
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let (results, stats) = harness::map_indexed(
        suite.len(),
        args.threads,
        |i| {
            let pt = &suite[i];
            let a = record_point(pt, TieBreakPolicy::InsertionOrder, args.trace_cap).record;
            let b = record_point(pt, second, args.trace_cap).record;
            let diff = obs::diff::diff(&a, &b);
            let ok = diff.verdict == obs::Verdict::ByteIdentical && diff.certified;
            let rendered = report::diff::render_report(&pt.label(), &diff);
            (
                pt.label(),
                a.to_json_string(),
                b.to_json_string(),
                rendered,
                ok,
            )
        },
        &|_, _| {},
    );
    let mut identical = 0usize;
    for (label, rec_a, rec_b, rendered, ok) in &results {
        print!("{rendered}");
        identical += usize::from(*ok);
        if let Some(dir) = &args.out {
            let file_stem = label.replace('/', "_");
            std::fs::write(format!("{dir}/{file_stem}.record.json"), rec_a).expect("write record");
            if args.perturb {
                std::fs::write(format!("{dir}/{file_stem}.perturbed.record.json"), rec_b)
                    .expect("write perturbed record");
            }
            if !ok {
                // The first-divergence explanation as a standalone
                // artifact, so a tripped CI gate uploads it instead of
                // letting it die in the job log.
                std::fs::write(format!("{dir}/{file_stem}.divergence.txt"), rendered)
                    .expect("write divergence explanation");
            }
        }
    }
    // Worker accounting goes to stderr so stdout stays byte-identical
    // at any --threads value.
    println!("{identical}/{} certified byte-identical", results.len());
    eprintln!(
        "({} workers, {:.0}% utilization)",
        stats.threads,
        100.0 * stats.utilization()
    );
    identical == results.len()
}

/// Loads `baseline.json` plus every `BENCH_*.json` under the bench
/// directory, oldest first (baseline, then date order — the dated
/// filenames sort lexically).
fn load_history(dir: &str) -> Vec<(String, BenchReport)> {
    let mut reports = Vec::new();
    let baseline = Path::new(dir).join("baseline.json");
    if let Ok(text) = std::fs::read_to_string(&baseline) {
        match BenchReport::from_json(&text) {
            Ok(r) => reports.push(("baseline".to_string(), r)),
            Err(e) => eprintln!("skipping {}: {e}", baseline.display()),
        }
    }
    let mut dated: Vec<String> = walk(Path::new(dir))
        .into_iter()
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    dated.sort();
    for name in dated {
        let path = Path::new(dir).join(&name);
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| BenchReport::from_json(&text))
        {
            Ok(r) => {
                let label = name
                    .trim_start_matches("BENCH_")
                    .trim_end_matches(".json")
                    .to_string();
                reports.push((label, r));
            }
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    reports
}

/// The perf trajectory across all committed reports: one column per
/// report, medians in µs, and a noise-aware flag on the latest
/// transition.
fn render_history(reports: &[(String, BenchReport)]) -> String {
    let mut labels: Vec<String> = Vec::new();
    for pt in default_suite() {
        labels.push(pt.label());
    }
    for (_, r) in reports {
        for p in &r.points {
            if !labels.contains(&p.label) {
                labels.push(p.label.clone());
            }
        }
    }

    let verdicts = match reports {
        [.., prev, last] => perfgate::compare(&last.1, &prev.1),
        _ => Vec::new(),
    };
    let mut headers: Vec<String> = vec!["point".to_string()];
    headers.extend(reports.iter().map(|(name, _)| format!("{name} (µs)")));
    if !verdicts.is_empty() {
        headers.push("latest".to_string());
    }
    let mut table = Table::new(headers);
    for label in &labels {
        let mut row = vec![label.clone()];
        for (_, r) in reports {
            row.push(
                r.point(label)
                    .map_or(String::new(), |p| format!("{:.1}", p.median_us)),
            );
        }
        if !verdicts.is_empty() {
            let flag = verdicts
                .iter()
                .find(|v| &v.label == label)
                .map_or("", |v| match v.status {
                    GateStatus::Ok => "",
                    s => s.label(),
                });
            row.push(flag.to_string());
        }
        table.push_row(row);
    }

    let mut out = format!("perf trend across {} reports\n\n", reports.len());
    out.push_str(&table.render());
    if let [.., prev, last] = reports {
        let drift = perfgate::drift(&last.1, &prev.1);
        let regressions: Vec<&str> = verdicts
            .iter()
            .filter(|v| v.status == GateStatus::Regression)
            .map(|v| v.label.as_str())
            .collect();
        out.push_str(&format!(
            "\nlatest transition {} -> {}: median drift {:+.1}%, {}\n",
            prev.0,
            last.0,
            100.0 * (drift - 1.0),
            if regressions.is_empty() {
                "no regressions".to_string()
            } else {
                format!("REGRESSIONS: {}", regressions.join(", "))
            }
        ));
    }
    out
}

fn run_history(args: &Args) -> bool {
    let reports = load_history(&args.bench_dir);
    if reports.is_empty() {
        eprintln!(
            "no benchmark reports (baseline.json / BENCH_*.json) under {}",
            args.bench_dir
        );
        return false;
    }
    let rendered = render_history(&reports);
    match &args.out {
        Some(path) => {
            std::fs::write(path, &rendered).expect("write history report");
            println!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    reports
        .last()
        .map(|(_, r)| !r.points.is_empty())
        .unwrap_or(false)
}

fn main() {
    let args = parse_args();
    let ok = if args.history {
        run_history(&args)
    } else if args.suite {
        run_suite(&args)
    } else {
        run_pair(&args.paths[0], &args.paths[1])
    };
    std::process::exit(i32::from(!ok));
}
