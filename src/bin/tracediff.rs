//! Differential run observability driver: structural comparison of run
//! artifacts with first-divergence explanation.
//!
//! Two modes:
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
//! drop-in replacement for the CI determinism gate's `diff -r`. A file
//! present on only one side of a directory comparison is a divergence.
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
//! `--threads` value. The four flags belong to `--suite`; a comparison
//! given any of them is refused.
//!
//! Exit status: 0 when everything compared is certified identical, 1
//! when the comparison ran and found a divergence, 2 on a usage error
//! or an I/O error (a path that does not exist or cannot be read or
//! written, named on stderr).

use bench::suite::{default_suite, record_point};
use mpisim::TieBreakPolicy;
use obs::record::RunRecord;
use std::path::Path;

struct Args {
    paths: Vec<String>,
    suite: bool,
    perturb: bool,
    threads: Option<usize>,
    trace_cap: Option<usize>,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: tracediff <A> <B>            compare two run artifacts (files or directories)\n       tracediff --suite [--threads N] [--perturb] [--trace-cap N] [--out DIR]\nexit status: 0 identical, 1 divergent, 2 usage or I/O error"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        paths: Vec::new(),
        suite: false,
        perturb: false,
        threads: None,
        trace_cap: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--suite" => parsed.suite = true,
            "--perturb" => parsed.perturb = true,
            "--threads" => parsed.threads = Some(value().parse().unwrap_or_else(|_| usage())),
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
    let suite_flags = parsed.perturb
        || parsed.threads.is_some()
        || parsed.trace_cap.is_some()
        || parsed.out.is_some();
    let valid = if parsed.suite {
        parsed.paths.is_empty()
    } else {
        parsed.paths.len() == 2 && !suite_flags
    };
    if !valid {
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

/// An I/O failure on `path`, as the message `main` prints before
/// exiting with status 2.
fn io_error(action: &str, path: &Path, e: std::io::Error) -> String {
    format!("cannot {action} {}: {e}", path.display())
}

/// Compares two files. Run records get the structural treatment; other
/// content gets a byte comparison that names the first differing line.
/// Returns true when the pair is certified byte-identical.
fn compare_files(a_path: &Path, b_path: &Path, label: &str) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| io_error("read", p, e));
    let (a_text, b_text) = (read(a_path)?, read(b_path)?);
    let records = (RunRecord::from_json(&a_text), RunRecord::from_json(&b_text));
    if let (Ok(a), Ok(b)) = records {
        // Structural path: even byte-equal records go through the
        // comparator so certification (dropped-message refusal) applies.
        let diff = obs::diff::diff(&a, &b);
        print!("{}", report::diff::render_report(label, &diff));
        return Ok(diff.verdict == obs::Verdict::ByteIdentical && diff.certified);
    }
    if a_text == b_text {
        println!("{label}: byte-identical");
        return Ok(true);
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
    Ok(false)
}

/// All regular files under `dir`, as sorted relative paths.
fn walk(dir: &Path) -> Result<Vec<String>, String> {
    fn visit(root: &Path, sub: &Path, out: &mut Vec<String>) -> Result<(), String> {
        let entries = std::fs::read_dir(sub).map_err(|e| io_error("read", sub, e))?;
        for entry in entries {
            let path = entry.map_err(|e| io_error("read", sub, e))?.path();
            if path.is_dir() {
                visit(root, &path, out)?;
            } else if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().into_owned());
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    visit(dir, dir, &mut files)?;
    files.sort();
    Ok(files)
}

/// Directory comparison over the union of both trees.
fn compare_dirs(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let mut names = walk(a_dir)?;
    for n in walk(b_dir)? {
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
        return Ok(false);
    }
    let mut ok = true;
    for name in &names {
        let (a, b) = (a_dir.join(name), b_dir.join(name));
        match (a.is_file(), b.is_file()) {
            (true, true) => ok &= compare_files(&a, &b, name)?,
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
    Ok(ok)
}

fn run_pair(a: &str, b: &str) -> Result<bool, String> {
    let (a, b) = (Path::new(a), Path::new(b));
    let is_dir = |p: &Path| {
        std::fs::metadata(p)
            .map(|m| m.is_dir())
            .map_err(|e| io_error("read", p, e))
    };
    match (is_dir(a)?, is_dir(b)?) {
        (true, true) => compare_dirs(a, b),
        (false, false) => compare_files(a, b, &format!("{} vs {}", a.display(), b.display())),
        _ => Err("cannot compare a directory against a file".to_string()),
    }
}

/// Runs every suite point twice and diffs the records. The second run
/// is an identical seed (determinism certification) or, with
/// `--perturb`, the tie-break-inverted variant whose divergence the
/// report explains.
fn run_suite(args: &Args) -> Result<bool, String> {
    let suite = default_suite();
    let second = if args.perturb {
        TieBreakPolicy::InvertAll
    } else {
        TieBreakPolicy::InsertionOrder
    };
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| io_error("create", Path::new(dir), e))?;
    }
    let (results, stats) = harness::map_indexed(
        suite.len(),
        args.threads.unwrap_or(1),
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
    let write = |path: String, contents: &str| {
        std::fs::write(&path, contents).map_err(|e| io_error("write", Path::new(&path), e))
    };
    let mut identical = 0usize;
    for (label, rec_a, rec_b, rendered, ok) in &results {
        print!("{rendered}");
        identical += usize::from(*ok);
        if let Some(dir) = &args.out {
            let file_stem = label.replace('/', "_");
            write(format!("{dir}/{file_stem}.record.json"), rec_a)?;
            if args.perturb {
                write(format!("{dir}/{file_stem}.perturbed.record.json"), rec_b)?;
            }
            if !ok {
                // The first-divergence explanation as a standalone
                // artifact, so a tripped CI gate uploads it instead of
                // letting it die in the job log.
                write(format!("{dir}/{file_stem}.divergence.txt"), rendered)?;
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
    Ok(identical == results.len())
}

fn main() {
    let args = parse_args();
    let compared = if args.suite {
        run_suite(&args)
    } else {
        run_pair(&args.paths[0], &args.paths[1])
    };
    match compared {
        Ok(identical) => std::process::exit(i32::from(!identical)),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
