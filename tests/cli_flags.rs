//! The analysis drivers refuse a command line they would otherwise
//! half-honour, with exit status 2 and a message on stderr, before
//! doing any work:
//!
//! * `tracediff` reports a path it cannot read as an I/O error naming
//!   the path, not as a divergence (exit 1 keeps that meaning);
//! * `tracediff <A> <B>` refuses the `--suite`-only flags;
//! * `observe --suite` refuses `--profile`, and `observe --suite` and
//!   `ordercheck --suite` refuse the point flags.

use std::path::{Path, PathBuf};
use std::process::Command;

const TRACEDIFF: &str = env!("CARGO_BIN_EXE_tracediff");
const OBSERVE: &str = env!("CARGO_BIN_EXE_observe");
const ORDERCHECK: &str = env!("CARGO_BIN_EXE_ordercheck");

/// `(binary, arguments, what stderr must contain)`. The upper-case
/// words stand for paths under the test's scratch directory: `A` and
/// `B` are identical files, `DIR` a directory, `MISSING_*` absent.
const CASES: [(&str, &str, &str); 12] = [
    (TRACEDIFF, "MISSING_A MISSING_B", "MISSING_A"),
    (TRACEDIFF, "DIR MISSING_B", "MISSING_B"),
    (TRACEDIFF, "MISSING_A DIR", "MISSING_A"),
    (TRACEDIFF, "A B --perturb", "usage:"),
    (TRACEDIFF, "A B --threads 4", "usage:"),
    (TRACEDIFF, "A B --trace-cap 3", "usage:"),
    (TRACEDIFF, "A B --out OUT", "usage:"),
    (OBSERVE, "--suite --profile --out OUT", "usage:"),
    (
        OBSERVE,
        "--suite --machine t3d --op bcast -p 8 --out OUT",
        "usage:",
    ),
    (OBSERVE, "-m 64 --suite --out OUT", "usage:"),
    (
        ORDERCHECK,
        "--suite --machine t3d --op bcast -p 8 --out OUT",
        "usage:",
    ),
    (ORDERCHECK, "-m 64 --suite --out OUT", "usage:"),
];

#[test]
fn refused_command_lines_exit_2_with_usage_or_the_missing_path() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_flags");
    std::fs::create_dir_all(tmp.join("dir")).expect("create scratch directory");
    std::fs::write(tmp.join("a.txt"), "same\n").expect("write A");
    std::fs::write(tmp.join("b.txt"), "same\n").expect("write B");
    let resolve = |word: &str| -> String {
        let path: Option<PathBuf> = match word {
            "A" => Some(tmp.join("a.txt")),
            "B" => Some(tmp.join("b.txt")),
            "DIR" => Some(tmp.join("dir")),
            "MISSING_A" => Some(tmp.join("missing-a")),
            "MISSING_B" => Some(tmp.join("missing-b")),
            "OUT" => Some(tmp.join("out")),
            _ => None,
        };
        path.map_or_else(|| word.to_string(), |p| p.to_string_lossy().into_owned())
    };

    // Every case runs, so a failure lists all the command lines that
    // were not refused, not just the first.
    let mut failures = Vec::new();
    for (exe, args, expect) in CASES {
        let run = Command::new(exe)
            .args(args.split(' ').map(resolve))
            .output()
            .expect("spawn binary");
        let stderr = String::from_utf8_lossy(&run.stderr);
        let name = Path::new(exe).file_name().unwrap_or_default();
        let label = format!("{} {args}", name.to_string_lossy());
        if run.status.code() != Some(2) {
            failures.push(format!("{label}: exit {:?}: {stderr}", run.status.code()));
        } else if !stderr.contains(&resolve(expect)) || stderr.contains("panicked") {
            failures.push(format!(
                "{label}: stderr lacks {expect} or panicked: {stderr}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} command lines not refused:\n{}",
        failures.len(),
        CASES.len(),
        failures.join("\n")
    );
}
