//! The bench binaries refuse a flag they do not read, or a flag
//! missing its value, with usage and exit status 2, before doing any
//! work: a mistyped `--deny` must not turn the schedlint gate off, and
//! a flag a binary would ignore must not look honoured.

use std::path::Path;
use std::process::Command;

/// `(binary, arguments)` pairs that must be refused.
const BAD_COMMAND_LINES: [(&str, &[&str]); 10] = [
    (env!("CARGO_BIN_EXE_schedlint"), &["--dney"]),
    (env!("CARGO_BIN_EXE_p2p"), &["--quik"]),
    (env!("CARGO_BIN_EXE_p2p"), &["--csv"]),
    (env!("CARGO_BIN_EXE_p2p"), &["--threads", "4"]),
    (env!("CARGO_BIN_EXE_trace"), &["--quick"]),
    (env!("CARGO_BIN_EXE_stap_report"), &["--json"]),
    (env!("CARGO_BIN_EXE_hotspots"), &["--quick"]),
    (env!("CARGO_BIN_EXE_ablations"), &["--threads", "2"]),
    (env!("CARGO_BIN_EXE_full_report"), &["--csv", "DIR"]),
    (env!("CARGO_BIN_EXE_full_report"), &["--json"]),
];

#[test]
fn unknown_flags_and_missing_values_exit_2_with_usage() {
    // Every case runs, so a failure lists all the command lines that
    // were not refused, not just the first.
    let mut failures = Vec::new();
    for (exe, args) in BAD_COMMAND_LINES {
        let out = Command::new(exe).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let name = Path::new(exe).file_name().unwrap_or_default();
        let label = format!("{} {}", name.to_string_lossy(), args.join(" "));
        if out.status.code() != Some(2) || !stderr.contains("usage:") {
            failures.push(format!("{label}: exit {:?}: {stderr}", out.status.code()));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// An output directory that cannot be created is reported with its
/// path and a non-zero exit before the sweep starts.
#[test]
fn full_report_names_an_output_path_it_cannot_create() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_cli_flags");
    std::fs::create_dir_all(&tmp).expect("create scratch directory");
    let file = tmp.join("regular-file");
    std::fs::write(&file, "not a directory\n").expect("write regular file");
    let out_dir = file.join("results");
    let out = Command::new(env!("CARGO_BIN_EXE_full_report"))
        .args(["--quick", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn full_report");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success() && out.status.code().is_some(),
        "exit {:?}: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains(&out_dir.display().to_string()),
        "stderr does not name {}: {stderr}",
        out_dir.display()
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("sweep]"), "swept before failing: {stderr}");
}
