//! The bench binaries refuse a flag they do not know, or a flag
//! missing its value, with usage and exit status 2, before doing any
//! work: a mistyped `--deny` must not turn the schedlint gate off.

use std::process::Command;

/// `(binary, arguments)` pairs that must be refused.
const BAD_COMMAND_LINES: [(&str, &[&str]); 3] = [
    (env!("CARGO_BIN_EXE_schedlint"), &["--dney"]),
    (env!("CARGO_BIN_EXE_p2p"), &["--quik"]),
    (env!("CARGO_BIN_EXE_p2p"), &["--csv"]),
];

#[test]
fn unknown_flags_and_missing_values_exit_2_with_usage() {
    for (exe, args) in BAD_COMMAND_LINES {
        let out = Command::new(exe).args(args).output().expect("spawn binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let label = format!("{exe} {}", args.join(" "));
        assert_eq!(out.status.code(), Some(2), "{label}: stderr {stderr}");
        assert!(stderr.contains("usage:"), "{label}: {stderr}");
    }
}
