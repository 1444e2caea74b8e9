//! The point-selection drivers reject a partition size their machine
//! does not have with the typed size error and exit code 2, never a
//! panic: `-p 0` on any machine, and `-p 128` on the 64-node T3D.

use std::process::Command;

/// `(binary, path)` for every driver that takes a single `-p` point.
const DRIVERS: [(&str, &str); 3] = [
    ("observe", env!("CARGO_BIN_EXE_observe")),
    ("critpath", env!("CARGO_BIN_EXE_critpath")),
    ("ordercheck", env!("CARGO_BIN_EXE_ordercheck")),
];

/// `(machine, p, the typed error's message)` for each out-of-range size.
const BAD_SIZES: [(&str, &str, &str); 2] = [
    (
        "t3d",
        "128",
        "communicator size 128 outside the machine's 1..=64 range",
    ),
    (
        "sp2",
        "0",
        "communicator size 0 outside the machine's 1..=128 range",
    ),
];

#[test]
fn out_of_range_partition_sizes_exit_2_with_the_typed_error() {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_point_errors");
    for (name, exe) in DRIVERS {
        for (machine, p, message) in BAD_SIZES {
            let out = Command::new(exe)
                .args(["--machine", machine, "--op", "bcast", "-p", p, "--out"])
                .arg(&out_dir)
                .output()
                .expect("spawn driver");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let label = format!("{name} --machine {machine} -p {p}");
            assert_eq!(out.status.code(), Some(2), "{label}: stderr {stderr}");
            assert!(!stderr.contains("panicked"), "{label}: {stderr}");
            assert!(stderr.contains(message), "{label}: {stderr}");
            assert!(stderr.contains("usage:"), "{label}: {stderr}");
        }
    }
}
