//! The single-point `critpath` binary: its decomposition document
//! states the bytes the point actually moves, and `--suite` is refused
//! with usage because `observe --suite` writes the suite's
//! decomposition from the same execution as its other artifacts.

use std::path::Path;
use std::process::Command;

use obs::Json;

const CRITPATH: &str = env!("CARGO_BIN_EXE_critpath");

#[test]
fn suite_mode_exits_2_with_usage() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("critpath_suite");
    let out = Command::new(CRITPATH)
        .args(["--suite", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn critpath");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr {stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("observe --suite"), "{stderr}");
}

#[test]
fn barrier_decomposition_reports_zero_message_bytes() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("critpath_barrier");
    let out = Command::new(CRITPATH)
        .args(["--machine", "t3d", "--op", "barrier", "-m", "4096", "--out"])
        .arg(&out_dir)
        .output()
        .expect("spawn critpath");
    assert!(out.status.success(), "{out:?}");
    let path = out_dir.join("critpath_cray_t3d_barrier_p64_m0.critpath.json");
    let text = std::fs::read_to_string(&path).expect("decomposition written");
    let doc = obs::validate(&text).expect("valid JSON");
    assert_eq!(
        doc.get("m_bytes").and_then(Json::as_f64),
        Some(0.0),
        "{text}"
    );
    assert_eq!(doc.get("op").and_then(Json::as_str), Some("barrier"));
}
