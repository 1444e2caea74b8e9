//! The paper regeneration: sweeps the paper's full `T(m, p)` grid once
//! and renders every paper artifact from that one dataset.
//!
//! ```sh
//! cargo run -p bench --release --bin full_report -- --out results
//! cargo run -p bench --release --bin full_report -- --quick
//! ```
//!
//! With `--out DIR` it writes Table 3, Figs. 1–5, the headline numbers
//! and the calibration grid (`*.txt`), `dataset.csv`, `report.md` and
//! Fig. 1's gnuplot panels into `DIR`; without it, it prints the
//! markdown report. The sweep runs one worker per core unless
//! `--threads N` says otherwise (`--threads 1` is serial, 0 is one per
//! core); every output is byte-identical at any `N`.

use bench::{artifacts, machines, timed, Cli, Flag};
use harness::SweepBuilder;
use mpisim::OpClass;
use std::path::Path;

/// Reports a failed create or write of `path` and exits with status 1.
fn io_failure(path: &Path, e: &std::io::Error) -> ! {
    eprintln!("failed to write {}: {e}", path.display());
    std::process::exit(1);
}

fn main() {
    let cli = Cli::parse(&[Flag::Quick, Flag::Threads, Flag::Out]);
    let protocol = cli.protocol();
    let out_dir = cli.out.as_deref().map(Path::new);
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| io_failure(dir, &e));
    }
    let data = timed("full sweep", || {
        SweepBuilder::new()
            .machines(machines())
            .ops(OpClass::COLLECTIVES)
            .protocol(protocol.clone())
            .threads(cli.threads.unwrap_or(0))
            .run()
            .expect("sweep")
    });
    let Some(dir) = out_dir else {
        print!("{}", artifacts::report(&data, &protocol));
        return;
    };
    for (name, text) in artifacts::files(&data, &protocol) {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap_or_else(|e| io_failure(&path, &e));
    }
    eprintln!("wrote {}", dir.display());
}
