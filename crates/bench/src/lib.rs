//! # bench — regenerators for every table and figure of the paper
//!
//! One binary per artifact (run with `cargo run -p bench --release --bin <name>`):
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `fig1` | Fig. 1 — startup latencies T0(p), six collectives |
//! | `fig2` | Fig. 2 — T(m, 32) vs message length |
//! | `fig3` | Fig. 3 — T(m, p) vs machine size for 16 B / 64 KB |
//! | `fig4` | Fig. 4 — startup/transmission breakdown at p=32, m=1 KB |
//! | `fig5` | Fig. 5 — aggregated bandwidths R∞(p) |
//! | `table3` | Table 3 — fitted closed-form timing expressions |
//! | `table12` | Tables 1 & 2 — operations and metric definitions |
//! | `headline` | §1/§5/§8 headline numbers |
//! | `calibrate` | calibration report: simulated vs published grids |
//! | `ablations` | design-choice ablations (wire model, contention, vendor algorithms, offload engines, placement, interconnect abstraction) |
//! | `hotspots` | link-load distributions per topology |
//! | `p2p` | Hockney point-to-point characterization |
//! | `trace` | message-timeline gallery |
//! | `explore` | single-configuration query tool |
//! | `stap_report` | STAP workload per-stage breakdowns |
//! | `full_report` | consolidated markdown report |
//!
//! All binaries accept `--quick` (reduced protocol) and `--csv DIR`
//! (dump the measured dataset).
//!
//! The fixed 21-point suite and its one instrumented run, which the
//! workspace's `observe`, `critpath` and `tracediff` binaries render,
//! live in [`suite`]. The simulator's own wall time is measured by the
//! `benchmark` crate (`crates/benchmark`), not here.

use harness::{Dataset, Protocol};
use mpisim::{Machine, OpClass};
use perfmodel::paper;
use std::time::Instant;

pub mod cli;
pub mod suite;

/// Common CLI options for the regenerator binaries.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Use the reduced protocol (fewer iterations/repetitions).
    pub quick: bool,
    /// Directory to write the measured dataset as CSV.
    pub csv_dir: Option<String>,
    /// Output file path (`--out`, used by report-writing binaries).
    pub out: Option<String>,
    /// Emit machine-readable JSON instead of the text rendering.
    pub json: bool,
    /// Worker threads for parallelizable stages (`--threads`; 1 =
    /// serial, 0 = auto-detect). Output is byte-identical at any value.
    pub threads: usize,
}

/// The flags [`Cli::parse`] accepts.
const CLI_OPTIONS: &str = "[--quick] [--csv DIR] [--out FILE] [--json] [--threads N]";

/// Prints `msg` and the usage line, then exits with status 2.
fn cli_usage_error(msg: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&bin)
        .file_name()
        .map_or(bin.clone(), |f| f.to_string_lossy().into_owned());
    eprintln!("{msg}");
    eprintln!("usage: {bin} {CLI_OPTIONS}");
    std::process::exit(2);
}

impl Cli {
    /// Parses `--quick`, `--csv DIR`, `--out FILE`, `--json`, and
    /// `--threads N` from `std::env::args`. An unknown flag, or a flag
    /// without its value, prints usage and exits with status 2.
    pub fn parse() -> Self {
        let mut cli = Cli {
            threads: 1,
            ..Cli::default()
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| cli_usage_error(&format!("{a} needs a value")))
            };
            match a.as_str() {
                "--quick" => cli.quick = true,
                "--csv" => cli.csv_dir = Some(value()),
                "--out" => cli.out = Some(value()),
                "--json" => cli.json = true,
                "--threads" => {
                    cli.threads = value().parse().unwrap_or_else(|_| {
                        cli_usage_error("--threads needs a non-negative integer (0 = auto)")
                    });
                }
                "--help" | "-h" => {
                    eprintln!("options: {CLI_OPTIONS}");
                    std::process::exit(0);
                }
                other => cli_usage_error(&format!("unknown option {other}")),
            }
        }
        cli
    }

    /// The measurement protocol implied by the flags.
    pub fn protocol(&self) -> Protocol {
        if self.quick {
            Protocol::quick()
        } else {
            Protocol::paper()
        }
    }

    /// Writes the dataset CSV if `--csv` was given.
    pub fn maybe_write_csv(&self, name: &str, data: &Dataset) {
        if let Some(dir) = &self.csv_dir {
            let path = format!("{dir}/{name}.csv");
            if let Err(e) = std::fs::write(&path, report::csv::dataset_csv(data)) {
                eprintln!("failed to write {path}: {e}");
            } else {
                eprintln!("wrote {path}");
            }
        }
    }
}

/// Runs `f` with start/finish lines on stderr, reporting elapsed time.
pub fn timed<T>(label: &str, f: impl FnOnce() -> T) -> T {
    eprintln!("[{label}] running…");
    let t0 = Instant::now();
    let out = f();
    eprintln!("[{label}] done in {:.1}s", t0.elapsed().as_secs_f64());
    out
}

/// Plot symbol per machine, consistent across all figures.
pub fn symbol(machine: &str) -> char {
    match machine {
        "IBM SP2" => 'o',
        "Cray T3D" => '^',
        "Intel Paragon" => '+',
        _ => 'x',
    }
}

/// The machines in the paper's presentation order.
pub fn machines() -> [Machine; 3] {
    [Machine::sp2(), Machine::paragon(), Machine::t3d()]
}

/// The six collectives of Figs. 1, 2, 4, and 5 (barrier is shown
/// separately in Fig. 3g).
pub const SIX_OPS: [OpClass; 6] = [
    OpClass::Bcast,
    OpClass::Alltoall,
    OpClass::Scatter,
    OpClass::Gather,
    OpClass::Scan,
    OpClass::Reduce,
];

/// Maps a machine display name back to its paper id.
pub fn machine_id(name: &str) -> Option<mpisim::MachineId> {
    match name {
        "IBM SP2" => Some(mpisim::MachineId::Sp2),
        "Cray T3D" => Some(mpisim::MachineId::T3d),
        "Intel Paragon" => Some(mpisim::MachineId::Paragon),
        _ => None,
    }
}

/// Relative error between simulated and published values, as
/// `sim / published` (1.0 = perfect).
pub fn ratio_to_paper(machine: &str, op: OpClass, m: u32, p: usize, sim_us: f64) -> Option<f64> {
    let id = machine_id(machine)?;
    let formula = paper::table3(id, op)?;
    let published = formula.predict_us(m, p);
    if published <= 0.0 {
        return None;
    }
    Some(sim_us / published)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_distinct() {
        let syms = [
            symbol("IBM SP2"),
            symbol("Cray T3D"),
            symbol("Intel Paragon"),
        ];
        assert_eq!(
            syms.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
        assert_eq!(symbol("Unknown"), 'x');
    }

    #[test]
    fn machine_ids_round_trip() {
        for m in machines() {
            assert_eq!(machine_id(m.name()), m.id());
        }
        assert!(machine_id("other").is_none());
    }

    #[test]
    fn ratio_computation() {
        let published = perfmodel::paper::table3(mpisim::MachineId::Sp2, OpClass::Alltoall)
            .unwrap()
            .predict_us(65_536, 64);
        let r = ratio_to_paper("IBM SP2", OpClass::Alltoall, 65_536, 64, published).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        assert!(ratio_to_paper("nope", OpClass::Bcast, 4, 2, 1.0).is_none());
    }
}
