//! # bench — the paper regeneration and its companion tools
//!
//! `cargo run -p bench --release --bin full_report -- --out results`
//! sweeps the paper's full `T(m, p)` grid once and writes every paper
//! artifact from that one dataset through the pure renderers of
//! [`artifacts`]: Table 3, Figs. 1–5, the §1/§5/§8 headline numbers, the
//! calibration grid, `dataset.csv`, `report.md` and Fig. 1's gnuplot
//! panels.
//!
//! | Binary | Flags | Shows |
//! |---|---|---|
//! | `full_report` | `--quick`, `--threads N` (default: one per core), `--out DIR` | every paper artifact (without `--out`, `report.md` on stdout) |
//! | `table12` | | Tables 1 & 2 — operations and metric definitions |
//! | `ablations` | `--quick` | design-choice ablations (wire model, contention, vendor algorithms, offload engines, placement, interconnect abstraction) |
//! | `hotspots` | `--threads N`, `--json` | link-load distributions per topology |
//! | `p2p` | | Hockney point-to-point characterization |
//! | `stap_report` | | STAP workload per-stage breakdowns |
//! | `explore` | the point flags, `--timeline` | single-configuration query tool and message timeline |
//! | `schedlint` | its own | static verification of every vendor schedule |
//!
//! A binary built on [`Cli`] refuses a flag it does not read, with
//! usage and exit status 2.
//!
//! The fixed 21-point suite and its one instrumented run, which the
//! workspace's `observe`, `critpath` and `tracediff` binaries render,
//! live in [`suite`]. The simulator's own wall time is measured by the
//! `benchmark` crate (`crates/benchmark`), not here.

use harness::Protocol;
use mpisim::{Machine, OpClass};
use perfmodel::paper;
use std::time::Instant;

pub mod artifacts;
pub mod cli;
pub mod suite;

/// A flag of the [`Cli`] vocabulary. Each binary names the flags it
/// reads; [`Cli::parse`] refuses the others.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`: the reduced protocol.
    Quick,
    /// `--out DIR`: the output directory.
    Out,
    /// `--json`: machine-readable output.
    Json,
    /// `--threads N`: worker threads.
    Threads,
}

impl Flag {
    /// The flag as typed, and its fragment of the usage line.
    fn spelling(self) -> (&'static str, &'static str) {
        match self {
            Flag::Quick => ("--quick", "[--quick]"),
            Flag::Out => ("--out", "[--out DIR]"),
            Flag::Json => ("--json", "[--json]"),
            Flag::Threads => ("--threads", "[--threads N]"),
        }
    }
}

/// Common CLI options of the bench binaries.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    /// Use the reduced protocol (fewer iterations/repetitions).
    pub quick: bool,
    /// Output directory (`--out`).
    pub out: Option<String>,
    /// Emit machine-readable JSON instead of the text rendering.
    pub json: bool,
    /// Worker threads for parallelizable stages (`--threads N`; 1 =
    /// serial, 0 = one per core), `None` without the flag, where each
    /// binary picks its own default. Output is byte-identical at any
    /// value.
    pub threads: Option<usize>,
}

/// The usage line for the `accepted` flags.
fn usage_line(accepted: &[Flag]) -> String {
    let bin = std::env::args().next().unwrap_or_default();
    let bin = std::path::Path::new(&bin)
        .file_name()
        .map_or(bin.clone(), |f| f.to_string_lossy().into_owned());
    let mut line = format!("usage: {bin}");
    for flag in accepted {
        line.push(' ');
        line.push_str(flag.spelling().1);
    }
    line
}

/// Prints `msg` and the usage line, then exits with status 2.
fn usage_error(accepted: &[Flag], msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{}", usage_line(accepted));
    std::process::exit(2);
}

impl Cli {
    /// Parses the `accepted` flags from `std::env::args`. Any other
    /// flag, or a flag without its value, prints usage listing only the
    /// accepted flags and exits with status 2.
    pub fn parse(accepted: &[Flag]) -> Self {
        let mut cli = Cli::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            if a == "--help" || a == "-h" {
                eprintln!("{}", usage_line(accepted));
                std::process::exit(0);
            }
            let flag = accepted
                .iter()
                .copied()
                .find(|f| f.spelling().0 == a)
                .unwrap_or_else(|| usage_error(accepted, &format!("unknown option {a}")));
            let mut value = || {
                args.next()
                    .unwrap_or_else(|| usage_error(accepted, &format!("{a} needs a value")))
            };
            match flag {
                Flag::Quick => cli.quick = true,
                Flag::Out => cli.out = Some(value()),
                Flag::Json => cli.json = true,
                Flag::Threads => {
                    cli.threads = Some(value().parse().unwrap_or_else(|_| {
                        usage_error(
                            accepted,
                            "--threads needs a non-negative integer (0 = one per core)",
                        )
                    }));
                }
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
/// separately in Fig. 3g); with the barrier they are
/// [`OpClass::COLLECTIVES`].
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
