//! Shared command-line vocabulary for the observability drivers
//! (`observe`, `critpath`, `tracediff`, `ordercheck`): machine / op
//! name resolution and the common point-selection flags, parsed once
//! here instead of re-implemented per binary.
//!
//! Binaries keep their own argument loop (each has extra flags and its
//! own usage text) and feed every flag through [`PointCli::accept`]
//! first; only unrecognized flags fall through to the binary's match.

use crate::suite::SuitePoint;
use mpisim::{Machine, OpClass, SimMpiError};

/// Resolves a machine key (`sp2`, `t3d`, `paragon`; case-insensitive).
pub fn parse_machine(name: &str) -> Option<Machine> {
    match name.to_ascii_lowercase().as_str() {
        "sp2" => Some(Machine::sp2()),
        "t3d" => Some(Machine::t3d()),
        "paragon" => Some(Machine::paragon()),
        _ => None,
    }
}

/// Resolves a collective by key (`bcast`, `alltoall`, …) or by its
/// paper display name (case-insensitive).
pub fn parse_op(name: &str) -> Option<OpClass> {
    let lower = name.to_ascii_lowercase();
    OpClass::from_key(&lower).or_else(|| {
        OpClass::ALL
            .into_iter()
            .find(|op| op.paper_name().to_ascii_lowercase() == lower)
    })
}

/// The canonical point-selection usage fragment.
pub const POINT_USAGE: &str =
    "--machine <sp2|t3d|paragon> --op <bcast|scatter|gather|reduce|scan|alltoall|barrier> -p <nodes> -m <bytes>";

/// Outcome of offering one flag to [`PointCli::accept`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accept {
    /// The flag (and its value, if any) was consumed.
    Consumed,
    /// Not a shared flag — the binary should handle it.
    Unknown,
    /// A shared flag with a missing or malformed value: print usage.
    Invalid,
}

/// The point-selection flags every driver shares: a single
/// (machine, op, p, m) point or `--suite`, plus output directory,
/// worker count, and trace cap.
///
/// `--suite` runs fixed points, so it refuses the point flags
/// (`--machine`, `--op`, `-p`, `-m`), and a single point runs on the
/// calling thread, so it refuses `--threads`: [`PointCli::selection_ok`]
/// is false for either mix, in any order.
#[derive(Debug, Clone)]
pub struct PointCli {
    /// `--machine` (required unless `--suite`, which refuses it).
    pub machine: Option<Machine>,
    /// `--op` (required unless `--suite`, which refuses it).
    pub op: Option<OpClass>,
    /// `-p` / `--nodes` (default 64, the paper's largest partition).
    pub p: usize,
    /// `-m` / `--bytes` (default 4096, the suite's representative size).
    pub m: u32,
    /// `--out`; `None` when not given (see [`PointCli::out_dir`]).
    pub out: Option<String>,
    /// `--suite`: run the fixed 21-point grid instead of one point.
    pub suite: bool,
    /// `--threads` (default 1; `--suite` only).
    pub threads: usize,
    /// `--trace-cap`.
    pub trace_cap: Option<usize>,
    /// Whether any point flag was given, which `--suite` refuses.
    point_flag: bool,
    /// Whether `--threads` was given, which a single point refuses.
    threads_flag: bool,
}

impl Default for PointCli {
    fn default() -> Self {
        PointCli {
            machine: None,
            op: None,
            p: 64,
            m: 4096,
            out: None,
            suite: false,
            threads: 1,
            trace_cap: None,
            point_flag: false,
            threads_flag: false,
        }
    }
}

impl PointCli {
    /// Offers one flag; `value` yields the following argument when the
    /// flag takes one.
    pub fn accept(&mut self, flag: &str, mut value: impl FnMut() -> Option<String>) -> Accept {
        self.point_flag |= matches!(
            flag,
            "--machine" | "--op" | "-p" | "--nodes" | "-m" | "--bytes"
        );
        self.threads_flag |= flag == "--threads";
        let mut need = |out: &mut dyn FnMut(&str) -> bool| match value() {
            Some(v) if out(&v) => Accept::Consumed,
            _ => Accept::Invalid,
        };
        match flag {
            "--machine" => need(&mut |v| {
                self.machine = parse_machine(v);
                self.machine.is_some()
            }),
            "--op" => need(&mut |v| {
                self.op = parse_op(v);
                self.op.is_some()
            }),
            "-p" | "--nodes" => need(&mut |v| v.parse().map(|n| self.p = n).is_ok()),
            "-m" | "--bytes" => need(&mut |v| v.parse().map(|n| self.m = n).is_ok()),
            "--out" => need(&mut |v| {
                self.out = Some(v.to_string());
                true
            }),
            "--threads" => need(&mut |v| v.parse().map(|n| self.threads = n).is_ok()),
            "--trace-cap" => need(&mut |v| v.parse().map(|n| self.trace_cap = Some(n)).is_ok()),
            "--suite" => {
                self.suite = true;
                Accept::Consumed
            }
            _ => Accept::Unknown,
        }
    }

    /// True when the selection is complete and unambiguous: either
    /// `--suite` without any point flag, or both `--machine` and `--op`
    /// without `--threads`.
    pub fn selection_ok(&self) -> bool {
        if self.suite {
            !self.point_flag
        } else {
            self.machine.is_some() && self.op.is_some() && !self.threads_flag
        }
    }

    /// Checks the selected point against its machine: `-p` must be a
    /// partition size the machine has. `--suite` runs fixed points, so
    /// there is nothing to check.
    ///
    /// # Errors
    ///
    /// [`SimMpiError::InvalidSize`] when `-p` is zero or exceeds the
    /// machine's largest partition.
    pub fn check_point(&self) -> Result<(), SimMpiError> {
        match &self.machine {
            Some(machine) if !self.suite => machine.communicator(self.p).map(drop),
            _ => Ok(()),
        }
    }

    /// The selected point, once `--machine` and `--op` are both given.
    pub fn point(&self) -> Option<SuitePoint> {
        Some(SuitePoint::new(
            self.machine.clone()?,
            self.op?,
            self.p,
            self.m,
        ))
    }

    /// The output directory, defaulting to the current directory.
    pub fn out_dir(&self) -> &str {
        self.out.as_deref().unwrap_or(".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_and_op_names_resolve() {
        assert_eq!(
            parse_machine("T3D")
                .map(|m| m.name().to_string())
                .as_deref(),
            Some("Cray T3D")
        );
        assert!(parse_machine("cm5").is_none());
        assert_eq!(parse_op("alltoall"), Some(OpClass::Alltoall));
        assert_eq!(parse_op("Broadcast"), parse_op("bcast"));
        assert!(parse_op("gossip").is_none());
    }

    #[test]
    fn accept_consumes_shared_flags_and_rejects_bad_values() {
        let mut cli = PointCli::default();
        assert_eq!(
            cli.accept("--machine", || Some("sp2".into())),
            Accept::Consumed
        );
        assert_eq!(cli.accept("--op", || Some("scan".into())), Accept::Consumed);
        assert_eq!(cli.accept("-p", || Some("16".into())), Accept::Consumed);
        assert_eq!(cli.accept("-m", || Some("512".into())), Accept::Consumed);
        assert_eq!(
            cli.accept("--threads", || Some("4".into())),
            Accept::Consumed
        );
        assert!(!cli.selection_ok(), "a single point refuses --threads");
        assert_eq!((cli.p, cli.m, cli.threads), (16, 512, 4));
        assert_eq!(cli.accept("--demo-broken", || None), Accept::Unknown);
        assert_eq!(cli.accept("-p", || Some("lots".into())), Accept::Invalid);
        assert_eq!(cli.accept("--machine", || None), Accept::Invalid);
    }

    #[test]
    fn selection_requires_point_or_suite() {
        let mut cli = PointCli::default();
        assert!(!cli.selection_ok());
        assert_eq!(cli.accept("--suite", || None), Accept::Consumed);
        assert!(cli.selection_ok());
        assert_eq!(cli.out_dir(), ".");
        assert_eq!(
            cli.accept("--out", || Some("bench".into())),
            Accept::Consumed
        );
        assert_eq!(cli.out_dir(), "bench");
    }

    #[test]
    fn suite_refuses_point_flags_in_either_order() {
        let point_flags = [
            ("--machine", "t3d"),
            ("--op", "bcast"),
            ("-p", "8"),
            ("--nodes", "8"),
            ("-m", "64"),
            ("--bytes", "64"),
        ];
        for (flag, value) in point_flags {
            for suite_first in [true, false] {
                let mut cli = PointCli::default();
                if suite_first {
                    cli.accept("--suite", || None);
                }
                assert_eq!(cli.accept(flag, || Some(value.into())), Accept::Consumed);
                if !suite_first {
                    cli.accept("--suite", || None);
                }
                assert!(!cli.selection_ok(), "--suite with {flag} {value}");
            }
        }
        let mut cli = PointCli::default();
        for (flag, value) in [("--suite", ""), ("--threads", "4"), ("--trace-cap", "9")] {
            cli.accept(flag, || Some(value.into()));
        }
        assert!(cli.selection_ok(), "suite flags are not point flags");
    }

    #[test]
    fn point_size_must_fit_the_machine() {
        let mut cli = PointCli::default();
        cli.accept("--machine", || Some("t3d".into()));
        cli.accept("--op", || Some("bcast".into()));
        assert_eq!(cli.check_point(), Ok(()), "default -p 64 fits the T3D");
        cli.accept("-p", || Some("128".into()));
        assert_eq!(
            cli.check_point(),
            Err(SimMpiError::InvalidSize {
                requested: 128,
                max: 64
            })
        );
        cli.accept("--suite", || None);
        assert_eq!(cli.check_point(), Ok(()), "the suite has no point to check");
        assert_eq!(
            cli.point().map(|pt| (pt.nodes, pt.bytes)),
            Some((128, 4096))
        );
        cli.accept("--op", || Some("barrier".into()));
        assert_eq!(cli.point().map(|pt| pt.bytes), Some(0), "no payload");
    }
}
