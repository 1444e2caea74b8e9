//! Verdicts: findings, statistics, and the top-level entry points.

use crate::ambiguity;
use crate::conservation::{self, VolumeBound};
use crate::critpath::{self, CritPath};
use crate::graph::HbGraph;
use collectives::{Algorithm, Rank, Schedule, ScheduleError};

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// A structural error — the same vocabulary the dynamic executor
    /// reports at run time ([`ScheduleError`]), including the static-only
    /// [`ScheduleError::AmbiguousMatch`].
    Invalid(ScheduleError),
    /// Total sent bytes disagree with the algorithm family's prediction
    /// (always ≥ the paper's `f(m, p)` floor).
    VolumeMismatch {
        /// What the family predicts.
        expected: VolumeBound,
        /// What the schedule actually sends.
        actual: u64,
    },
    /// Rank `at` never receives (transitively) rank `missing`'s
    /// contribution, though the operation requires it.
    CoverageGap {
        /// The under-informed rank.
        at: Rank,
        /// The contributor whose data never arrives.
        missing: Rank,
    },
    /// Message depth exceeds the algorithm family's bound — the
    /// schedule is more serialized than its latency class.
    DepthExceeded {
        /// Observed message depth.
        depth: usize,
        /// The family's maximum.
        bound: usize,
    },
}

impl Finding {
    /// Stable short code for metrics, JSON output, and CI grepping.
    pub fn code(&self) -> &'static str {
        match self {
            Finding::Invalid(ScheduleError::RankOutOfRange { .. }) => "rank-range",
            Finding::Invalid(ScheduleError::Stuck { .. }) => "stuck",
            Finding::Invalid(ScheduleError::DeadlockCycle { .. }) => "deadlock-cycle",
            Finding::Invalid(ScheduleError::AmbiguousMatch { .. }) => "ambiguous-match",
            Finding::Invalid(ScheduleError::SizeMismatch { .. }) => "size-mismatch",
            Finding::Invalid(ScheduleError::UnconsumedMessages { .. }) => "unconsumed",
            Finding::VolumeMismatch { .. } => "volume-mismatch",
            Finding::CoverageGap { .. } => "coverage-gap",
            Finding::DepthExceeded { .. } => "depth-bound",
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Finding::Invalid(e) => write!(f, "{e}"),
            Finding::VolumeMismatch { expected, actual } => {
                write!(
                    f,
                    "schedule sends {actual} bytes, family predicts {expected}"
                )
            }
            Finding::CoverageGap { at, missing } => {
                write!(f, "{missing}'s contribution never reaches {at}")
            }
            Finding::DepthExceeded { depth, bound } => {
                write!(f, "message depth {depth} exceeds the family bound {bound}")
            }
        }
    }
}

/// Structural statistics gathered while verifying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Participating ranks.
    pub ranks: usize,
    /// Total `Send` steps.
    pub messages: usize,
    /// Total sent payload bytes.
    pub total_bytes: u64,
    /// Critical-path figures.
    pub crit: CritPath,
}

/// The analyzer's verdict on one schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Structural statistics (valid even when findings exist).
    pub stats: Stats,
    /// All findings, structural first.
    pub findings: Vec<Finding>,
}

impl Report {
    /// No findings of any class.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// What a schedule is *supposed* to be, enabling the semantic lints on
/// top of the structural ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectations {
    /// The algorithm family that generated the schedule.
    pub algorithm: Algorithm,
    /// Root rank of the rooted operations (ignored otherwise).
    pub root: Rank,
    /// Per-pair payload `m` in bytes.
    pub bytes: u32,
}

/// Structural verification only: delegates the interleaving-dependent
/// checks (rank ranges, FIFO matching, sizes, deadlock — now with exact
/// wait-for cycles) to [`Schedule::check`], then layers the
/// interleaving-*independent* match-ambiguity analysis on the
/// happens-before graph, which is built on `check`'s own
/// send-to-receive match ([`Schedule::resolve`]). Sharing `check` with
/// the dynamic executor is what keeps the static and runtime passes
/// from drifting.
///
/// The schedule is resolved and abstractly run once: the graph and the
/// message depth come from `check`'s own result.
pub fn verify(s: &Schedule) -> Report {
    let (findings, depth) = match HbGraph::build(s) {
        Ok(g) => (
            ambiguity::find_ambiguities(&g)
                .into_iter()
                .map(Finding::Invalid)
                .collect(),
            g.depth(),
        ),
        // A schedule that fails `check` has depth 0.
        Err(e) => (vec![Finding::Invalid(e)], 0),
    };
    Report {
        stats: Stats {
            ranks: s.ranks(),
            messages: s.total_messages(),
            total_bytes: s.total_bytes(),
            crit: critpath::with_depth(s, depth),
        },
        findings,
    }
}

/// Full verification: [`verify`] plus the volume, coverage, and depth
/// lints that need to know which algorithm family built the schedule.
pub fn verify_expected(s: &Schedule, exp: &Expectations) -> Report {
    let mut report = verify(s);
    let bound = conservation::expected_volume(
        exp.algorithm,
        s.class(),
        s.ranks() as u64,
        u64::from(exp.bytes),
    );
    if !bound.admits(report.stats.total_bytes) {
        report.findings.push(Finding::VolumeMismatch {
            expected: bound,
            actual: report.stats.total_bytes,
        });
    }
    report.findings.extend(
        conservation::coverage_gaps(s, exp.root)
            .into_iter()
            .map(|(at, missing)| Finding::CoverageGap { at, missing }),
    );
    if let Some(bound) = critpath::depth_bound(exp.algorithm, s.class(), s.ranks()) {
        if report.stats.crit.depth > bound {
            report.findings.push(Finding::DepthExceeded {
                depth: report.stats.crit.depth,
                bound,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::{build, Step};
    use netmodel::OpClass;

    fn exp(algorithm: Algorithm, bytes: u32) -> Expectations {
        Expectations {
            algorithm,
            root: Rank(0),
            bytes,
        }
    }

    #[test]
    fn clean_binomial_bcast_is_clean() {
        let s = build(Algorithm::Binomial, OpClass::Bcast, 16, Rank(0), 1_024)
            .expect("binomial bcast builds");
        let r = verify_expected(&s, &exp(Algorithm::Binomial, 1_024));
        assert!(r.is_clean(), "findings: {:?}", r.findings);
        assert_eq!(r.stats.messages, 15);
        assert_eq!(r.stats.total_bytes, 15 * 1_024);
        assert_eq!(r.stats.crit.depth, 4);
    }

    #[test]
    fn deadlock_reported_with_cycle_code() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(
            Rank(0),
            Step::Recv {
                from: Rank(1),
                bytes: 8,
            },
        );
        s.push(
            Rank(1),
            Step::Recv {
                from: Rank(0),
                bytes: 8,
            },
        );
        let r = verify(&s);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].code(), "deadlock-cycle");
    }

    #[test]
    fn out_of_range_peer_is_a_finding_not_a_panic() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(
            Rank(0),
            Step::Recv {
                from: Rank(5),
                bytes: 4,
            },
        );
        let r = verify(&s);
        assert_eq!(
            r.findings,
            vec![Finding::Invalid(ScheduleError::RankOutOfRange {
                rank: Rank(5),
                in_program: Rank(0),
            })]
        );
        assert_eq!(r.stats.crit.depth, 0);
    }

    #[test]
    fn seeded_volume_bug_reported() {
        // Halving one message's payload conserves FIFO matching but
        // breaks the family's exact volume.
        let mut s = Schedule::new(OpClass::Bcast, 4);
        s.push(
            Rank(0),
            Step::Send {
                to: Rank(1),
                bytes: 64,
            },
        );
        s.push(
            Rank(0),
            Step::Send {
                to: Rank(2),
                bytes: 64,
            },
        );
        s.push(
            Rank(0),
            Step::Send {
                to: Rank(3),
                bytes: 32,
            },
        );
        for r in 1..4u32 {
            let bytes = if r == 3 { 32 } else { 64 };
            s.push(
                Rank(r as usize),
                Step::Recv {
                    from: Rank(0),
                    bytes,
                },
            );
        }
        let r = verify_expected(&s, &exp(Algorithm::Linear, 64));
        assert!(
            r.findings.iter().any(|f| f.code() == "volume-mismatch"),
            "findings: {:?}",
            r.findings
        );
    }

    #[test]
    fn seeded_depth_bug_reported() {
        // A daisy-chain posing as a binomial bcast: right volume and
        // coverage, wrong latency class.
        let p = 8usize;
        let mut s = Schedule::new(OpClass::Bcast, p);
        for r in 0..p - 1 {
            s.push(
                Rank(r),
                Step::Send {
                    to: Rank(r + 1),
                    bytes: 64,
                },
            );
            s.push(
                Rank(r + 1),
                Step::Recv {
                    from: Rank(r),
                    bytes: 64,
                },
            );
        }
        let r = verify_expected(&s, &exp(Algorithm::Binomial, 64));
        assert_eq!(
            r.findings.iter().map(Finding::code).collect::<Vec<_>>(),
            vec!["depth-bound"],
            "only the depth lint should fire: {:?}",
            r.findings
        );
    }

    #[test]
    fn seeded_coverage_bug_reported() {
        // Reduce where rank 3's contribution is dropped: a duplicate
        // message from rank 1 keeps the volume exactly m(p−1), so only
        // the influence analysis can catch the bug.
        let mut s = Schedule::new(OpClass::Reduce, 4);
        s.push(
            Rank(1),
            Step::Send {
                to: Rank(0),
                bytes: 64,
            },
        );
        s.push(
            Rank(2),
            Step::Send {
                to: Rank(0),
                bytes: 64,
            },
        );
        s.push(
            Rank(1),
            Step::Send {
                to: Rank(0),
                bytes: 64,
            },
        );
        s.push(
            Rank(0),
            Step::Recv {
                from: Rank(1),
                bytes: 64,
            },
        );
        s.push(
            Rank(0),
            Step::Recv {
                from: Rank(2),
                bytes: 64,
            },
        );
        s.push(
            Rank(0),
            Step::Recv {
                from: Rank(1),
                bytes: 64,
            },
        );
        let r = verify_expected(&s, &exp(Algorithm::Binomial, 64));
        assert!(
            r.findings.iter().any(|f| matches!(
                f,
                Finding::CoverageGap {
                    at: Rank(0),
                    missing: Rank(3)
                }
            )),
            "findings: {:?}",
            r.findings
        );
    }

    #[test]
    fn seeded_ambiguity_reported_via_verify() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(
            Rank(0),
            Step::Send {
                to: Rank(1),
                bytes: 8,
            },
        );
        s.push(
            Rank(0),
            Step::Send {
                to: Rank(1),
                bytes: 16,
            },
        );
        s.push(
            Rank(1),
            Step::Recv {
                from: Rank(0),
                bytes: 8,
            },
        );
        s.push(
            Rank(1),
            Step::Recv {
                from: Rank(0),
                bytes: 16,
            },
        );
        let r = verify(&s);
        assert_eq!(
            r.findings.iter().map(Finding::code).collect::<Vec<_>>(),
            vec!["ambiguous-match"]
        );
    }

    #[test]
    fn finding_display_is_informative() {
        let f = Finding::VolumeMismatch {
            expected: VolumeBound::Exact(960),
            actual: 928,
        };
        let msg = f.to_string();
        assert!(msg.contains("928") && msg.contains("960"), "got: {msg}");
        let f = Finding::DepthExceeded { depth: 7, bound: 3 };
        assert!(f.to_string().contains("7") && f.to_string().contains("3"));
        let f = Finding::CoverageGap {
            at: Rank(0),
            missing: Rank(3),
        };
        assert!(f.to_string().contains("r3"));
    }
}
