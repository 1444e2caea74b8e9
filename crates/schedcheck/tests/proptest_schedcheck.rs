//! Property tests: the static analyzer's verdict agrees with the
//! executor.
//!
//! Two directions, over random vendor schedules and random mutations of
//! them (in-repo `desim::check` generators — no external frameworks):
//!
//! - **Soundness of "clean"**: a schedule with no structural finding
//!   (beyond the static-only match-ambiguity lint, which cannot stall
//!   this FIFO executor) always runs to completion with validation
//!   skipped.
//! - **Completeness for stalls**: whenever the executor reports
//!   [`SimMpiError::RankStalled`], the analyzer reported a structural
//!   finding for the same schedule.
//!
//! Plus regression fixtures: one seeded deadlock and one seeded size
//! mismatch per collective, each asserting the structured diagnostic.

#![allow(clippy::unwrap_used)]

use collectives::{build, generic_algorithm, vendor_schedule, Rank, Schedule, ScheduleError, Step};
use desim::check::{forall, Gen};
use mpisim::{Machine, RunOptions, SimMpiError};
use netmodel::{MachineId, OpClass};
use schedcheck::{verify, verify_expected, Expectations, Finding};

/// Runs `s` on the SP2 model with validation skipped, so stalls surface
/// as typed [`SimMpiError::RankStalled`] instead of being pre-empted.
fn run_unvalidated(s: &Schedule) -> Result<(), SimMpiError> {
    let options = RunOptions {
        skip_validation: true,
        ..RunOptions::default()
    };
    Machine::sp2()
        .communicator(s.ranks())?
        .run_with(&[s], options)
        .map(|_| ())
}

/// Structurally clean for the executor: no findings except the
/// static-only ambiguity lint (a swap hazard, not a stall).
fn stall_free_statically(s: &Schedule) -> bool {
    verify(s)
        .findings
        .iter()
        .all(|f| f.code() == "ambiguous-match")
}

/// Rebuilds `s` with `edit` applied to each `(rank, step index, step)`;
/// returning `None` drops the step.
fn rebuild(s: &Schedule, mut edit: impl FnMut(Rank, usize, Step) -> Option<Step>) -> Schedule {
    let mut out = Schedule::new(s.class(), s.ranks());
    for (r, prog) in s.iter() {
        for (i, &step) in prog.iter().enumerate() {
            if let Some(st) = edit(r, i, step) {
                out.push(r, st);
            }
        }
    }
    out
}

fn total_steps(s: &Schedule) -> usize {
    s.iter().map(|(_, prog)| prog.len()).sum()
}

/// Applies one random semantics-preserving-or-breaking mutation. All
/// produced ranks stay in range, so the executor cannot index out of
/// bounds even on broken schedules.
fn mutate(g: &mut Gen, s: &Schedule) -> Schedule {
    let n = total_steps(s);
    if n == 0 {
        return s.clone();
    }
    let target = g.usize(0, n - 1);
    let kind = g.usize(0, 2);
    let p = s.ranks();
    let mut flat = 0usize;
    rebuild(s, |_, _, step| {
        let idx = flat;
        flat += 1;
        if idx != target {
            return Some(step);
        }
        match (kind, step) {
            // Drop the step entirely.
            (0, _) => None,
            // Perturb a payload size.
            (1, Step::Recv { from, bytes }) => Some(Step::Recv {
                from,
                bytes: bytes + 7,
            }),
            (1, Step::Send { to, bytes }) => Some(Step::Send {
                to,
                bytes: bytes + 7,
            }),
            // Redirect a receive to a different (in-range) source.
            (2, Step::Recv { from, bytes }) => Some(Step::Recv {
                from: Rank((from.0 + 1) % p),
                bytes,
            }),
            _ => Some(step),
        }
    })
}

#[test]
fn vendor_schedules_are_clean_and_run() {
    forall("vendor points verify clean and execute", 32, |g| {
        let machine = *g.pick(&MachineId::ALL);
        let class = *g.pick(&OpClass::COLLECTIVES);
        let p = g.usize(2, 16);
        let bytes = g.u32(1, 2_048);
        let s = vendor_schedule(machine, class, p, Rank(0), bytes).unwrap();
        let alg = collectives::vendor_algorithm(machine, class);
        let report = verify_expected(
            &s,
            &Expectations {
                algorithm: alg,
                root: Rank(0),
                bytes,
            },
        );
        assert!(
            report.is_clean(),
            "{machine:?}/{class}/p={p}/m={bytes}: {:?}",
            report.findings
        );
        run_unvalidated(&s).unwrap();
    });
}

#[test]
fn static_verdict_agrees_with_executor_on_mutants() {
    forall("mutant verdict agreement", 64, |g| {
        let class = *g.pick(&OpClass::COLLECTIVES);
        let p = g.usize(2, 12);
        let bytes = g.u32(1, 1_024);
        // Generic table: all-software schedules (no HwBarrier), so the
        // executor's stall behaviour is fully message-driven.
        let base = build(generic_algorithm(class), class, p, Rank(0), bytes).unwrap();
        let s = mutate(g, &base);
        let clean = stall_free_statically(&s);
        let ran = run_unvalidated(&s);
        if clean {
            assert!(
                ran.is_ok(),
                "statically stall-free schedule stalled: {ran:?}\nfindings: {:?}",
                verify(&s).findings
            );
        }
        if let Err(e) = &ran {
            assert!(
                matches!(e, SimMpiError::RankStalled { .. }),
                "unexpected executor error: {e:?}"
            );
            assert!(
                !clean,
                "executor stalled but the analyzer reported no structural finding"
            );
        }
    });
}

/// Seeds a wait-for cycle into any schedule with at least one message:
/// the first sender `a` and its receiver `b` each gain a *leading*
/// `Recv` from the other, with no matching sends. Both block at step 0
/// before posting anything, so the stall is a pure two-rank cycle.
fn seed_deadlock(s: &Schedule) -> Schedule {
    let (a, b) = s
        .iter()
        .find_map(|(r, prog)| {
            prog.iter().find_map(|st| match st {
                Step::Send { to, .. } => Some((r, *to)),
                _ => None,
            })
        })
        .expect("schedule has at least one message");
    let mut out = Schedule::new(s.class(), s.ranks());
    out.push(a, Step::Recv { from: b, bytes: 99 });
    out.push(b, Step::Recv { from: a, bytes: 99 });
    for (r, prog) in s.iter() {
        for &step in prog {
            out.push(r, step);
        }
    }
    out
}

/// Bumps the first `Recv`'s expected size, leaving the send untouched.
fn seed_size_mismatch(s: &Schedule) -> Schedule {
    let mut done = false;
    rebuild(s, |_, _, step| match step {
        Step::Recv { from, bytes } if !done => {
            done = true;
            Some(Step::Recv {
                from,
                bytes: bytes + 1,
            })
        }
        other => Some(other),
    })
}

#[test]
fn regression_seeded_deadlock_per_collective() {
    for class in OpClass::COLLECTIVES {
        let base = build(generic_algorithm(class), class, 8, Rank(0), 64).unwrap();
        let bad = seed_deadlock(&base);
        let report = verify(&bad);
        let cycle = report
            .findings
            .iter()
            .find_map(|f| match f {
                Finding::Invalid(ScheduleError::DeadlockCycle { cycle }) => Some(cycle),
                _ => None,
            })
            .unwrap_or_else(|| {
                panic!(
                    "{class}: expected a deadlock cycle, got {:?}",
                    report.findings
                )
            });
        assert!(
            cycle.len() >= 2,
            "{class}: cycle needs both ranks, got {cycle:?}"
        );
        assert!(
            cycle.iter().all(|(_, st)| matches!(st, Step::Recv { .. })),
            "{class}: every blocked step is a Recv"
        );
        // The executor agrees: it stalls.
        assert!(
            matches!(run_unvalidated(&bad), Err(SimMpiError::RankStalled { .. })),
            "{class}: executor must stall on the seeded deadlock"
        );
    }
}

#[test]
fn regression_seeded_size_mismatch_per_collective() {
    for class in OpClass::COLLECTIVES {
        let base = build(generic_algorithm(class), class, 8, Rank(0), 64).unwrap();
        let bad = seed_size_mismatch(&base);
        let report = verify(&bad);
        let found = report.findings.iter().any(|f| {
            matches!(
                f,
                Finding::Invalid(ScheduleError::SizeMismatch { sent, expected, .. })
                    if expected == &(sent + 1)
            )
        });
        assert!(
            found,
            "{class}: expected a size mismatch with expected = sent + 1, got {:?}",
            report.findings
        );
    }
}
