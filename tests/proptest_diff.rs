//! Property tests for the differential comparator (`obs::diff`):
//!
//! * a run self-diffed is always certified byte-identical,
//! * a single injected event perturbation — time, rank, or payload —
//!   localizes to exactly that event as the first divergence, with a
//!   causal context window,
//! * per-category blame deltas sum to the elapsed-time delta
//!   (conservation, mirroring `proptest_critpath`).

use bench::suite::{record_point, SuitePoint};
use desim::check::{forall, Gen};
use mpisim::TieBreakPolicy;
use mpisim::{Machine, OpClass};
use obs::diff::diff;
use obs::Verdict;

fn random_point(g: &mut Gen) -> SuitePoint {
    let machine = Machine::all()[g.usize(0, 2)].clone();
    let op = *g.pick(&OpClass::COLLECTIVES);
    let p = 1 << g.usize(1, 5); // 2..32 ranks
    let bytes = if op == OpClass::Barrier {
        0
    } else {
        1 << g.usize(2, 14) // 4 B .. 16 KB
    };
    SuitePoint::new(machine, op, p, bytes)
}

#[test]
fn self_diff_is_always_certified_byte_identical() {
    forall("diff_self_identity", 16, |g| {
        let pt = random_point(g);
        let rec = record_point(&pt, TieBreakPolicy::InsertionOrder, None).record;
        let report = diff(&rec, &rec.clone());
        let label = format!("{} p={} m={}", pt.label(), pt.nodes, pt.bytes);
        assert_eq!(report.verdict, Verdict::ByteIdentical, "{label}");
        assert!(report.certified, "{label}: no drops, must certify");
        assert!(report.first.is_none(), "{label}: nothing to explain");
        assert_eq!(report.elapsed_delta_ns(), 0, "{label}");
    });
}

#[test]
fn single_event_perturbation_localizes_to_that_event() {
    forall("diff_perturbation_localizes", 16, |g| {
        let pt = random_point(g);
        let a = record_point(&pt, TieBreakPolicy::InsertionOrder, None).record;
        assert!(!a.events.is_empty(), "instrumented run records events");
        let mut b = a.clone();
        let idx = g.usize(0, a.events.len() - 1);
        // One of the three perturbation axes the issue names: firing
        // time, rank operand, or payload kind.
        match g.usize(0, 2) {
            0 => b.events[idx].at_ns += 1 + g.u64(0, 1_000),
            1 => b.events[idx].a += 1 + g.u64(0, 64),
            _ => b.events[idx].kind = "timer".into(),
        }
        let report = diff(&a, &b);
        let label = format!(
            "{} p={} m={} perturbed at {idx}",
            pt.label(),
            pt.nodes,
            pt.bytes
        );
        assert_eq!(report.verdict, Verdict::Divergent, "{label}");
        let first = report.first.as_ref().expect("divergence located");
        assert_eq!(first.component, "events", "{label}");
        assert_eq!(first.index, idx, "{label}: exact localization");
        assert_ne!(first.expected, first.got, "{label}");
        if idx > 0 {
            assert!(
                !first.context.is_empty(),
                "{label}: non-first event has ancestry"
            );
        }
    });
}

#[test]
fn blame_deltas_sum_to_the_elapsed_delta() {
    // Both sides carry conserving critical-path decompositions
    // (proptest_critpath), so the differential tables conserve too:
    // per-category deltas tile the elapsed-time delta exactly.
    forall("diff_blame_conservation", 12, |g| {
        let pt = random_point(g);
        let a = record_point(&pt, TieBreakPolicy::InsertionOrder, None).record;
        // B is a genuinely different execution of the same point: the
        // tie-break-inverted variant, or a doubled message size.
        let b = if pt.op == OpClass::Barrier || g.usize(0, 1) == 0 {
            record_point(&pt, TieBreakPolicy::InvertAll, None).record
        } else {
            let doubled = SuitePoint {
                bytes: pt.bytes * 2,
                ..pt.clone()
            };
            record_point(&doubled, TieBreakPolicy::InsertionOrder, None).record
        };
        let report = diff(&a, &b);
        let label = format!("{} p={} m={}", pt.label(), pt.nodes, pt.bytes);
        assert_eq!(
            report.blame_delta_sum_ns(),
            report.elapsed_delta_ns(),
            "{label}: blame deltas tile the elapsed delta"
        );
    });
}
