//! Property tests for the order analysis (`ordercheck`):
//!
//! * statically-independent same-instant pairs commute — inverting one
//!   never survives canonicalization, so the census has zero
//!   unexplained pairs on any point,
//! * an invert-all run that breaks record certification is always
//!   caught by the demo analysis with a concrete minimal divergent
//!   pair,
//! * the suite census is byte-identical between a serial and a
//!   4-worker run (determinism of the work-distributing executor).

use desim::check::{forall, Gen};
use mpisim::{Machine, OpClass};
use ordercheck::{analyze_point, demo_broken, suite_census, ExploreOptions, PointSpec};

fn random_point(g: &mut Gen) -> PointSpec {
    let machine = Machine::all()[g.usize(0, 2)].clone();
    let op = *g.pick(&OpClass::COLLECTIVES);
    let p = 1 << g.usize(1, 4); // 2..16 ranks — exploration reruns the point
    let m = if op == OpClass::Barrier {
        0
    } else {
        1 << g.usize(2, 12) // 4 B .. 4 KB
    };
    PointSpec { machine, op, p, m }
}

fn cheap_opts() -> ExploreOptions {
    ExploreOptions {
        per_class: 1,
        max_explore: 4,
        ..ExploreOptions::default()
    }
}

#[test]
fn statically_independent_pairs_always_commute() {
    // The admission claim: a pair the static relation calls independent
    // must be canonically invisible under inversion. Any sensitive pair
    // the explorer finds has to be one the relation already predicted.
    forall("order_independent_commute", 10, |g| {
        let spec = random_point(g);
        let census = analyze_point(&spec, &cheap_opts());
        let label = format!(
            "{} {} p={} m={}",
            census.machine, census.op, census.p, census.m
        );
        assert_eq!(
            census.unexplained, 0,
            "{label}: {:?}",
            census.sensitive_examples
        );
        // Accounting closes: every tie pair is pruned by provenance or a
        // candidate, every selected candidate is explored or missed, and
        // every explored one is commuting or sensitive.
        assert_eq!(
            census.tie_pairs,
            census.pruned_causal + census.candidates,
            "{label}"
        );
        assert_eq!(
            census.explored,
            census.commuting + census.sensitive,
            "{label}"
        );
        assert!(
            census.independent + census.dependent == census.candidates,
            "{label}"
        );
    });
}

#[test]
fn invert_all_divergence_is_always_caught_with_a_minimal_pair() {
    // Whenever inverting every tie perturbs the raw record at all, the
    // demo analysis must flag it (caught) and name a concrete minimal
    // divergent pair; and a canonical (semantic) divergence is
    // impossible without a raw one.
    forall("order_invert_all_flagged", 10, |g| {
        let spec = random_point(g);
        let report = demo_broken(&spec, &cheap_opts());
        let label = format!(
            "{} {} p={} m={}",
            spec.machine.name(),
            spec.op.key(),
            spec.p,
            spec.m
        );
        assert_eq!(
            report.caught,
            !report.raw.verdict.identical(),
            "{label}: caught iff the raw records diverge"
        );
        if report.semantic {
            assert!(report.caught, "{label}: semantic divergence implies raw");
        }
        if report.caught {
            let m = report.minimal.as_ref().expect(&label);
            assert_ne!(m.expected, m.got, "{label}: pair names a real difference");
            assert!(report.render().contains("CAUGHT"), "{label}");
        }
    });
}

#[test]
fn suite_census_is_identical_serial_vs_parallel() {
    forall("order_census_determinism", 4, |g| {
        let points: Vec<PointSpec> = (0..3).map(|_| random_point(g)).collect();
        let opts = ExploreOptions {
            per_class: 1,
            max_explore: 3,
            ..ExploreOptions::default()
        };
        let serial = suite_census(&points, 1, &opts);
        let parallel = suite_census(&points, 4, &opts);
        assert_eq!(
            serial.to_json_string(),
            parallel.to_json_string(),
            "census must not depend on worker count"
        );
    });
}
