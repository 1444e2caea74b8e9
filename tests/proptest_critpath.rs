//! Property tests for the critical-path profiler's conservation
//! invariant: the blame spans on the reconstructed path tile the
//! end-to-end elapsed interval *exactly* — per-category totals sum to
//! elapsed nanoseconds, and the path segments are contiguous from the
//! completion instant back to the earliest start — across every
//! collective, machine, size, skew, and trace truncation.

use desim::check::{forall, Gen};
use mpisim::comm::RunOptions;
use mpisim::critpath::{analyze, CritPath};
use mpisim::{Machine, OpClass, Rank};
use obs::critpath::Blame;

/// Asserts the conservation invariant and segment-tiling structure.
fn assert_conserved(cp: &CritPath, label: &str) {
    let d = &cp.decomposition;
    assert_eq!(
        d.total_ns(),
        d.elapsed_ns(),
        "{label}: blame totals must sum to elapsed time"
    );
    let seg_sum: u64 = d.segments.iter().map(|s| s.end_ns - s.start_ns).sum();
    assert_eq!(
        seg_sum,
        d.elapsed_ns(),
        "{label}: segments cover the interval"
    );
    if d.elapsed_ns() > 0 {
        let first = d.segments.first().expect("non-empty path");
        let last = d.segments.last().expect("non-empty path");
        assert_eq!(first.end_ns, d.end_ns, "{label}: path starts at completion");
        assert_eq!(last.start_ns, d.start_ns, "{label}: path reaches the start");
        // Newest-first and contiguous: each tile abuts the next-older one.
        for (i, w) in d.segments.windows(2).enumerate() {
            assert_eq!(
                w[0].start_ns,
                w[1].end_ns,
                "{label}: hole or overlap between segments {i} and {}",
                i + 1
            );
        }
    }
    for s in &d.segments {
        assert!(s.end_ns > s.start_ns, "{label}: empty tile");
    }
    assert!(cp.census.uncontended <= cp.census.transfers, "{label}");
}

/// The deterministic cross product the issue pins down: all seven
/// collectives on all three machines at a representative size.
#[test]
fn conservation_all_collectives_all_machines() {
    for machine in Machine::all() {
        for op in OpClass::COLLECTIVES {
            let bytes = if op == OpClass::Barrier { 0 } else { 2048 };
            let comm = machine.communicator(16).expect("communicator");
            let s = comm.schedule(op, Rank(0), bytes).expect("schedule");
            let (out, obs) = comm
                .run_observed(&[&s], RunOptions::default())
                .expect("observed run");
            let cp = analyze(&out, &obs);
            let label = format!("{} {}", machine.name(), op.key());
            assert_conserved(&cp, &label);
            assert_eq!(
                cp.decomposition.end_ns,
                out.completed().as_nanos(),
                "{label}: walk ends at the completion instant"
            );
        }
    }
}

fn random_point(g: &mut Gen) -> (Machine, OpClass, usize, u32) {
    let machine = Machine::all()[g.usize(0, 2)].clone();
    let op = *g.pick(&OpClass::COLLECTIVES);
    let p = 1 << g.usize(1, 5); // 2..32 ranks
    let bytes = if op == OpClass::Barrier {
        0
    } else {
        1 << g.usize(2, 14) // 4 B .. 16 KB
    };
    (machine, op, p, bytes)
}

#[test]
fn conservation_holds_at_random_points() {
    forall("critpath_conservation", 24, |g| {
        let (machine, op, p, bytes) = random_point(g);
        let comm = machine.communicator(p).expect("communicator");
        let s = comm.schedule(op, Rank(0), bytes).expect("schedule");
        let (out, obs) = comm
            .run_observed(&[&s], RunOptions::default())
            .expect("observed run");
        let cp = analyze(&out, &obs);
        assert_conserved(
            &cp,
            &format!("{} {} p={p} m={bytes}", machine.name(), op.key()),
        );
    });
}

#[test]
fn conservation_survives_start_skew() {
    forall("critpath_conservation_skewed", 12, |g| {
        let (machine, op, p, bytes) = random_point(g);
        let skew: Vec<desim::SimTime> = (0..p)
            .map(|_| desim::SimTime::from_nanos(g.u64(0, 50_000)))
            .collect();
        let min_start = skew.iter().map(|t| t.as_nanos()).min().expect("p >= 2");
        let comm = machine.communicator(p).expect("communicator");
        let s = comm.schedule(op, Rank(0), bytes).expect("schedule");
        let (out, obs) = comm
            .run_observed(
                &[&s],
                RunOptions {
                    start_times: Some(skew),
                    ..RunOptions::default()
                },
            )
            .expect("observed run");
        let cp = analyze(&out, &obs);
        let label = format!("{} {} p={p} m={bytes} skewed", machine.name(), op.key());
        assert_conserved(&cp, &label);
        assert_eq!(cp.decomposition.start_ns, min_start, "{label}");
    });
}

#[test]
fn truncated_traces_degrade_to_idle_but_conserve() {
    forall("critpath_conservation_truncated", 12, |g| {
        let (machine, op, p, bytes) = random_point(g);
        let comm = machine.communicator(p).expect("communicator");
        let s = comm.schedule(op, Rank(0), bytes).expect("schedule");
        let options = RunOptions {
            trace_limit: Some(g.usize(0, 5)),
            ..RunOptions::default()
        };
        let (out, obs) = comm.run_observed(&[&s], options).expect("observed run");
        let cp = analyze(&out, &obs);
        assert_conserved(
            &cp,
            &format!("{} {} p={p} m={bytes} truncated", machine.name(), op.key()),
        );
    });
}

#[test]
fn busy_categories_match_the_end_ranks_software_profile() {
    // On a quiet single-collective run nothing is unattributed, and the
    // walker's software categories are drawn from the executor's own
    // span vocabulary — so the path's CPU-busy time can never exceed
    // the total software time the ranks recorded.
    forall("critpath_busy_bounded_by_sw", 12, |g| {
        let (machine, op, p, bytes) = random_point(g);
        let comm = machine.communicator(p).expect("communicator");
        let s = comm.schedule(op, Rank(0), bytes).expect("schedule");
        let (out, obs) = comm
            .run_observed(&[&s], RunOptions::default())
            .expect("observed run");
        let cp = analyze(&out, &obs);
        let busy_on_path: u64 = [
            Blame::Entry,
            Blame::SendSw,
            Blame::Copy,
            Blame::RecvSw,
            Blame::Compute,
        ]
        .into_iter()
        .map(|b| cp.decomposition.get(b))
        .sum();
        let sw_total: u64 = out.phases.iter().map(|ph| ph.sw.as_nanos()).sum();
        assert!(
            busy_on_path <= sw_total,
            "{} {} p={p} m={bytes}: path busy {busy_on_path} > total sw {sw_total}",
            machine.name(),
            op.key()
        );
    });
}
