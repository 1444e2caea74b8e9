//! Property tests for the critical-path profiler's conservation
//! invariant: the blame spans on the reconstructed path tile the
//! end-to-end elapsed interval *exactly* — per-category totals sum to
//! elapsed nanoseconds, and the path segments are contiguous from the
//! completion instant back to the earliest start — across every
//! collective, machine, size, skew, and trace truncation — and that
//! `analyze` matches each receive wait to the same message as a plain
//! per-channel hash-map matcher kept here as the reference.

use std::collections::HashMap;

use desim::check::{forall, Gen};
use desim::{SimDuration, SimTime};
use mpisim::comm::RunOptions;
use mpisim::critpath::{analyze, CritPath};
use mpisim::exec::{ExecOutcome, FinishTimes, MessageTrace, Observed, PhaseKind, PhaseSpan};
use mpisim::{Machine, OpClass, Rank};
use obs::critpath::{walk, Blame, Cause, Census, Decomposition, Span, Transfer};

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

/// The walker's input as `analyze` first built it: a `HashMap` from
/// `(src, dst)` to that channel's `(delivered_ns, trace index)` list,
/// delivery-sorted, and a receive wait matched to the first message
/// delivered exactly at its end (lowest trace index on a tie).
fn reference_graph(out: &ExecOutcome, observed: &Observed) -> (Vec<Span>, Vec<Transfer>) {
    let transfers: Vec<Transfer> = out
        .trace
        .iter()
        .map(|m| Transfer {
            src_track: m.src as u32,
            wire_start_ns: m.wire_start.as_nanos(),
            delivered_ns: m.delivered.as_nanos(),
            fifo_wait_ns: m.inject_wait.as_nanos(),
            link_wait_ns: m.link_wait.as_nanos(),
        })
        .collect();
    let mut arrivals: HashMap<(usize, usize), Vec<(u64, u32)>> = HashMap::new();
    for (i, m) in out.trace.iter().enumerate() {
        arrivals
            .entry((m.src, m.dst))
            .or_default()
            .push((m.delivered.as_nanos(), i as u32));
    }
    for list in arrivals.values_mut() {
        list.sort_unstable();
    }
    let spans = observed
        .spans
        .iter()
        .map(|sp| {
            let matched = |src: u32| {
                let list = arrivals.get(&(src as usize, sp.rank))?;
                let end = sp.end.as_nanos();
                let pos = list.partition_point(|&(d, _)| d < end);
                (pos < list.len() && list[pos].0 == end).then(|| list[pos].1)
            };
            let (blame, cause) = match (sp.kind, sp.woke_by) {
                (PhaseKind::RecvWait, Some(src)) => match matched(src) {
                    Some(msg) => (Blame::Idle, Cause::Message { msg }),
                    None => (Blame::Idle, Cause::Local),
                },
                (PhaseKind::BarrierWait, Some(trigger)) => {
                    (Blame::BarrierSync, Cause::Barrier { track: trigger })
                }
                (PhaseKind::RecvWait | PhaseKind::BarrierWait, None) => (Blame::Idle, Cause::Local),
                (PhaseKind::Entry, _) => (Blame::Entry, Cause::Local),
                (PhaseKind::SendOverhead, _) => (Blame::SendSw, Cause::Local),
                (PhaseKind::Copy, _) => (Blame::Copy, Cause::Local),
                (PhaseKind::RecvOverhead, _) => (Blame::RecvSw, Cause::Local),
                (PhaseKind::Compute, _) => (Blame::Compute, Cause::Local),
            };
            Span {
                track: sp.rank as u32,
                blame,
                start_ns: sp.start.as_nanos(),
                end_ns: sp.end.as_nanos(),
                cause,
            }
        })
        .collect();
    (spans, transfers)
}

/// The decomposition and census of the reference graph, walked by the
/// public `obs::critpath` functions from the instants `analyze` uses.
fn reference_analysis(out: &ExecOutcome, observed: &Observed) -> (Decomposition, Census) {
    let end = out.completed();
    let end_rank = out
        .finish
        .last()
        .expect("at least one segment")
        .iter()
        .position(|&f| f == end)
        .expect("some rank finishes last");
    let start_ns = out.start.iter().map(|t| t.as_nanos()).min().unwrap_or(0);
    let (spans, transfers) = reference_graph(out, observed);
    let decomposition = walk(
        &spans,
        &transfers,
        end_rank as u32,
        start_ns,
        end.as_nanos(),
    );
    let remote: Vec<Transfer> = out
        .trace
        .iter()
        .zip(&transfers)
        .filter(|(m, _)| m.src != m.dst)
        .map(|(_, t)| *t)
        .collect();
    (decomposition, Census::of(&remote))
}

#[test]
fn matcher_agrees_with_the_hash_map_reference() {
    forall("critpath_matcher_reference", 32, |g| {
        let (machine, op, p, bytes) = random_point(g);
        let skewed = g.bool();
        let start_times = skewed.then(|| {
            (0..p)
                .map(|_| SimTime::from_nanos(g.u64(0, 50_000)))
                .collect()
        });
        let truncated = g.bool();
        let trace_limit = truncated.then(|| g.usize(0, 5));
        let comm = machine.communicator(p).expect("communicator");
        let s = comm.schedule(op, Rank(0), bytes).expect("schedule");
        let options = RunOptions {
            start_times,
            trace_limit,
            ..RunOptions::default()
        };
        let (out, obs) = comm.run_observed(&[&s], options).expect("observed run");
        let cp = analyze(&out, &obs);
        let (decomposition, census) = reference_analysis(&out, &obs);
        let label = format!(
            "{} {} p={p} m={bytes} skewed={skewed} trace_limit={trace_limit:?}",
            machine.name(),
            op.key()
        );
        assert_eq!(cp.decomposition, decomposition, "{label}");
        assert_eq!(cp.census, census, "{label}");
    });
}

#[test]
fn tied_deliveries_match_the_lowest_trace_index() {
    // Two messages on channel 0 -> 1 delivered at the same instant, which
    // no executed schedule produces: the wait follows the first, whose
    // wire journey starts at 10 ns, not the second's at 40 ns.
    let message = |wire_start: u64| MessageTrace {
        src: 0,
        dst: 1,
        bytes: 8,
        class: OpClass::PointToPoint,
        posted: SimTime::from_nanos(wire_start),
        wire_start: SimTime::from_nanos(wire_start),
        delivered: SimTime::from_nanos(100),
        inject_wait: SimDuration::ZERO,
        link_wait: SimDuration::ZERO,
    };
    let span = |rank, kind, start, end, woke_by| PhaseSpan {
        rank,
        kind,
        start: SimTime::from_nanos(start),
        end: SimTime::from_nanos(end),
        woke_by,
    };
    let out = ExecOutcome {
        start: vec![SimTime::ZERO; 2],
        finish: FinishTimes::new(2, vec![SimTime::from_nanos(40), SimTime::from_nanos(100)]),
        messages: 2,
        bytes: 16,
        events: 0,
        trace: vec![message(10), message(40)],
        dropped_messages: 0,
        link_loads: Vec::new(),
        phases: Vec::new(),
    };
    let observed = Observed {
        spans: vec![
            span(0, PhaseKind::SendOverhead, 0, 10, None),
            span(0, PhaseKind::SendOverhead, 10, 40, None),
            span(1, PhaseKind::RecvWait, 0, 100, Some(0)),
        ],
        ..Observed::default()
    };
    let cp = analyze(&out, &observed);
    assert_eq!(cp.decomposition, reference_analysis(&out, &observed).0);
    assert_eq!(cp.decomposition.get(Blame::Wire), 90);
    assert_eq!(cp.decomposition.get(Blame::SendSw), 10);
}
