//! Property tests: the flat-array `Schedule::check`,
//! `Schedule::message_depth` and `Schedule::influence` agree with the
//! hash-map abstract executions they replaced, kept here as the
//! references.
//!
//! Inputs are every vendor and generic schedule at random `p`, root and
//! message length, plus random mutations of them (drop, duplicate,
//! resize, retarget in range, retarget out of range, swap a send with a
//! receive), drawn with the in-repo `desim::check` generators.

#![allow(clippy::unwrap_used)]

use collectives::{
    bcast, build, generic_algorithm, vendor_schedule, Rank, Schedule, ScheduleError, Step,
};
use desim::check::{forall, Gen};
use netmodel::{MachineId, OpClass};
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The reference abstract execution: round-robin over all ranks, each
/// running as far as it can, with one FIFO of `(bytes, depth)` per
/// channel in a hash map. Returns the message depth. It does not
/// range-check peers, so a `Recv` from an out-of-range rank can panic in
/// [`reference_wait_cycle`].
fn reference_run(s: &Schedule) -> Result<usize, ScheduleError> {
    let p = s.ranks();
    let programs: Vec<&[Step]> = s.iter().map(|(_, prog)| prog).collect();
    let mut pc = vec![0usize; p];
    let mut inflight: HashMap<(usize, usize), VecDeque<(u32, usize)>> = HashMap::new();
    let mut rank_depth = vec![0usize; p];
    let mut max_depth = 0usize;
    loop {
        let mut progressed = false;
        for r in 0..p {
            while pc[r] < programs[r].len() {
                match programs[r][pc[r]] {
                    Step::Send { to, bytes } => {
                        let d = rank_depth[r] + 1;
                        inflight.entry((r, to.0)).or_default().push_back((bytes, d));
                        max_depth = max_depth.max(d);
                    }
                    Step::Recv { from, bytes } => {
                        let q = inflight.entry((from.0, r)).or_default();
                        match q.front().copied() {
                            Some((sent, d)) => {
                                if sent != bytes {
                                    return Err(ScheduleError::SizeMismatch {
                                        from,
                                        to: Rank(r),
                                        sent,
                                        expected: bytes,
                                    });
                                }
                                q.pop_front();
                                rank_depth[r] = rank_depth[r].max(d);
                            }
                            None => break,
                        }
                    }
                    Step::Compute { .. } | Step::HwBarrier => {}
                }
                pc[r] += 1;
                progressed = true;
            }
        }
        if pc.iter().enumerate().all(|(r, &c)| c == programs[r].len()) {
            let leftovers: usize = inflight.values().map(VecDeque::len).sum();
            if leftovers > 0 {
                return Err(ScheduleError::UnconsumedMessages { count: leftovers });
            }
            return Ok(max_depth);
        }
        if !progressed {
            if let Some(cycle) = reference_wait_cycle(&programs, &pc) {
                return Err(ScheduleError::DeadlockCycle { cycle });
            }
            let waiting = (0..p)
                .filter(|&r| pc[r] < programs[r].len())
                .map(Rank)
                .collect();
            return Err(ScheduleError::Stuck { waiting });
        }
    }
}

/// The reference wait-for cycle extraction over a stalled `pc`.
fn reference_wait_cycle(programs: &[&[Step]], pc: &[usize]) -> Option<Vec<(Rank, Step)>> {
    let p = programs.len();
    let waits_on = |r: usize| -> Option<usize> {
        match programs[r].get(pc[r]) {
            Some(Step::Recv { from, .. }) => Some(from.0),
            _ => None,
        }
    };
    let mut state = vec![0u8; p];
    for start in 0..p {
        if state[start] != 0 {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = start;
        loop {
            if state[cur] == 1 {
                let pos = path.iter().position(|&r| r == cur)?;
                let mut cycle: Vec<usize> = path[pos..].to_vec();
                let lead = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &r)| r)
                    .map(|(i, _)| i)?;
                cycle.rotate_left(lead);
                return Some(
                    cycle
                        .into_iter()
                        .map(|r| (Rank(r), programs[r][pc[r]]))
                        .collect(),
                );
            }
            if state[cur] == 2 {
                break;
            }
            state[cur] = 1;
            path.push(cur);
            match waits_on(cur) {
                Some(next) if pc[next] < programs[next].len() => cur = next,
                _ => break,
            }
        }
        for r in path {
            state[r] = 2;
        }
    }
    None
}

/// The reference `check`: range-check every named peer in program
/// order, then run.
fn reference_check(s: &Schedule) -> Result<(), ScheduleError> {
    for (r, prog) in s.iter() {
        for step in prog {
            let named = match step {
                Step::Send { to, .. } => *to,
                Step::Recv { from, .. } => *from,
                _ => continue,
            };
            if named.0 >= s.ranks() {
                return Err(ScheduleError::RankOutOfRange {
                    rank: named,
                    in_program: r,
                });
            }
        }
    }
    reference_run(s).map(|_| ())
}

thread_local! {
    /// Set while this thread runs a reference call expected to panic.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// The reference `message_depth`, or `None` where it panics. The panic
/// message is suppressed on this thread only, so other tests' failures
/// still print.
fn reference_depth(s: &Schedule) -> Option<usize> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                default(info);
            }
        }));
    });
    QUIET.with(|q| q.set(true));
    let depth = catch_unwind(AssertUnwindSafe(|| reference_run(s).unwrap_or(0)));
    QUIET.with(|q| q.set(false));
    depth.ok()
}

/// The reference `influence`: round-robin over all ranks, each running as
/// far as it can, with one FIFO of `p`-entry snapshots per channel in a
/// hash map. It does not range-check peers: a send to an out-of-range
/// rank is never received, and a `Recv` from one blocks forever.
fn reference_influence(s: &Schedule) -> Option<Vec<Vec<bool>>> {
    let p = s.ranks();
    let programs: Vec<&[Step]> = s.iter().map(|(_, prog)| prog).collect();
    let mut pc = vec![0usize; p];
    let mut sets: Vec<Vec<bool>> = (0..p).map(|r| (0..p).map(|i| i == r).collect()).collect();
    let mut inflight: HashMap<(usize, usize), VecDeque<Vec<bool>>> = HashMap::new();
    loop {
        let mut progressed = false;
        for r in 0..p {
            while pc[r] < programs[r].len() {
                match programs[r][pc[r]] {
                    Step::Send { to, .. } => {
                        let snapshot = sets[r].clone();
                        inflight.entry((r, to.0)).or_default().push_back(snapshot);
                    }
                    Step::Recv { from, .. } => {
                        match inflight.entry((from.0, r)).or_default().pop_front() {
                            Some(carried) => {
                                for (dst, src) in sets[r].iter_mut().zip(&carried) {
                                    *dst |= *src;
                                }
                            }
                            None => break,
                        }
                    }
                    Step::Compute { .. } | Step::HwBarrier => {}
                }
                pc[r] += 1;
                progressed = true;
            }
        }
        if pc.iter().enumerate().all(|(r, &c)| c == programs[r].len()) {
            return Some(sets);
        }
        if !progressed {
            return None;
        }
    }
}

/// A vendor or generic schedule at random `p`, root and length.
fn random_schedule(g: &mut Gen) -> Schedule {
    let class = *g.pick(&OpClass::COLLECTIVES);
    let p = g.usize(1, 48);
    let root = Rank(g.usize(0, p - 1));
    let bytes = g.u32(1, 70_000);
    if g.bool() {
        let machine = *g.pick(&MachineId::ALL);
        vendor_schedule(machine, class, p, root, bytes).unwrap()
    } else {
        build(generic_algorithm(class), class, p, root, bytes).unwrap()
    }
}

/// Applies one random mutation at a random step.
fn mutate(g: &mut Gen, s: &Schedule) -> Schedule {
    let n = s.total_steps();
    if n == 0 {
        return s.clone();
    }
    let target = g.usize(0, n - 1);
    let kind = g.usize(0, 5);
    let p = s.ranks();
    let peer = if kind == 4 {
        p + g.usize(0, 3)
    } else {
        g.usize(0, p - 1)
    };
    let delta = g.u32(1, 64);
    let mut out = Schedule::new(s.class(), p);
    let mut flat = 0usize;
    for (r, prog) in s.iter() {
        for &step in prog {
            let hit = flat == target;
            flat += 1;
            if !hit {
                out.push(r, step);
                continue;
            }
            let mutated = match (kind, step) {
                (0, _) => continue,
                (1, _) => {
                    out.push(r, step);
                    step
                }
                (2, Step::Send { to, bytes }) => Step::Send {
                    to,
                    bytes: bytes.wrapping_add(delta),
                },
                (2, Step::Recv { from, bytes }) => Step::Recv {
                    from,
                    bytes: bytes.wrapping_add(delta),
                },
                (3 | 4, Step::Send { bytes, .. }) => Step::Send {
                    to: Rank(peer),
                    bytes,
                },
                (3 | 4, Step::Recv { bytes, .. }) => Step::Recv {
                    from: Rank(peer),
                    bytes,
                },
                (5, Step::Send { to, bytes }) => Step::Recv { from: to, bytes },
                (5, Step::Recv { from, bytes }) => Step::Send { to: from, bytes },
                _ => step,
            };
            out.push(r, mutated);
        }
    }
    out
}

/// A random schedule with up to three random mutations.
fn drawn_schedule(g: &mut Gen) -> Schedule {
    let mut s = random_schedule(g);
    for _ in 0..g.usize(0, 3) {
        s = mutate(g, &s);
    }
    s
}

#[test]
fn flat_check_and_depth_match_the_reference() {
    forall(
        "flat check agrees with the hash-map reference",
        1_500,
        |g| {
            let s = drawn_schedule(g);
            assert_eq!(s.check(), reference_check(&s), "check of {s:?}");
            match reference_depth(&s) {
                Some(depth) => assert_eq!(s.message_depth(), depth, "depth of {s:?}"),
                // The reference panics here; the flat check rejects it.
                None => assert_eq!(s.message_depth(), 0, "depth of {s:?}"),
            }
        },
    );
}

#[test]
fn flat_influence_matches_the_reference() {
    forall(
        "flat influence agrees with the hash-map reference",
        1_500,
        |g| {
            let s = drawn_schedule(g);
            let p = s.ranks();
            let in_range = s.iter().all(|(_, prog)| {
                prog.iter().all(|step| match *step {
                    Step::Send { to: peer, .. } | Step::Recv { from: peer, .. } => peer.0 < p,
                    Step::Compute { .. } | Step::HwBarrier => true,
                })
            });
            if in_range {
                assert_eq!(s.influence(), reference_influence(&s), "{s:?}");
            } else {
                assert_eq!(s.influence(), None, "{s:?}");
            }
        },
    );
}

#[test]
fn influence_rows_past_one_word_match_the_reference() {
    // The property draws p <= 48, so every row there is one word.
    for p in [64, 65, 130] {
        for class in OpClass::COLLECTIVES {
            for machine in MachineId::ALL {
                let s = vendor_schedule(machine, class, p, Rank(p / 3), 8).unwrap();
                assert_eq!(
                    s.influence(),
                    reference_influence(&s),
                    "{machine:?} {class} p={p}"
                );
            }
        }
    }
}

#[test]
fn binomial_bcast_over_2_pow_17_ranks_checks() {
    let s = bcast::binomial(1 << 17, Rank(0), 4);
    assert_eq!(s.check(), Ok(()));
    assert_eq!(s.message_depth(), 17);
}
