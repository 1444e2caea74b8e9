//! The happens-before graph and ambiguity scan as they were before they
//! moved onto [`Schedule::resolve`]'s slots, kept as the reference the
//! slot-based versions must agree with: channels matched through a hash
//! map, one successor list per step, a fresh BFS for every query, and
//! every unordered pair of different sizes tested on its own.

use crate::graph::HbGraph;
use crate::report::{verify, Finding};
use collectives::{build, Algorithm, Rank, Schedule, ScheduleError, Step};
use desim::check::{forall, Gen};
use netmodel::OpClass;
use std::collections::{HashMap, VecDeque};

/// All messages of one (sender, receiver) pair, in FIFO order.
struct Channel {
    from: Rank,
    to: Rank,
    /// Send events in posting order: `(event id, bytes)`.
    sends: Vec<(usize, u32)>,
    /// Recv events in posting order: `(event id, bytes)`.
    recvs: Vec<(usize, u32)>,
}

struct RefGraph {
    offsets: Vec<usize>,
    succ: Vec<Vec<usize>>,
    channels: Vec<Channel>,
}

impl RefGraph {
    fn build(s: &Schedule) -> Self {
        let p = s.ranks();
        let mut offsets = Vec::with_capacity(p + 1);
        let mut total = 0usize;
        for (_, prog) in s.iter() {
            offsets.push(total);
            total += prog.len();
        }
        offsets.push(total);

        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); total];
        for (r, prog) in s.iter() {
            let base = offsets[r.0];
            for i in 1..prog.len() {
                succ[base + i - 1].push(base + i);
            }
        }
        type Endpoints = (Vec<(usize, u32)>, Vec<(usize, u32)>);
        let mut chan: HashMap<(usize, usize), Endpoints> = HashMap::new();
        let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
        for (r, prog) in s.iter() {
            let base = offsets[r.0];
            let mut entered = 0usize;
            for (i, step) in prog.iter().enumerate() {
                match *step {
                    Step::Send { to, bytes } => {
                        chan.entry((r.0, to.0))
                            .or_default()
                            .0
                            .push((base + i, bytes));
                    }
                    Step::Recv { from, bytes } => {
                        chan.entry((from.0, r.0))
                            .or_default()
                            .1
                            .push((base + i, bytes));
                    }
                    Step::HwBarrier => {
                        if rounds.len() <= entered {
                            rounds.resize(entered + 1, Vec::new());
                        }
                        rounds[entered].push((base + i, r.0));
                        entered += 1;
                    }
                    Step::Compute { .. } => {}
                }
            }
        }
        let mut keys: Vec<(usize, usize)> = chan.keys().copied().collect();
        keys.sort_unstable();
        let mut channels = Vec::with_capacity(keys.len());
        for key in keys {
            let (sends, recvs) = chan.remove(&key).unwrap_or_default();
            for (&(se, _), &(re, _)) in sends.iter().zip(recvs.iter()) {
                succ[se].push(re);
            }
            channels.push(Channel {
                from: Rank(key.0),
                to: Rank(key.1),
                sends,
                recvs,
            });
        }
        for round in &rounds {
            for &(e, _) in round {
                for &(f, fr) in round {
                    if e != f && f + 1 < offsets[fr + 1] {
                        succ[e].push(f + 1);
                    }
                }
            }
        }
        RefGraph {
            offsets,
            succ,
            channels,
        }
    }

    fn events(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    fn reaches(&self, from: usize, to: usize) -> bool {
        if from == to {
            return true;
        }
        let mut seen = vec![false; self.events()];
        let mut queue = VecDeque::from([from]);
        seen[from] = true;
        while let Some(e) = queue.pop_front() {
            for &n in &self.succ[e] {
                if n == to {
                    return true;
                }
                if !seen[n] {
                    seen[n] = true;
                    queue.push_back(n);
                }
            }
        }
        false
    }

    fn find_ambiguities(&self) -> Vec<ScheduleError> {
        let mut findings = Vec::new();
        for ch in &self.channels {
            let n = ch.sends.len().min(ch.recvs.len());
            for i in 0..n {
                let (recv_i, _) = ch.recvs[i];
                let (_, bytes_i) = ch.sends[i];
                for &(send_j, bytes_j) in &ch.sends[i + 1..n] {
                    if bytes_i != bytes_j && !self.reaches(recv_i, send_j) {
                        findings.push(ScheduleError::AmbiguousMatch {
                            from: ch.from,
                            to: ch.to,
                            earlier: bytes_i,
                            later: bytes_j,
                        });
                    }
                }
            }
        }
        findings
    }
}

/// Asserts that `verify` reports exactly the reference's findings, in
/// its order, and, for schedules of at most 40 steps, that both graphs
/// order every pair of steps alike. Returns the number of findings.
fn agrees_with_reference(s: &Schedule) -> usize {
    assert!(s.check().is_ok(), "inputs must pass the dynamic check");
    let reference = RefGraph::build(s);
    let want: Vec<Finding> = reference
        .find_ambiguities()
        .into_iter()
        .map(Finding::Invalid)
        .collect();
    assert_eq!(verify(s).findings, want);
    let n = reference.events();
    if n <= 40 {
        let g = HbGraph::build(s).unwrap();
        for x in 0..n {
            for y in 0..n {
                assert_eq!(g.reaches(x, y), reference.reaches(x, y), "{x} -> {y}");
            }
        }
    }
    want.len()
}

fn send(to: usize, bytes: u32) -> Step {
    Step::Send {
        to: Rank(to),
        bytes,
    }
}

fn recv(from: usize, bytes: u32) -> Step {
    Step::Recv {
        from: Rank(from),
        bytes,
    }
}

/// A point-to-point schedule built in phases, each appended to the
/// programs it touches: a run of mixed-size sends on one channel with
/// its receives, a one-byte ack back, or a `HwBarrier` round on every
/// rank. Every receive of a phase matches a send of the same phase, so
/// the schedule passes `check`.
fn phased(g: &mut Gen) -> Schedule {
    let p = g.usize(2, 4);
    let mut s = Schedule::new(OpClass::PointToPoint, p);
    for _ in 0..g.usize(1, 8) {
        let a = g.usize(0, p - 1);
        let b = (a + g.usize(1, p - 1)) % p;
        match g.usize(0, 4) {
            0 => (0..p).for_each(|r| s.push(Rank(r), Step::HwBarrier)),
            1 => {
                s.push(Rank(b), send(a, 1));
                s.push(Rank(a), recv(b, 1));
            }
            _ => {
                let sizes: Vec<u32> = (0..g.usize(1, 4)).map(|_| *g.pick(&[8, 16, 24])).collect();
                for &bytes in &sizes {
                    s.push(Rank(a), send(b, bytes));
                }
                for &bytes in &sizes {
                    s.push(Rank(b), recv(a, bytes));
                }
            }
        }
    }
    s
}

#[test]
fn broadcasts_match_the_reference() {
    let mut with_findings = 0;
    forall("schedcheck_reference_bcast", 1_000, |g| {
        let algorithm = *g.pick(&[
            Algorithm::Pipelined,
            Algorithm::Binomial,
            Algorithm::ScatterAllgather,
        ]);
        let p = g.usize(1, 20);
        let root = Rank(g.usize(0, p - 1));
        let m = g.u32(0, 40_000);
        let s = build(algorithm, OpClass::Bcast, p, root, m).unwrap();
        with_findings += usize::from(agrees_with_reference(&s) > 0);
    });
    assert!(
        with_findings >= 500,
        "{with_findings} of 1000 with findings"
    );
}

#[test]
fn phased_point_to_point_schedules_match_the_reference() {
    let mut with_findings = 0;
    forall("schedcheck_reference_phased", 2_000, |g| {
        with_findings += usize::from(agrees_with_reference(&phased(g)) > 0);
    });
    assert!(
        with_findings >= 1_000,
        "{with_findings} of 2000 with findings"
    );
}
