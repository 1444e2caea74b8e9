//! Critical-path analysis: communication depth and per-rank fan-in.
//!
//! Table 3 of the paper shows two startup-latency regimes — O(log p)
//! for the tree-structured collectives and O(p) for root-serialized or
//! round-serialized ones. The *schedule-level* counterpart is the
//! message-dependency depth: the longest chain of messages in which each
//! send waits on the previous receive. Each algorithm family has a known
//! depth bound; a compiled schedule exceeding it has a serialization bug
//! that would surface as the wrong latency curve.

use collectives::schedule::ceil_log2;
use collectives::{Algorithm, Schedule, Step};
use netmodel::OpClass;

/// Critical-path statistics of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CritPath {
    /// Longest send-after-recv message chain (0 for a deadlocked or
    /// message-free schedule).
    pub depth: usize,
    /// Maximum number of `Send` steps on any one rank.
    pub max_send_fanout: usize,
    /// Maximum number of `Recv` steps on any one rank.
    pub max_recv_fanin: usize,
}

/// Computes depth and fan-in/fan-out extremes.
pub fn analyze(s: &Schedule) -> CritPath {
    with_depth(s, s.message_depth())
}

/// The fan-in/fan-out extremes of `s`, with its message depth already
/// known.
pub(crate) fn with_depth(s: &Schedule, depth: usize) -> CritPath {
    let mut max_send_fanout = 0;
    let mut max_recv_fanin = 0;
    for (_, prog) in s.iter() {
        let sends = prog
            .iter()
            .filter(|st| matches!(st, Step::Send { .. }))
            .count();
        let recvs = prog
            .iter()
            .filter(|st| matches!(st, Step::Recv { .. }))
            .count();
        max_send_fanout = max_send_fanout.max(sends);
        max_recv_fanin = max_recv_fanin.max(recvs);
    }
    CritPath {
        depth,
        max_send_fanout,
        max_recv_fanin,
    }
}

/// The maximum message depth the `(algorithm, class)` family permits on
/// `p` ranks, or `None` when no static bound applies (the pipelined
/// chain's depth grows with the segment count, which depends on the
/// message size, not just `p`).
pub fn depth_bound(algorithm: Algorithm, class: OpClass, p: usize) -> Option<usize> {
    let lg = ceil_log2(p.max(1)) as usize;
    match algorithm {
        // One message per tree/doubling level.
        Algorithm::Binomial
        | Algorithm::RecursiveDoubling
        | Algorithm::Dissemination
        | Algorithm::Bruck => Some(lg),
        // Fan-in to the root plus the release fan-out.
        Algorithm::Tree => Some(2 * lg),
        // The barrier network replaces messaging entirely.
        Algorithm::Hardware => Some(0),
        Algorithm::Linear => match class {
            // A pipeline chain hops p−1 times.
            OpClass::Scan => Some(p.saturating_sub(1)),
            // The root talks to every peer directly.
            OpClass::Bcast | OpClass::Scatter | OpClass::Gather | OpClass::Reduce => Some(1),
            _ => None,
        },
        Algorithm::Pairwise => match class {
            // p−1 serialized exchange rounds (ring fallback included).
            OpClass::Alltoall => Some(p.saturating_sub(1)),
            // XOR rounds on powers of two, dissemination otherwise.
            OpClass::Barrier => Some(lg),
            _ => None,
        },
        Algorithm::Ring => Some(p.saturating_sub(1)),
        // log p scatter phase + p−1 allgather ring steps.
        Algorithm::ScatterAllgather => Some(lg + p.saturating_sub(1)),
        Algorithm::Pipelined => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::{build, Rank};

    #[test]
    fn every_generator_meets_its_bound() {
        let table: &[(Algorithm, OpClass)] = &[
            (Algorithm::Binomial, OpClass::Bcast),
            (Algorithm::Linear, OpClass::Bcast),
            (Algorithm::ScatterAllgather, OpClass::Bcast),
            (Algorithm::Binomial, OpClass::Scatter),
            (Algorithm::Linear, OpClass::Scatter),
            (Algorithm::Binomial, OpClass::Gather),
            (Algorithm::Linear, OpClass::Gather),
            (Algorithm::Binomial, OpClass::Reduce),
            (Algorithm::Linear, OpClass::Reduce),
            (Algorithm::RecursiveDoubling, OpClass::Scan),
            (Algorithm::Linear, OpClass::Scan),
            (Algorithm::Pairwise, OpClass::Alltoall),
            (Algorithm::Ring, OpClass::Alltoall),
            (Algorithm::Bruck, OpClass::Alltoall),
            (Algorithm::Dissemination, OpClass::Barrier),
            (Algorithm::Tree, OpClass::Barrier),
            (Algorithm::Pairwise, OpClass::Barrier),
            (Algorithm::Hardware, OpClass::Barrier),
        ];
        for &(alg, class) in table {
            for p in [1usize, 2, 3, 4, 8, 16, 17, 33, 64] {
                let s = build(alg, class, p, Rank(0), 512)
                    .unwrap_or_else(|e| panic!("{alg:?}/{class}/p={p}: {e}"));
                let bound = depth_bound(alg, class, p)
                    .unwrap_or_else(|| panic!("{alg:?}/{class} should have a bound"));
                let got = analyze(&s).depth;
                assert!(
                    got <= bound,
                    "{alg:?}/{class}/p={p}: depth {got} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn binomial_bcast_depth_is_tight() {
        for p in [2usize, 4, 8, 32, 64] {
            let s = build(Algorithm::Binomial, OpClass::Bcast, p, Rank(0), 64)
                .expect("binomial bcast builds");
            assert_eq!(analyze(&s).depth, ceil_log2(p) as usize, "p={p}");
        }
    }

    #[test]
    fn serialized_chain_exceeds_tree_bound() {
        // A handwritten "broadcast" that daisy-chains instead of using
        // the tree: depth p−1 breaks the binomial bound for p ≥ 4.
        let p = 8;
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
        let depth = analyze(&s).depth;
        let bound =
            depth_bound(Algorithm::Binomial, OpClass::Bcast, p).expect("binomial has a bound");
        assert!(depth > bound, "chain depth {depth} must exceed {bound}");
    }

    #[test]
    fn fanout_counts_per_rank_extremes() {
        let s = build(Algorithm::Linear, OpClass::Scatter, 9, Rank(0), 64)
            .expect("linear scatter builds");
        let cp = analyze(&s);
        assert_eq!(cp.max_send_fanout, 8, "root sends to every peer");
        assert_eq!(cp.max_recv_fanin, 1, "leaves receive once");
        assert_eq!(cp.depth, 1);
    }

    #[test]
    fn pipelined_has_no_static_bound() {
        assert_eq!(depth_bound(Algorithm::Pipelined, OpClass::Bcast, 8), None);
    }
}
