//! Match-ambiguity race detection.
//!
//! The executor matches messages per (sender, receiver) channel in
//! *arrival* order and never rechecks payload sizes at delivery time, so
//! the dynamic `Schedule::check` — which replays one canonical
//! interleaving — silently assumes the network preserves posting order.
//! That assumption is only safe when every pair of messages on a channel
//! is ordered by happens-before: if two messages can be in flight
//! concurrently, adaptive routing or contention could deliver them
//! swapped and the receiver's `Recv`s would match the wrong payloads.
//!
//! The static criterion: for sends `i < j` on one channel with
//! `bytes_i != bytes_j`, the match is ambiguous unless
//! `recv_i happens-before send_j` — the receiver must have consumed
//! message `i` before message `j` can exist. Equal-size pairs are not
//! flagged: at the schedule IR level such messages are indistinguishable
//! and a swap is semantically harmless.

use crate::graph::HbGraph;
use collectives::{Rank, ScheduleError};

/// Scans every channel for concurrently-in-flight messages of different
/// sizes, reported by `(from, to)` channel, then by the earlier and the
/// later message's FIFO position.
///
/// A channel's messages are a run of consecutive slots, in the sender's
/// program order, and slot `k` of the run is matched to the channel's
/// `k`-th receive. One search from each earlier receive answers every
/// later send of its run.
pub(crate) fn find_ambiguities(g: &HbGraph) -> Vec<ScheduleError> {
    let bytes = g.slots().slot_bytes();
    let channel = |k: usize| {
        let (send, recv) = g.ends(k);
        (g.rank_of(send), g.rank_of(recv))
    };
    let mut found = Vec::new();
    let mut start = 0;
    while start < bytes.len() {
        let ch = channel(start);
        let end = (start + 1..bytes.len())
            .find(|&k| channel(k) != ch)
            .unwrap_or(bytes.len());
        for i in start..end {
            let mut reached = None;
            for j in i + 1..end {
                if bytes[i] != bytes[j]
                    && !reached.get_or_insert_with(|| g.descendants(g.ends(i).1))[g.ends(j).0]
                {
                    found.push((ch, bytes[i], bytes[j]));
                }
            }
        }
        start = end;
    }
    // Slots are laid out by receiver; report by sender first.
    found.sort_by_key(|&((from, to), ..)| (from, to));
    found
        .into_iter()
        .map(
            |((from, to), earlier, later)| ScheduleError::AmbiguousMatch {
                from: Rank(from),
                to: Rank(to),
                earlier,
                later,
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::{Schedule, Step};
    use netmodel::OpClass;

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

    fn scan(s: &Schedule) -> Vec<ScheduleError> {
        find_ambiguities(&HbGraph::build(s).expect("fixture must pass the dynamic check"))
    }

    #[test]
    fn back_to_back_different_sizes_are_ambiguous() {
        // Both messages in flight at once; FIFO check passes but the
        // match depends on delivery order.
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(0), send(1, 16));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), recv(0, 16));
        assert_eq!(
            scan(&s),
            vec![ScheduleError::AmbiguousMatch {
                from: Rank(0),
                to: Rank(1),
                earlier: 8,
                later: 16,
            }]
        );
    }

    #[test]
    fn acknowledged_resend_is_unambiguous() {
        // The second send is posted only after an ack proves the first
        // was received: recv_0 happens-before send_1.
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(0), recv(1, 1)); // ack
        s.push(Rank(0), send(1, 16));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), send(0, 1)); // ack
        s.push(Rank(1), recv(0, 16));
        assert!(scan(&s).is_empty());
    }

    #[test]
    fn equal_sizes_not_flagged() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(0), send(1, 8));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), recv(0, 8));
        assert!(scan(&s).is_empty());
    }

    #[test]
    fn barrier_separation_is_unambiguous() {
        // A barrier round between the two sends orders recv_0 before
        // send_1 across ranks.
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(0), Step::HwBarrier);
        s.push(Rank(0), send(1, 16));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), Step::HwBarrier);
        s.push(Rank(1), recv(0, 16));
        assert!(scan(&s).is_empty());
    }

    #[test]
    fn nonadjacent_pair_detected() {
        // Sizes 8, 8, 16: the (0, 2) and (1, 2) pairs race even though
        // the adjacent (0, 1) pair is same-size.
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        for b in [8, 8, 16] {
            s.push(Rank(0), send(1, b));
        }
        for b in [8, 8, 16] {
            s.push(Rank(1), recv(0, b));
        }
        assert_eq!(scan(&s).len(), 2);
    }

    #[test]
    fn pipelined_broadcast_tail_segment_races() {
        // A non-multiple message size gives the pipelined chain a short
        // final segment that can overtake a full one — the canonical
        // in-repo example of a hazard the dynamic check cannot see.
        let s = collectives::build(
            collectives::Algorithm::Pipelined,
            OpClass::Bcast,
            4,
            Rank(0),
            10_000,
        )
        .expect("pipelined bcast builds");
        assert!(s.check().is_ok(), "dynamic check is blind to the race");
        let found = scan(&s);
        assert!(
            found
                .iter()
                .any(|e| matches!(e, ScheduleError::AmbiguousMatch { .. })),
            "tail segment must be flagged"
        );
    }
}
