//! Static independence: schedule-widened footprints.
//!
//! [`desim::TypedEvent::footprint`] describes what an event's *handler*
//! touches. That is not enough for commutation: dispatching a
//! `RankResume` advances the rank's program as far as it can at that
//! instant, and the program may post sends (network state) or hit a
//! hardware barrier (global sync line). [`StaticModel`] therefore widens each
//! event's footprint with whole-program *closure flags* computed once
//! from the [`Schedule`]:
//!
//! * a rank whose program contains any `Send` couples to
//!   [`Resource::Network`] — resuming it earlier or later can change
//!   link/FIFO acquisition order;
//! * a rank whose program contains a `HwBarrier` couples to
//!   [`Resource::Barrier`] — its arrival order at the sync line is
//!   globally visible.
//!
//! A rank that only receives and computes keeps its narrow footprint:
//! its causal future is confined to its own state and the channels that
//! feed it, so same-instant swaps against disjoint ranks cannot
//! propagate. Two events are **independent** iff their widened
//! footprints are disjoint: swapping such a same-instant pair cannot
//! change the run.
//!
//! The schedule's happens-before order prunes no same-instant pair: it
//! never orders two events of one instant. A send's `ScheduleStep`
//! fires `o_send` (at least 2 µs on every calibrated machine) after the
//! send is issued, and every step the send happens-before is issued at
//! that instant or later. On a custom machine with a zero `o_send` such
//! a pair's swap cannot engage, because the later event is not queued
//! yet, so the explorer counts it `missed`, never `unexplained`.

use collectives::{Schedule, Step};
use desim::eventlog::LoggedEvent;
use desim::{Footprint, Resource, TypedEvent};

/// Per-schedule static independence model.
#[derive(Debug)]
pub struct StaticModel {
    /// Rank's program posts at least one `Send` (network-coupled).
    net_coupled: Vec<bool>,
    /// Rank's program contains a `HwBarrier` (barrier-coupled).
    barrier_coupled: Vec<bool>,
}

impl StaticModel {
    /// Builds the model: one pass over the schedule for the closure
    /// flags.
    pub fn build(s: &Schedule) -> StaticModel {
        let p = s.ranks();
        let mut net_coupled = vec![false; p];
        let mut barrier_coupled = vec![false; p];
        for (rank, prog) in s.iter() {
            for st in prog {
                match st {
                    Step::Send { .. } => net_coupled[rank.0] = true,
                    Step::HwBarrier => barrier_coupled[rank.0] = true,
                    Step::Recv { .. } | Step::Compute { .. } => {}
                }
            }
        }
        StaticModel {
            net_coupled,
            barrier_coupled,
        }
    }

    /// Whether `rank`'s causal future can touch the network.
    pub fn net_coupled(&self, rank: usize) -> bool {
        self.net_coupled.get(rank).copied().unwrap_or(true)
    }

    /// Whether `rank`'s causal future can touch the barrier line.
    pub fn barrier_coupled(&self, rank: usize) -> bool {
        self.barrier_coupled.get(rank).copied().unwrap_or(true)
    }

    /// The event's handler footprint widened by the closure flags of
    /// every rank whose program the handler can advance.
    pub fn footprint(&self, ev: &LoggedEvent) -> Footprint {
        let typed = ev.typed();
        let mut fp = typed.footprint();
        let advanced: &[u32] = match typed {
            TypedEvent::RankResume { rank } => &[rank],
            // Delivery can complete the destination's pending recv and
            // advance its program.
            TypedEvent::MessageReady { dst, .. } => &[dst],
            // The deferred send touches the network by construction
            // (already in the base footprint) and releases the sender.
            TypedEvent::ScheduleStep { rank, .. } => &[rank],
            TypedEvent::Timer { .. } => &[],
        };
        for &r in advanced {
            if self.net_coupled(r as usize) {
                fp = fp.with(Resource::Network);
            }
            if self.barrier_coupled(r as usize) {
                fp = fp.with(Resource::Barrier);
            }
        }
        fp
    }

    /// Static independence: disjoint widened footprints.
    pub fn independent(&self, x: &LoggedEvent, y: &LoggedEvent) -> bool {
        self.footprint(x).disjoint(&self.footprint(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::Rank;
    use desim::eventlog::EventKind;
    use desim::SimTime;
    use mpisim::{Machine, OpClass};

    fn logged(kind: EventKind, a: u64, b: u64) -> LoggedEvent {
        LoggedEvent {
            seq: 0,
            at: SimTime::from_nanos(0),
            kind,
            a,
            b,
        }
    }

    fn schedule(op: OpClass, p: usize) -> Schedule {
        let comm = Machine::t3d().communicator(p).expect("communicator");
        comm.schedule(op, Rank(0), 1024).expect("schedule")
    }

    #[test]
    fn closure_flags_follow_the_program() {
        // Bcast root sends; pure leaves only recv.
        let m = StaticModel::build(&schedule(OpClass::Bcast, 8));
        assert!(m.net_coupled(0), "root sends");
        let leaf = (0..8).find(|&r| !m.net_coupled(r));
        assert!(leaf.is_some(), "a bcast tree has non-sending leaves");
        assert!(!m.barrier_coupled(0), "bcast has no hardware barrier");
    }

    #[test]
    fn sending_ranks_conflict_through_the_network() {
        let m = StaticModel::build(&schedule(OpClass::Alltoall, 8));
        // In alltoall every rank sends: resumes of distinct ranks still
        // conflict through the widened Network resource.
        let x = logged(EventKind::RankResume, 1, 0);
        let y = logged(EventKind::RankResume, 2, 0);
        assert!(!m.independent(&x, &y));
    }

    #[test]
    fn non_sending_leaves_commute() {
        let m = StaticModel::build(&schedule(OpClass::Bcast, 8));
        let leaves: Vec<usize> = (0..8).filter(|&r| !m.net_coupled(r)).collect();
        assert!(leaves.len() >= 2, "need two pure receivers");
        let x = logged(EventKind::RankResume, leaves[0] as u64, 0);
        let y = logged(EventKind::RankResume, leaves[1] as u64, 0);
        assert!(m.independent(&x, &y));
        // But a leaf resume never commutes with its own delivery.
        let d = logged(EventKind::MessageReady, 0, leaves[0] as u64);
        assert!(!m.independent(&x, &d));
    }

    #[test]
    fn unknown_ranks_are_conservatively_coupled() {
        let m = StaticModel::build(&schedule(OpClass::Bcast, 4));
        assert!(m.net_coupled(99));
        assert!(m.barrier_coupled(99));
    }
}
