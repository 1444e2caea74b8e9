//! Static independence: schedule-widened footprints and happens-before
//! pruning.
//!
//! [`desim::TypedEvent::footprint`] describes what an event's *handler*
//! touches. That is not enough for commutation: dispatching a
//! `RankResume` advances the rank's whole tape segment at that instant,
//! and the tape may post sends (network state) or hit a hardware
//! barrier (global sync line). [`StaticModel`] therefore widens each
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

use collectives::{Rank, Schedule, Step};
use desim::eventlog::{EventKind, LoggedEvent};
use desim::{Footprint, Resource, TypedEvent};
use schedcheck::HbGraph;

/// Per-schedule static independence model.
#[derive(Debug)]
pub struct StaticModel {
    /// Rank's program posts at least one `Send` (network-coupled).
    net_coupled: Vec<bool>,
    /// Rank's program contains a `HwBarrier` (barrier-coupled).
    barrier_coupled: Vec<bool>,
    /// Program length per rank, for tape-position validation.
    steps: Vec<usize>,
    /// The schedule's happens-before graph (PR 5's schedcheck layer).
    hb: HbGraph,
}

impl StaticModel {
    /// Builds the model: one pass over the schedule for the closure
    /// flags, plus the happens-before graph.
    pub fn build(s: &Schedule) -> StaticModel {
        let p = s.ranks();
        let mut net_coupled = vec![false; p];
        let mut barrier_coupled = vec![false; p];
        let mut steps = vec![0usize; p];
        for (rank, prog) in s.iter() {
            steps[rank.0] = prog.len();
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
            steps,
            hb: HbGraph::build(s),
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
    /// every rank whose tape the handler can advance.
    pub fn footprint(&self, ev: &LoggedEvent) -> Footprint {
        let typed = ev.typed();
        let mut fp = typed.footprint();
        let advanced: &[u32] = match typed {
            TypedEvent::RankResume { rank } => &[rank],
            // Delivery can complete the destination's pending recv and
            // advance its tape.
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

    /// Whether the happens-before graph orders two `ScheduleStep`
    /// events (either direction). Tape position `b` maps to program
    /// step `b - 1` (position 0 is the segment-entry marker); positions
    /// outside the single-segment program conservatively report
    /// unordered. Non-`ScheduleStep` events have no schedule node.
    pub fn hb_ordered(&self, x: &LoggedEvent, y: &LoggedEvent) -> bool {
        let Some((nx, ny)) = self.hb_node(x).zip(self.hb_node(y)) else {
            return false;
        };
        self.hb.reaches(nx, ny) || self.hb.reaches(ny, nx)
    }

    fn hb_node(&self, ev: &LoggedEvent) -> Option<usize> {
        if ev.kind != EventKind::ScheduleStep {
            return None;
        }
        let (rank, pos) = (ev.a as usize, ev.b as usize);
        let n = *self.steps.get(rank)?;
        if pos == 0 || pos > n {
            return None; // entry marker / segment-end: no program step
        }
        Some(self.hb.event(Rank(rank), pos - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn hb_orders_dependent_schedule_steps_only() {
        let s = schedule(OpClass::Scan, 8);
        let m = StaticModel::build(&s);
        // Two tape positions of the same rank are program-ordered.
        if s.steps_of(Rank(1)) >= 2 {
            let x = logged(EventKind::ScheduleStep, 1, 1);
            let y = logged(EventKind::ScheduleStep, 1, 2);
            assert!(m.hb_ordered(&x, &y));
        }
        // Entry markers and out-of-range positions are unordered.
        let e = logged(EventKind::ScheduleStep, 1, 0);
        let z = logged(EventKind::ScheduleStep, 1, 999);
        assert!(!m.hb_ordered(&e, &z));
        // Non-ScheduleStep events have no schedule node.
        let r = logged(EventKind::RankResume, 1, 0);
        assert!(!m.hb_ordered(&r, &r));
    }

    #[test]
    fn unknown_ranks_are_conservatively_coupled() {
        let m = StaticModel::build(&schedule(OpClass::Bcast, 4));
        assert!(m.net_coupled(99));
        assert!(m.barrier_coupled(99));
    }
}
