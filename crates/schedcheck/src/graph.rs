//! Happens-before graph over a schedule's resolved messages.
//!
//! Events are the individual [`Step`]s of a schedule, numbered flat as
//! [`Schedule::resolve`] numbers them: rank `r`'s step `i` is step
//! `step_base[r] + i`. Three edge families make up the happens-before
//! relation of the executor's semantics:
//!
//! 1. **Program order** — each rank's steps are totally ordered.
//! 2. **Message edges** — each `Send` happens-before the `Recv` that
//!    [`Schedule::resolve`] matches to its slot (the `k`-th send on a
//!    channel matches the `k`-th receive), the same match
//!    [`Schedule::check`] runs on.
//! 3. **Barrier rounds** — the `k`-th [`Step::HwBarrier`] of every rank
//!    forms one synchronization round: no rank leaves the round until
//!    every rank has entered it, so each entry happens-before every other
//!    rank's first post-round step.
//!
//! Program-order and message edges are not stored: a search derives a
//! step's successors from its rank and its slot. The graph is built only
//! for a schedule that passes [`Schedule::check`], so it is a DAG and
//! every slot has its receive.

use collectives::{Checked, Rank, Schedule, ScheduleError, Slots, Step};

/// The happens-before DAG of a schedule.
#[derive(Debug)]
pub(crate) struct HbGraph<'s> {
    s: &'s Schedule,
    slots: Slots,
    /// The message depth [`Schedule::check`] found.
    depth: usize,
    /// Slot `k`'s `(send, recv)` step ids.
    ends: Vec<(u32, u32)>,
    /// `rounds[k]` holds the (step, rank) of each rank's k-th barrier,
    /// in step order.
    rounds: Vec<Vec<(usize, usize)>>,
}

impl<'s> HbGraph<'s> {
    /// Builds the graph on the resolved slots that [`Schedule::check`]
    /// hands back.
    ///
    /// # Errors
    ///
    /// Returns the [`ScheduleError`] of [`Schedule::check`].
    pub(crate) fn build(s: &'s Schedule) -> Result<Self, ScheduleError> {
        let Checked { slots, depth } = s.check()?;
        let mut ends = vec![(0, 0); slots.slot_bytes().len()];
        let mut rounds: Vec<Vec<(usize, usize)>> = Vec::new();
        for (r, prog) in s.iter() {
            let base = slots.step_base()[r.0];
            let mut entered = 0usize;
            for (i, step) in prog.iter().enumerate() {
                let id = base + i;
                let slot = slots.step_slot()[id] as usize;
                match step {
                    Step::Send { .. } => ends[slot].0 = id as u32,
                    Step::Recv { .. } => ends[slot].1 = id as u32,
                    Step::HwBarrier => {
                        if rounds.len() <= entered {
                            rounds.resize(entered + 1, Vec::new());
                        }
                        rounds[entered].push((id, r.0));
                        entered += 1;
                    }
                    Step::Compute { .. } => {}
                }
            }
        }
        Ok(HbGraph {
            s,
            slots,
            depth,
            ends,
            rounds,
        })
    }

    /// The schedule's message depth ([`Schedule::message_depth`]).
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// The resolved slots the graph is built on.
    pub(crate) fn slots(&self) -> &Slots {
        &self.slots
    }

    /// Slot `k`'s `(send, recv)` step ids.
    pub(crate) fn ends(&self, k: usize) -> (usize, usize) {
        let (send, recv) = self.ends[k];
        (send as usize, recv as usize)
    }

    /// The rank whose program holds step `id`.
    pub(crate) fn rank_of(&self, id: usize) -> usize {
        self.slots.step_base().partition_point(|&b| b <= id) - 1
    }

    /// Every step that `from` happens-before, `from` included, marked by
    /// step id.
    pub(crate) fn descendants(&self, from: usize) -> Vec<bool> {
        let base = self.slots.step_base();
        let mut seen = vec![false; self.slots.step_slot().len()];
        seen[from] = true;
        // Each entry carries its step's rank.
        let mut stack = vec![(from, self.rank_of(from))];
        while let Some((e, r)) = stack.pop() {
            let mut visit = |n: usize, rank: usize| {
                if !seen[n] {
                    seen[n] = true;
                    stack.push((n, rank));
                }
            };
            if e + 1 < base[r + 1] {
                visit(e + 1, r);
            }
            match self.s.program(Rank(r))[e - base[r]] {
                Step::Send { to, .. } => {
                    visit(self.ends(self.slots.step_slot()[e] as usize).1, to.0);
                }
                Step::HwBarrier => {
                    let round = self
                        .rounds
                        .iter()
                        .find(|k| k.binary_search(&(e, r)).is_ok());
                    for &(f, fr) in round.into_iter().flatten() {
                        if f + 1 < base[fr + 1] {
                            visit(f + 1, fr);
                        }
                    }
                }
                Step::Recv { .. } | Step::Compute { .. } => {}
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::OpClass;

    impl HbGraph<'_> {
        /// Whether `from` happens-before (or is) `to`.
        pub(crate) fn reaches(&self, from: usize, to: usize) -> bool {
            self.descendants(from)[to]
        }

        /// The step id of `rank`'s step `i`.
        fn event(&self, rank: Rank, i: usize) -> usize {
            self.slots.step_base()[rank.0] + i
        }
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

    #[test]
    fn message_edge_orders_send_before_recv() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(1), recv(0, 8));
        let g = HbGraph::build(&s).unwrap();
        assert!(g.reaches(g.event(Rank(0), 0), g.event(Rank(1), 0)));
        assert!(!g.reaches(g.event(Rank(1), 0), g.event(Rank(0), 0)));
    }

    #[test]
    fn program_order_is_transitive() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(0), send(1, 8));
        s.push(Rank(0), send(1, 8));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), recv(0, 8));
        let g = HbGraph::build(&s).unwrap();
        assert!(g.reaches(g.event(Rank(0), 0), g.event(Rank(1), 2)));
    }

    #[test]
    fn concurrent_events_unordered() {
        // Two independent sends into rank 2: neither orders the other.
        let mut s = Schedule::new(OpClass::PointToPoint, 3);
        s.push(Rank(0), send(2, 8));
        s.push(Rank(1), send(2, 8));
        s.push(Rank(2), recv(0, 8));
        s.push(Rank(2), recv(1, 8));
        let g = HbGraph::build(&s).unwrap();
        assert!(!g.reaches(g.event(Rank(0), 0), g.event(Rank(1), 0)));
        assert!(!g.reaches(g.event(Rank(1), 0), g.event(Rank(0), 0)));
    }

    #[test]
    fn barrier_round_synchronizes_all_ranks() {
        let mut s = Schedule::new(OpClass::Barrier, 3);
        for r in 0..3 {
            s.push(Rank(r), Step::HwBarrier);
            s.push(Rank(r), Step::Compute { bytes: 4 });
        }
        let g = HbGraph::build(&s).unwrap();
        // Rank 0's barrier entry orders every rank's post-barrier step.
        for r in 0..3 {
            assert!(
                g.reaches(g.event(Rank(0), 0), g.event(Rank(r), 1)),
                "barrier entry must precede rank {r}'s exit"
            );
        }
        // But entries themselves stay concurrent.
        assert!(!g.reaches(g.event(Rank(0), 0), g.event(Rank(1), 0)));
    }

    #[test]
    fn kth_send_edges_to_the_kth_recv() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(0), send(1, 16));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), recv(0, 16));
        let g = HbGraph::build(&s).unwrap();
        let (sends, recvs) = (g.event(Rank(0), 0), g.event(Rank(1), 0));
        assert_eq!(g.ends(0), (sends, recvs));
        assert_eq!(g.ends(1), (sends + 1, recvs + 1));
        assert_eq!(g.slots().slot_bytes(), [8, 16]);
        // The second send does not precede the first receive.
        assert!(!g.reaches(sends + 1, recvs));
        assert!(g.reaches(sends, recvs));
    }
}
