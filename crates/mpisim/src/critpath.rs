//! Builds the [`obs::critpath`] causal graph from an observed execution
//! and runs the backward walk.
//!
//! The executor already records everything the walker needs: attributed
//! [`PhaseSpan`]s with causal wake edges (`woke_by`), and a
//! [`MessageTrace`] per message carrying the wire-model's measured FIFO
//! and link-contention waits. [`analyze`] translates those into the
//! walker's plain-data vocabulary, walks backward from the completion
//! instant, and returns the blame decomposition plus the contention
//! census — the per-run answer to "where did the time go, and how much
//! of the traffic was provably contention-free".
//!
//! # Examples
//!
//! ```
//! use mpisim::{Machine, Rank, RunOptions};
//!
//! let comm = Machine::t3d().communicator(16)?;
//! let s = comm.schedule(mpisim::OpClass::Bcast, Rank(0), 4096)?;
//! let (out, obs) = comm.run_observed(&[&s], RunOptions::default())?;
//! let cp = mpisim::critpath::analyze(&out, &obs);
//! // The decomposition tiles end-to-end elapsed time exactly.
//! assert_eq!(cp.decomposition.total_ns(), cp.decomposition.elapsed_ns());
//! # Ok::<(), mpisim::SimMpiError>(())
//! ```

use crate::exec::{ExecOutcome, MessageTrace, Observed, PhaseKind, PhaseSpan};
use obs::critpath::{walk, Blame, Cause, Census, Decomposition, Span, Transfer};
use obs::MetricsRegistry;
use std::collections::HashMap;

/// The critical-path analysis of one observed run.
#[derive(Debug, Clone, PartialEq)]
pub struct CritPath {
    /// The blame decomposition of end-to-end elapsed time.
    pub decomposition: Decomposition,
    /// The contention census over remote transfers.
    pub census: Census,
    /// The rank whose completion defines the end-to-end time (first such
    /// rank when several tie).
    pub end_rank: usize,
    /// Causal chain depth from the engine's provenance log, when the run
    /// recorded one ([`crate::RunOptions::provenance`]).
    pub chain_depth: Option<usize>,
}

impl CritPath {
    /// Exports the decomposition, census, and path endpoints under
    /// `critpath.*`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.decomposition.export_metrics(reg);
        self.census.export_metrics(reg);
        reg.gauge("critpath.end_rank", self.end_rank as f64);
        reg.gauge(
            "critpath.segments",
            self.decomposition.segments.len() as f64,
        );
        if let Some(depth) = self.chain_depth {
            reg.counter("critpath.chain_depth", depth as u64);
        }
    }
}

/// Maps a CPU-busy executor phase to its blame category.
fn busy_blame(kind: PhaseKind) -> Blame {
    match kind {
        PhaseKind::Entry => Blame::Entry,
        PhaseKind::SendOverhead => Blame::SendSw,
        PhaseKind::Copy => Blame::Copy,
        PhaseKind::RecvOverhead => Blame::RecvSw,
        PhaseKind::Compute => Blame::Compute,
        // Blocked kinds are translated through their causal edges, not
        // this table.
        PhaseKind::RecvWait | PhaseKind::BarrierWait => Blame::Idle,
    }
}

/// Translates the observed run into walker spans and transfers.
///
/// Every traced message becomes a [`Transfer`] (indices aligned with
/// `out.trace`). A blocked `RecvWait` span whose waker sent a message
/// delivered exactly at the span's end gets a [`Cause::Message`] edge;
/// a `BarrierWait` span gets a [`Cause::Barrier`] edge to its trigger.
/// Unmatched blocked spans (truncated trace) degrade to unattributed
/// local idle time rather than failing.
fn build_graph(out: &ExecOutcome, observed: &Observed) -> (Vec<Span>, Vec<Transfer>) {
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
    // (src, dst) -> [(delivered_ns, trace index)], delivery-sorted, for
    // matching a recv wait's end instant to the message that caused it.
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
    let match_message = |span: &PhaseSpan, src: usize| -> Option<u32> {
        let list = arrivals.get(&(src, span.rank))?;
        let end = span.end.as_nanos();
        let pos = list.partition_point(|&(d, _)| d < end);
        (pos < list.len() && list[pos].0 == end).then(|| list[pos].1)
    };

    let spans = observed
        .spans
        .iter()
        .map(|sp| {
            let (blame, cause) = match (sp.kind, sp.woke_by) {
                (PhaseKind::RecvWait, Some(src)) => match match_message(sp, src as usize) {
                    Some(msg) => (Blame::Idle, Cause::Message { msg }),
                    None => (Blame::Idle, Cause::Local),
                },
                (PhaseKind::BarrierWait, Some(trigger)) => {
                    (Blame::BarrierSync, Cause::Barrier { track: trigger })
                }
                (PhaseKind::RecvWait | PhaseKind::BarrierWait, None) => (Blame::Idle, Cause::Local),
                (kind, _) => (busy_blame(kind), Cause::Local),
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

/// Reconstructs the critical path of an observed run and decomposes its
/// end-to-end elapsed time into blame categories, plus the contention
/// census over its remote transfers.
///
/// The walk runs from the completion instant of the last-finishing rank
/// back to the earliest rank start. Requires an [`Observed`] from
/// [`crate::Communicator::run_observed`] (which implies message
/// tracing); a trace truncated by the cap degrades the affected stretches
/// to [`Blame::Idle`] instead of failing.
pub fn analyze(out: &ExecOutcome, observed: &Observed) -> CritPath {
    let end = out.completed();
    let last_seg = out.finish.last().expect("at least one segment");
    let end_rank = last_seg
        .iter()
        .position(|&f| f == end)
        .expect("some rank finishes last");
    let start_ns = out.start.iter().map(|t| t.as_nanos()).min().unwrap_or(0);
    let (spans, transfers) = build_graph(out, observed);
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
    CritPath {
        decomposition,
        census: Census::of(&remote),
        end_rank,
        chain_depth: observed.provenance.as_ref().map(|p| p.chain_depth()),
    }
}

/// Convenience predicate for tests and tooling: true when `m` is a
/// remote transfer counted by the census.
pub fn is_remote(m: &MessageTrace) -> bool {
    m.src != m.dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RunOptions;
    use crate::machine::Machine;
    use collectives::Rank;
    use desim::SimTime;
    use netmodel::OpClass;

    fn analyzed(machine: &Machine, class: OpClass, p: usize, m: u32) -> CritPath {
        let comm = machine.communicator(p).expect("communicator");
        let s = comm.schedule(class, Rank(0), m).expect("schedule");
        let (out, obs) = comm
            .run_observed(&[&s], RunOptions::default())
            .expect("observed run");
        analyze(&out, &obs)
    }

    #[test]
    fn decomposition_conserves_elapsed_time() {
        for machine in Machine::all() {
            for class in [OpClass::Bcast, OpClass::Scan, OpClass::Alltoall] {
                let cp = analyzed(&machine, class, 16, 4096);
                assert_eq!(
                    cp.decomposition.total_ns(),
                    cp.decomposition.elapsed_ns(),
                    "{} {}",
                    machine.name(),
                    class.key()
                );
            }
        }
    }

    #[test]
    fn bcast_path_is_wire_and_software_not_idle() {
        let cp = analyzed(&Machine::t3d(), OpClass::Bcast, 16, 4096);
        assert!(cp.decomposition.get(Blame::Wire) > 0, "wire time on path");
        assert!(cp.decomposition.get(Blame::RecvSw) > 0, "recv sw on path");
        // A clean single-collective run attributes everything.
        assert_eq!(cp.decomposition.get(Blame::Idle), 0, "{cp:?}");
    }

    #[test]
    fn census_sees_contention_in_alltoall() {
        let cp = analyzed(&Machine::paragon(), OpClass::Alltoall, 16, 4096);
        assert!(cp.census.transfers > 0);
        assert!(
            cp.census.uncontended < cp.census.transfers,
            "a 16-node total exchange must contend somewhere"
        );
        // Fraction is consistent with the counts.
        let f = cp.census.fraction();
        assert!((0.0..=1.0).contains(&f));
    }

    #[test]
    fn barrier_skew_lands_on_barrier_sync_or_trigger() {
        // Hardware barrier with skewed starts: the path runs through the
        // last arrival; no stretch may be unattributed.
        let comm = Machine::t3d().communicator(8).expect("communicator");
        let s = comm
            .schedule(OpClass::Barrier, Rank(0), 0)
            .expect("schedule");
        let skew: Vec<SimTime> = (0..8).map(|i| SimTime::from_micros(i as u64)).collect();
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
        assert_eq!(cp.decomposition.total_ns(), cp.decomposition.elapsed_ns());
        assert!(cp.decomposition.get(Blame::BarrierSync) > 0, "{cp:?}");
    }

    #[test]
    fn truncated_trace_degrades_to_idle_not_panic() {
        let comm = Machine::sp2().communicator(8).expect("communicator");
        let s = comm
            .schedule(OpClass::Alltoall, Rank(0), 1024)
            .expect("schedule");
        let (out, obs) = comm
            .run_observed(
                &[&s],
                RunOptions {
                    trace_limit: Some(3),
                    ..RunOptions::default()
                },
            )
            .expect("observed run");
        assert!(out.dropped_messages > 0, "cap must bite");
        let cp = analyze(&out, &obs);
        assert_eq!(
            cp.decomposition.total_ns(),
            cp.decomposition.elapsed_ns(),
            "conservation holds even when messages were dropped"
        );
    }

    #[test]
    fn chain_depth_present_only_with_provenance() {
        let comm = Machine::t3d().communicator(8).expect("communicator");
        let s = comm
            .schedule(OpClass::Bcast, Rank(0), 1024)
            .expect("schedule");
        let (out, obs) = comm
            .run_observed(&[&s], RunOptions::default())
            .expect("observed");
        assert!(analyze(&out, &obs).chain_depth.is_none());
        let (out, obs) = comm
            .run_observed(
                &[&s],
                RunOptions {
                    provenance: true,
                    ..RunOptions::default()
                },
            )
            .expect("observed");
        let depth = analyze(&out, &obs).chain_depth.expect("provenance on");
        assert!(depth > 2, "bcast chains span the tree: {depth}");
    }

    #[test]
    fn export_writes_critpath_metrics() {
        let cp = analyzed(&Machine::sp2(), OpClass::Scan, 8, 1024);
        let mut reg = MetricsRegistry::new();
        cp.export_metrics(&mut reg);
        assert!(reg.get("critpath.total_ns").is_some());
        assert!(reg.get("critpath.census.transfers").is_some());
        assert!(reg.get("critpath.end_rank").is_some());
    }
}
