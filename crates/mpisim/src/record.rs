//! Assembles the canonical [`obs::RunRecord`] from an observed
//! execution — the bridge between the executor's artifacts and the
//! differential-observability layer (`obs::diff`, the `tracediff`
//! binary).
//!
//! Recording is opt-in end to end: the event stream comes from
//! [`RunOptions::event_log`](crate::comm::RunOptions), the parent edges
//! from [`RunOptions::provenance`](crate::comm::RunOptions), and the
//! transfer rows from `record_trace`; each is independently zero-cost
//! when off, and the record simply omits what was not collected.
//!
//! # Examples
//!
//! ```
//! use mpisim::{Machine, Rank};
//! use mpisim::comm::RunOptions;
//!
//! let comm = Machine::t3d().communicator(8)?;
//! let s = comm.schedule(mpisim::OpClass::Bcast, Rank(0), 1024)?;
//! let opts = RunOptions { record_trace: true, provenance: true, event_log: true,
//!                         ..RunOptions::default() };
//! let (out, obs) = comm.run_observed(&[&s], opts)?;
//! let rec = mpisim::record::run_record("t3d", &out, &obs, None, None);
//! assert!(!rec.events.is_empty());
//! assert_eq!(rec.meta["machine"], "t3d");
//! # Ok::<(), mpisim::SimMpiError>(())
//! ```

use std::borrow::Cow;

use crate::critpath::CritPath;
use crate::exec::{ExecOutcome, Observed};
use obs::critpath::Blame;
use obs::record::{RecEvent, RecSpan, RecTransfer};
use obs::{MetricsRegistry, RunRecord};

/// Builds a run record from an observed execution. `machine` seeds the
/// meta map (extend it via [`RunRecord::meta`] before serializing);
/// `cp` adds blame totals and the contention census; `reg` adds a flat
/// metrics snapshot. Event, transfer and span kinds borrow the
/// executor's static keys, so no row allocates a string.
pub fn run_record(
    machine: &str,
    out: &ExecOutcome,
    observed: &Observed,
    cp: Option<&CritPath>,
    reg: Option<&MetricsRegistry>,
) -> RunRecord {
    let mut rec = RunRecord {
        elapsed_ns: out.completed().as_nanos(),
        dropped_messages: out.dropped_messages,
        ..RunRecord::default()
    };
    rec.meta.insert("machine".into(), machine.into());
    rec.meta
        .insert("schema".into(), obs::record::SCHEMA_VERSION.to_string());
    if let Some(log) = &observed.event_log {
        rec.events.reserve(log.len());
        for ev in log.iter() {
            rec.events.push(RecEvent {
                seq: ev.seq,
                at_ns: ev.at.as_nanos(),
                kind: Cow::Borrowed(ev.kind.key()),
                a: ev.a,
                b: ev.b,
                parent: observed
                    .provenance
                    .as_ref()
                    .and_then(|p| p.parent_of(ev.seq)),
            });
        }
    }
    rec.transfers.reserve(out.trace.len());
    for t in &out.trace {
        rec.transfers.push(RecTransfer {
            src: t.src as u32,
            dst: t.dst as u32,
            bytes: t.bytes as u64,
            class: Cow::Borrowed(t.class.key()),
            posted_ns: t.posted.as_nanos(),
            wire_start_ns: t.wire_start.as_nanos(),
            delivered_ns: t.delivered.as_nanos(),
            inject_wait_ns: t.inject_wait.as_nanos(),
            link_wait_ns: t.link_wait.as_nanos(),
        });
    }
    rec.spans.reserve(observed.spans.len());
    for sp in &observed.spans {
        rec.spans.push(RecSpan {
            rank: sp.rank as u32,
            kind: Cow::Borrowed(sp.kind.label()),
            start_ns: sp.start.as_nanos(),
            end_ns: sp.end.as_nanos(),
            woke_by: sp.woke_by,
        });
    }
    rec.finish_ns = out
        .finish
        .iter()
        .map(|seg| seg.iter().map(|t| t.as_nanos()).collect())
        .collect();
    if let Some(cp) = cp {
        for b in Blame::ALL {
            let ns = cp.decomposition.get(b);
            if ns > 0 {
                rec.blame_ns.insert(b.key().into(), ns);
            }
        }
        rec.census = Some((cp.census.transfers, cp.census.uncontended));
    }
    if let Some(reg) = reg {
        for (name, metric) in reg.iter() {
            if let Some(v) = metric.as_f64() {
                rec.metrics.insert(name.into(), v);
            }
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RunOptions;
    use crate::machine::Machine;
    use collectives::Rank;
    use netmodel::OpClass;

    fn full_options() -> RunOptions {
        RunOptions {
            record_trace: true,
            provenance: true,
            event_log: true,
            ..RunOptions::default()
        }
    }

    fn recorded_run(machine: &Machine, op: OpClass, p: usize, bytes: u32) -> RunRecord {
        let comm = machine.communicator(p).expect("communicator");
        let s = comm.schedule(op, Rank(0), bytes).expect("schedule");
        let (out, obs) = comm
            .run_observed(&[&s], full_options())
            .expect("observed run");
        let cp = crate::critpath::analyze(&out, &obs);
        let mut reg = MetricsRegistry::new();
        crate::observe::export_metrics(&out, &obs, &mut reg);
        run_record(machine.name(), &out, &obs, Some(&cp), Some(&reg))
    }

    #[test]
    fn record_captures_every_artifact() {
        let rec = recorded_run(&Machine::t3d(), OpClass::Bcast, 16, 2048);
        assert!(!rec.events.is_empty());
        assert!(!rec.transfers.is_empty());
        assert!(!rec.spans.is_empty());
        assert_eq!(rec.finish_ns.len(), 1);
        assert_eq!(rec.finish_ns[0].len(), 16);
        assert_eq!(rec.dropped_messages, 0);
        let blame_total: u64 = rec.blame_ns.values().sum();
        assert_eq!(blame_total, rec.elapsed_ns, "critpath conservation");
        let (transfers, uncontended) = rec.census.expect("census present");
        assert_eq!(transfers, rec.transfers.len() as u64);
        assert!(uncontended <= transfers);
        assert!(rec.metrics.contains_key("exec.messages"));
        // Every non-root event of the provenance-enabled run has a
        // resolvable parent or is a start stimulus.
        assert!(rec.events.iter().any(|e| e.parent.is_some()));
    }

    #[test]
    fn record_round_trips_and_self_diffs_byte_identical() {
        let rec = recorded_run(&Machine::sp2(), OpClass::Reduce, 8, 1024);
        let text = rec.to_json_string();
        let back = RunRecord::from_json(&text).expect("parse");
        assert_eq!(back, rec);
        let report = obs::diff::diff(&rec, &back);
        assert_eq!(report.verdict, obs::Verdict::ByteIdentical);
        assert!(report.certified);
    }

    #[test]
    fn same_seed_reruns_are_byte_identical() {
        let a = recorded_run(&Machine::paragon(), OpClass::Alltoall, 8, 512);
        let b = recorded_run(&Machine::paragon(), OpClass::Alltoall, 8, 512);
        assert_eq!(a.to_json_string(), b.to_json_string());
    }

    #[test]
    fn inverted_ties_produce_an_explained_divergence() {
        let comm = Machine::t3d().communicator(16).expect("communicator");
        let s = comm
            .schedule(OpClass::Alltoall, Rank(0), 2048)
            .expect("schedule");
        let (out_a, obs_a) = comm
            .run_observed(&[&s], full_options())
            .expect("observed run");
        let inverted = RunOptions {
            tie_break: crate::exec::TieBreakPolicy::InvertAll,
            ..full_options()
        };
        let (out_b, obs_b) = comm.run_observed(&[&s], inverted).expect("perturbed run");
        let name = comm.machine().name();
        let a = run_record(name, &out_a, &obs_a, None, None);
        let b = run_record(name, &out_b, &obs_b, None, None);
        let report = obs::diff::diff(&a, &b);
        assert_eq!(report.verdict, obs::Verdict::Divergent);
        let first = report.first.expect("first divergence located");
        assert_eq!(first.component, "events");
        assert!(!first.context.is_empty(), "causal context window present");
        assert!(!first.ranks.is_empty(), "ranks identified");
        assert_ne!(first.expected, first.got);
    }

    #[test]
    fn recording_off_yields_empty_streams() {
        let comm = Machine::t3d().communicator(8).expect("communicator");
        let s = comm
            .schedule(OpClass::Bcast, Rank(0), 1024)
            .expect("schedule");
        let (out, obs) = comm
            .run_observed(&[&s], RunOptions::default())
            .expect("observed run");
        let rec = run_record("t3d", &out, &obs, None, None);
        assert!(rec.events.is_empty());
        assert!(rec.blame_ns.is_empty());
        assert!(rec.census.is_none());
        assert!(rec.elapsed_ns > 0);
    }
}
