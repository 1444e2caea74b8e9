//! Shared record-building for the differential harness: runs one suite
//! point under full instrumentation (trace + provenance + event log +
//! critical path + metrics) and assembles the canonical
//! [`obs::RunRecord`] that `obs::diff` and the `tracediff` binary
//! compare.

use crate::perfgate::SuitePoint;
use mpisim::exec::{ExecConfig, ExecOutcome, Observed, TieBreakPolicy};
use mpisim::{Machine, OpClass, Rank};
use obs::{MetricsRegistry, RunRecord};

/// One fully instrumented execution and the run record built from it.
pub struct RecordedPoint {
    /// The execution's outcome.
    pub out: ExecOutcome,
    /// Its instrumentation, provenance and event log included.
    pub observed: Observed,
    /// The canonical run record of `out` and `observed`.
    pub record: RunRecord,
}

/// Runs one point fully instrumented and builds its run record. Pure:
/// same inputs produce byte-identical serialized records. A non-default
/// `tie_break` applies the chosen same-instant perturbation
/// ([`TieBreakPolicy::InvertAll`] is the seeded eager-delivery failure
/// mode used for differential demonstrations) and marks it in the
/// record's `perturb` meta key.
pub fn record_point(
    machine: &Machine,
    op: OpClass,
    p: usize,
    m: u32,
    tie_break: TieBreakPolicy,
    trace_limit: Option<usize>,
) -> RecordedPoint {
    let bytes = if op == OpClass::Barrier { 0 } else { m };
    let comm = machine.communicator(p).expect("communicator size");
    let schedule = comm.schedule(op, Rank(0), bytes).expect("schedule build");
    let cfg = ExecConfig {
        wire: machine.wire_config(),
        placement: machine.placement(),
        record_trace: true,
        trace_limit,
        provenance: true,
        event_log: true,
        tie_break,
        ..ExecConfig::default()
    };
    let (out, observed) =
        mpisim::execute_observed(machine.spec(), &[&schedule], &cfg).expect("observed execution");
    let cp = mpisim::critpath::analyze(&out, &observed);
    let mut reg = MetricsRegistry::new();
    mpisim::observe::export_metrics(&out, &observed, &mut reg);
    cp.export_metrics(&mut reg);
    let mut rec =
        mpisim::record::run_record(machine.name(), &out, &observed, Some(&cp), Some(&reg));
    rec.meta.insert("op".into(), op.key().into());
    rec.meta.insert("p".into(), p.to_string());
    rec.meta.insert("m".into(), bytes.to_string());
    match tie_break {
        TieBreakPolicy::InsertionOrder => {}
        TieBreakPolicy::InvertAll => {
            rec.meta.insert("perturb".into(), "invert_ties".into());
        }
        TieBreakPolicy::InvertPair {
            at_ns,
            first_seq,
            second_seq,
        } => {
            rec.meta.insert(
                "perturb".into(),
                format!("invert_pair@{at_ns}ns:{first_seq}<->{second_seq}"),
            );
        }
    }
    RecordedPoint {
        out,
        observed,
        record: rec,
    }
}

/// [`record_point`] over a [`SuitePoint`].
pub fn record_suite_point(
    pt: &SuitePoint,
    tie_break: TieBreakPolicy,
    trace_limit: Option<usize>,
) -> RecordedPoint {
    record_point(
        &pt.machine,
        pt.op,
        pt.nodes,
        pt.bytes,
        tie_break,
        trace_limit,
    )
}

/// File-stem-safe form of a suite label, e.g. `sp2_alltoall`.
pub fn label_stem(label: &str) -> String {
    label.replace('/', "_")
}
