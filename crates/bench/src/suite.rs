//! The fixed 21-point suite and its one instrumented run.
//!
//! Every collective on every machine at one representative `(m, p)`
//! point. [`record_point`] executes a point once with trace,
//! provenance, event log, critical path and metrics, and builds the
//! canonical [`obs::RunRecord`] from that execution. `observe --suite`
//! renders every suite artifact from it — traces, metrics snapshots,
//! run records, and the critical-path decomposition and contention
//! census below — and `tracediff --suite` diffs the records of two such
//! executions. `perfgate` times the same points, and `ordercheck`
//! explores them with its own executions. The renderers here are pure
//! functions of the recorded points; files are written only by the
//! binaries.

use mpisim::critpath::CritPath;
use mpisim::exec::{ExecConfig, ExecOutcome, Observed, TieBreakPolicy};
use mpisim::{Machine, OpClass, Rank};
use obs::critpath::Blame;
use obs::{Json, MetricsRegistry, RunRecord};
use report::Table;

/// The representative message length of the fixed suite (bytes): large
/// enough that transmission matters, small enough that startup still
/// shows — the knee of the paper's Fig. 2 curves.
pub const SUITE_BYTES: u32 = 4096;

/// The representative machine size of the fixed suite.
pub const SUITE_NODES: usize = 64;

/// One point: a collective on a machine at a fixed `(m, p)`.
#[derive(Debug, Clone)]
pub struct SuitePoint {
    /// The machine model to run on.
    pub machine: Machine,
    /// The collective.
    pub op: OpClass,
    /// Message length (0 for barrier).
    pub bytes: u32,
    /// Partition size.
    pub nodes: usize,
}

impl SuitePoint {
    /// `op` on `machine` at `nodes` ranks and `m` bytes. A barrier
    /// carries no payload, so its length is 0 whatever `m` says.
    pub fn new(machine: Machine, op: OpClass, nodes: usize, m: u32) -> Self {
        let bytes = if op == OpClass::Barrier { 0 } else { m };
        SuitePoint {
            machine,
            op,
            bytes,
            nodes,
        }
    }

    /// Stable identifier, e.g. `sp2/alltoall`.
    pub fn label(&self) -> String {
        let mach = crate::machine_id(self.machine.name())
            .map(|id| id.name().to_ascii_lowercase())
            .unwrap_or_else(|| self.machine.name().to_ascii_lowercase());
        format!("{}/{}", mach, self.op.key())
    }

    /// Stable file stem of one tool's output for this point, e.g.
    /// `observe_ibm_sp2_alltoall_p64_m4096`.
    pub fn stem(&self, tool: &str) -> String {
        format!(
            "{tool}_{}_{}_p{}_m{}",
            self.machine.name().to_ascii_lowercase().replace(' ', "_"),
            self.op.key(),
            self.nodes,
            self.bytes
        )
    }
}

/// The suite's seven collectives in suite order: the six of the paper's
/// figures, then barrier.
pub fn ops() -> impl Iterator<Item = OpClass> {
    crate::SIX_OPS.into_iter().chain([OpClass::Barrier])
}

/// The fixed suite: all seven collectives on all three machines at the
/// representative point.
pub fn default_suite() -> Vec<SuitePoint> {
    crate::machines()
        .into_iter()
        .flat_map(|machine| {
            ops().map(move |op| SuitePoint::new(machine.clone(), op, SUITE_NODES, SUITE_BYTES))
        })
        .collect()
}

/// One fully instrumented execution and everything derived from it.
pub struct RecordedPoint {
    /// The execution's outcome.
    pub out: ExecOutcome,
    /// Its instrumentation, provenance and event log included.
    pub observed: Observed,
    /// The causal critical path of the execution.
    pub cp: CritPath,
    /// The execution's metrics, critical-path metrics included.
    pub reg: MetricsRegistry,
    /// The canonical run record of all of the above.
    pub record: RunRecord,
}

/// Runs one point fully instrumented, walks its critical path and
/// builds its run record. Pure: same inputs produce byte-identical
/// serialized records. A non-default `tie_break` applies the chosen
/// same-instant perturbation ([`TieBreakPolicy::InvertAll`] is the
/// seeded eager-delivery failure mode used for differential
/// demonstrations) and marks it in the record's `perturb` meta key.
pub fn record_point(
    pt: &SuitePoint,
    tie_break: TieBreakPolicy,
    trace_limit: Option<usize>,
) -> RecordedPoint {
    let machine = &pt.machine;
    let comm = machine.communicator(pt.nodes).expect("communicator size");
    let schedule = comm
        .schedule(pt.op, Rank(0), pt.bytes)
        .expect("schedule build");
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
    let mut record =
        mpisim::record::run_record(machine.name(), &out, &observed, Some(&cp), Some(&reg));
    record.meta.insert("op".into(), pt.op.key().into());
    record.meta.insert("p".into(), pt.nodes.to_string());
    record.meta.insert("m".into(), pt.bytes.to_string());
    match tie_break {
        TieBreakPolicy::InsertionOrder => {}
        TieBreakPolicy::InvertAll => {
            record.meta.insert("perturb".into(), "invert_ties".into());
        }
        TieBreakPolicy::InvertPair {
            at_ns,
            first_seq,
            second_seq,
        } => {
            record.meta.insert(
                "perturb".into(),
                format!("invert_pair@{at_ns}ns:{first_seq}<->{second_seq}"),
            );
        }
    }
    RecordedPoint {
        out,
        observed,
        cp,
        reg,
        record,
    }
}

/// The decomposition as a JSON document: absolute nanoseconds per
/// category (zeros included, so the schema is stable across points).
pub fn decomposition_json(pt: &SuitePoint, cp: &CritPath) -> Json {
    let d = &cp.decomposition;
    let blame = Blame::ALL.iter().map(|&b| (b.key(), Json::UInt(d.get(b))));
    let depth = cp.chain_depth.unwrap_or(0) as u64;
    Json::object([
        ("machine", Json::str(pt.machine.name())),
        ("op", Json::str(pt.op.key())),
        ("p", Json::UInt(pt.nodes as u64)),
        ("m_bytes", Json::UInt(u64::from(pt.bytes))),
        ("elapsed_ns", Json::UInt(d.elapsed_ns())),
        ("end_rank", Json::UInt(cp.end_rank as u64)),
        ("chain_depth", Json::UInt(depth)),
        ("segments", Json::UInt(d.segments.len() as u64)),
        ("blame_ns", Json::object(blame)),
        (
            "census",
            Json::object([
                ("transfers", Json::UInt(cp.census.transfers)),
                ("uncontended", Json::UInt(cp.census.uncontended)),
                ("fraction", Json::Float(cp.census.fraction())),
            ]),
        ),
    ])
}

/// Per-category percentage cell, e.g. `41.3`.
pub fn blame_pct(cp: &CritPath, b: Blame) -> String {
    format!("{:5.1}", 100.0 * cp.decomposition.fraction(b))
}

/// One row per suite point: elapsed time, the percentage of it blamed
/// on each category, and the point's wait-free transfer percentage.
pub fn blame_table(rows: &[(&SuitePoint, &CritPath)]) -> Table {
    let mut t = Table::new(
        ["machine", "op", "us"]
            .into_iter()
            .map(str::to_string)
            .chain(Blame::ALL.iter().map(|b| format!("{}%", b.key())))
            .chain(["census%".to_string()]),
    );
    for (pt, cp) in rows {
        t.push_row(
            [
                pt.machine.name().to_string(),
                pt.op.key().to_string(),
                format!("{:.1}", cp.decomposition.elapsed_ns() as f64 / 1_000.0),
            ]
            .into_iter()
            .chain(Blame::ALL.iter().map(|&b| blame_pct(cp, b)))
            .chain([format!("{:5.1}", 100.0 * cp.census.fraction())]),
        );
    }
    t
}

/// The headline anomaly the decomposition explains: scan vs bcast on
/// each machine at the suite point, with the categories that differ.
pub fn scan_vs_bcast(rows: &[(&SuitePoint, &CritPath)]) -> String {
    let mut out = String::from("scan vs bcast at the suite point (m=4096, p=64):\n");
    for machine in ["IBM SP2", "Cray T3D", "Intel Paragon"] {
        let find = |op: OpClass| {
            rows.iter()
                .find(|(pt, _)| pt.machine.name() == machine && pt.op == op)
                .map(|&(_, cp)| cp)
        };
        let (Some(scan), Some(bcast)) = (find(OpClass::Scan), find(OpClass::Bcast)) else {
            continue;
        };
        let s_us = scan.decomposition.elapsed_ns() as f64 / 1_000.0;
        let b_us = bcast.decomposition.elapsed_ns() as f64 / 1_000.0;
        let recv = |cp: &CritPath| cp.decomposition.get(Blame::RecvSw) as f64 / 1_000.0;
        let sends = |cp: &CritPath| {
            (cp.decomposition.get(Blame::SendSw) + cp.decomposition.get(Blame::Copy)) as f64
                / 1_000.0
        };
        out.push_str(&format!(
            "  {machine:<13} scan {s_us:8.1} us = {:.2}x bcast {b_us:8.1} us  \
             (path recv_sw {:.1} vs {:.1} us, send+copy {:.1} vs {:.1} us, \
             {} vs {} path segments)\n",
            s_us / b_us,
            recv(scan),
            recv(bcast),
            sends(scan),
            sends(bcast),
            scan.decomposition.segments.len(),
            bcast.decomposition.segments.len(),
        ));
    }
    out
}

/// The contention census as gauges, one set per machine × op: the
/// fraction of transfers that never waited for a busy injection engine
/// or link (`critpath.census.<machine>.<op>.{transfers,uncontended,frac}`).
pub fn census_metrics(rows: &[(&SuitePoint, &CritPath)]) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for (pt, cp) in rows {
        let base = format!("critpath.census.{}", pt.label().replace('/', "."));
        reg.gauge(format!("{base}.transfers"), cp.census.transfers as f64);
        reg.gauge(format!("{base}.uncontended"), cp.census.uncontended as f64);
        reg.gauge(format!("{base}.frac"), cp.census.fraction());
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_suite_covers_all_pairs() {
        let suite = default_suite();
        assert_eq!(suite.len(), 21, "7 collectives x 3 machines");
        let labels: std::collections::HashSet<String> =
            suite.iter().map(SuitePoint::label).collect();
        assert_eq!(labels.len(), 21, "labels unique");
        assert!(labels.contains("sp2/alltoall"));
        assert!(labels.contains("t3d/barrier"));
        for pt in &suite {
            if pt.op == OpClass::Barrier {
                assert_eq!(pt.bytes, 0);
            } else {
                assert_eq!(pt.bytes, SUITE_BYTES);
            }
        }
    }
}
