//! Structural run comparison: verdicts, first-divergence explanation,
//! and noise-aware delta tables.
//!
//! [`diff`] aligns two [`RunRecord`]s and reports
//!
//! * a verdict — [`Verdict::ByteIdentical`] (canonical serializations
//!   are equal), [`Verdict::SemanticallyIdentical`] (the executions are
//!   equal; only meta / host-side metrics differ), or
//!   [`Verdict::Divergent`];
//! * on divergence, the **first divergent event** in firing order with
//!   a causal context window: the last N ancestor events reached by
//!   walking the provenance parent edges backward through the common
//!   prefix (guaranteed identical in both runs), plus the ranks they
//!   touch and an expected-vs-got rendering;
//! * for intentionally-different runs, per-category blame deltas (which
//!   sum to the elapsed-time delta whenever each side's blame totals
//!   conserve — the critpath invariant) and metric deltas flagged for
//!   significance against a fixed 10% relative-change floor
//!   ([`METRIC_THRESHOLD`]).
//!
//! Identity verdicts are additionally *certified* only when neither
//! side dropped traced messages: a truncated trace can hide a
//! divergence, so the comparator refuses to vouch for it.

use std::collections::HashMap;

use crate::record::{describe_event, event_ranks, RecEvent, RunRecord};

/// Ancestor events included in a divergence context window.
pub const DEFAULT_CONTEXT: usize = 8;

/// Relative-change floor below which a metric delta is noise and is
/// not flagged as significant.
pub const METRIC_THRESHOLD: f64 = 0.10;

/// The comparison verdict, ordered from strongest to weakest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Canonical serializations are byte-equal.
    ByteIdentical,
    /// The executions are identical (events, transfers, spans, finish,
    /// elapsed); only meta / host-side metrics differ.
    SemanticallyIdentical,
    /// The executions differ.
    Divergent,
}

impl Verdict {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::ByteIdentical => "byte-identical",
            Verdict::SemanticallyIdentical => "semantically-identical",
            Verdict::Divergent => "DIVERGENT",
        }
    }

    /// True for either identity verdict.
    pub fn identical(&self) -> bool {
        !matches!(self, Verdict::Divergent)
    }
}

/// The first point where the two runs disagree.
#[derive(Debug, Clone, Default)]
pub struct Divergence {
    /// Which artifact diverged first: `events`, `transfers`, `spans`,
    /// `finish`, `elapsed`, or `dropped`.
    pub component: String,
    /// Index of the first differing entry within that artifact.
    pub index: usize,
    /// Run A's entry at that index, rendered; `"<absent>"` if A ended.
    pub expected: String,
    /// Run B's entry at that index, rendered; `"<absent>"` if B ended.
    pub got: String,
    /// The divergent event from run A, when the component is `events`.
    pub event: Option<RecEvent>,
    /// Causal context: ancestor events of the divergence point, newest
    /// first, from the common prefix (identical in both runs).
    pub context: Vec<RecEvent>,
    /// Ranks touched by the divergent event and its context window.
    pub ranks: Vec<u32>,
}

/// One per-category blame delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlameDelta {
    /// Category key.
    pub category: String,
    /// Run A nanoseconds.
    pub a_ns: u64,
    /// Run B nanoseconds.
    pub b_ns: u64,
}

impl BlameDelta {
    /// Signed change, B minus A.
    pub fn delta_ns(&self) -> i64 {
        self.b_ns as i64 - self.a_ns as i64
    }
}

/// One metric delta with its significance flag.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Run A value.
    pub a: f64,
    /// Run B value.
    pub b: f64,
    /// Relative change `|b-a| / max(|a|, ε)`.
    pub rel: f64,
    /// True when the change clears the noise floor.
    pub significant: bool,
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The verdict.
    pub verdict: Verdict,
    /// True when an identity verdict is trustworthy: neither side
    /// dropped traced messages. Always false alongside an untruncated
    /// explanation when drops occurred.
    pub certified: bool,
    /// Why certification was refused, when it was.
    pub uncertified_reason: Option<String>,
    /// First divergence, present iff the verdict is `Divergent`.
    pub first: Option<Divergence>,
    /// Per-category blame deltas (union of both sides' categories).
    pub blame: Vec<BlameDelta>,
    /// Run A elapsed nanoseconds.
    pub elapsed_a_ns: u64,
    /// Run B elapsed nanoseconds.
    pub elapsed_b_ns: u64,
    /// Metric deltas over the union of both snapshots, sorted by name.
    pub metrics: Vec<MetricDelta>,
}

impl DiffReport {
    /// Signed elapsed-time change, B minus A, nanoseconds.
    pub fn elapsed_delta_ns(&self) -> i64 {
        self.elapsed_b_ns as i64 - self.elapsed_a_ns as i64
    }

    /// Sum of the per-category blame deltas. Equals
    /// [`DiffReport::elapsed_delta_ns`] whenever both records carry
    /// conserving blame totals — the conservation check differential
    /// tests assert.
    pub fn blame_delta_sum_ns(&self) -> i64 {
        self.blame.iter().map(BlameDelta::delta_ns).sum()
    }

    /// The metric deltas that cleared the noise floor.
    pub fn significant_metrics(&self) -> impl Iterator<Item = &MetricDelta> {
        self.metrics.iter().filter(|m| m.significant)
    }
}

/// Compares two runs with the default context window and noise floor.
pub fn diff(a: &RunRecord, b: &RunRecord) -> DiffReport {
    diff_with(a, b, DEFAULT_CONTEXT, METRIC_THRESHOLD)
}

/// Compares two runs; `context` bounds the ancestor window and
/// `metric_threshold` sets the relative-change significance floor.
pub fn diff_with(
    a: &RunRecord,
    b: &RunRecord,
    context: usize,
    metric_threshold: f64,
) -> DiffReport {
    let verdict = if a.to_json_string() == b.to_json_string() {
        Verdict::ByteIdentical
    } else if a.same_execution(b) {
        Verdict::SemanticallyIdentical
    } else {
        Verdict::Divergent
    };
    let first = (verdict == Verdict::Divergent).then(|| first_divergence(a, b, context));
    let (certified, uncertified_reason) = certification(a, b, verdict);
    DiffReport {
        verdict,
        certified,
        uncertified_reason,
        first,
        blame: blame_deltas(a, b),
        elapsed_a_ns: a.elapsed_ns,
        elapsed_b_ns: b.elapsed_ns,
        metrics: metric_deltas(a, b, metric_threshold),
    }
}

fn certification(a: &RunRecord, b: &RunRecord, verdict: Verdict) -> (bool, Option<String>) {
    if !verdict.identical() {
        return (false, None);
    }
    let mut dropped = Vec::new();
    if a.dropped_messages > 0 {
        dropped.push(format!(
            "run A dropped {} traced messages",
            a.dropped_messages
        ));
    }
    if b.dropped_messages > 0 {
        dropped.push(format!(
            "run B dropped {} traced messages",
            b.dropped_messages
        ));
    }
    if dropped.is_empty() {
        (true, None)
    } else {
        (
            false,
            Some(format!(
                "{} — a truncated trace can hide a divergence; raise --trace-cap",
                dropped.join("; ")
            )),
        )
    }
}

/// Locates the first differing entry, preferring the event stream (the
/// finest-grained artifact), then transfers, spans, the finish matrix,
/// and finally the scalar summaries.
fn first_divergence(a: &RunRecord, b: &RunRecord, context: usize) -> Divergence {
    if let Some(i) = first_mismatch(&a.events, &b.events) {
        let event = a.events.get(i).cloned();
        let ctx = context_window(a, b, i, context);
        let mut ranks: Vec<u32> = Vec::new();
        for ev in a.events.get(i).iter().copied().chain(b.events.get(i)) {
            ranks.extend(event_ranks(ev));
        }
        for ev in &ctx {
            ranks.extend(event_ranks(ev));
        }
        ranks.sort_unstable();
        ranks.dedup();
        return Divergence {
            component: "events".into(),
            index: i,
            expected: render(a.events.get(i).map(describe_event)),
            got: render(b.events.get(i).map(describe_event)),
            event,
            context: ctx,
            ranks,
        };
    }
    if let Some(i) = first_mismatch(&a.transfers, &b.transfers) {
        return Divergence {
            component: "transfers".into(),
            index: i,
            expected: render(a.transfers.get(i).map(|t| format!("{t:?}"))),
            got: render(b.transfers.get(i).map(|t| format!("{t:?}"))),
            ..Divergence::default()
        };
    }
    if let Some(i) = first_mismatch(&a.spans, &b.spans) {
        return Divergence {
            component: "spans".into(),
            index: i,
            expected: render(a.spans.get(i).map(|s| format!("{s:?}"))),
            got: render(b.spans.get(i).map(|s| format!("{s:?}"))),
            ..Divergence::default()
        };
    }
    if let Some(i) = first_mismatch(&a.finish_ns, &b.finish_ns) {
        return Divergence {
            component: "finish".into(),
            index: i,
            expected: render(a.finish_ns.get(i).map(|s| format!("{s:?}"))),
            got: render(b.finish_ns.get(i).map(|s| format!("{s:?}"))),
            ..Divergence::default()
        };
    }
    if a.dropped_messages != b.dropped_messages {
        return Divergence {
            component: "dropped".into(),
            expected: a.dropped_messages.to_string(),
            got: b.dropped_messages.to_string(),
            ..Divergence::default()
        };
    }
    Divergence {
        component: "elapsed".into(),
        expected: format!("{}ns", a.elapsed_ns),
        got: format!("{}ns", b.elapsed_ns),
        ..Divergence::default()
    }
}

fn render(s: Option<String>) -> String {
    s.unwrap_or_else(|| "<absent>".into())
}

fn first_mismatch<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    let common = a.len().min(b.len());
    (0..common).find(|&i| a[i] != b[i]).or({
        if a.len() != b.len() {
            Some(common)
        } else {
            None
        }
    })
}

/// Walks provenance parent edges backward from the divergence point,
/// collecting up to `limit` ancestors. Only events in the common prefix
/// (`index` exclusive) qualify — those fired identically in both runs,
/// so the window is shared causal history, not one run's opinion.
fn context_window(a: &RunRecord, b: &RunRecord, index: usize, limit: usize) -> Vec<RecEvent> {
    let by_seq: HashMap<u64, &RecEvent> = a.events[..index].iter().map(|e| (e.seq, e)).collect();
    // Start from whichever side has an entry at the divergence point;
    // parents inside the common prefix are identical either way.
    let start = a.events.get(index).or_else(|| b.events.get(index));
    let mut cursor = start.and_then(|e| e.parent);
    let mut out = Vec::new();
    while out.len() < limit {
        let Some(seq) = cursor else { break };
        let Some(ev) = by_seq.get(&seq) else { break };
        out.push((*ev).clone());
        cursor = ev.parent;
    }
    // Fall back to recency when the causal chain is unavailable (no
    // provenance, or the parent fired at/after the divergence): the
    // last events before the divergence point are the next-best window.
    if out.is_empty() {
        out.extend(a.events[..index].iter().rev().take(limit).cloned());
    }
    out
}

fn blame_deltas(a: &RunRecord, b: &RunRecord) -> Vec<BlameDelta> {
    let mut categories: Vec<&String> = a.blame_ns.keys().chain(b.blame_ns.keys()).collect();
    categories.sort();
    categories.dedup();
    categories
        .into_iter()
        .map(|cat| BlameDelta {
            category: cat.clone(),
            a_ns: a.blame_ns.get(cat).copied().unwrap_or(0),
            b_ns: b.blame_ns.get(cat).copied().unwrap_or(0),
        })
        .collect()
}

fn metric_deltas(a: &RunRecord, b: &RunRecord, threshold: f64) -> Vec<MetricDelta> {
    let mut names: Vec<&String> = a.metrics.keys().chain(b.metrics.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .map(|name| {
            let av = a.metrics.get(name).copied().unwrap_or(0.0);
            let bv = b.metrics.get(name).copied().unwrap_or(0.0);
            let rel = (bv - av).abs() / av.abs().max(f64::EPSILON);
            MetricDelta {
                name: name.clone(),
                a: av,
                b: bv,
                rel,
                significant: rel > threshold,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecEvent;

    fn base() -> RunRecord {
        let mut rec = RunRecord {
            elapsed_ns: 1000,
            ..RunRecord::default()
        };
        for i in 0..6u64 {
            rec.events.push(RecEvent {
                seq: i,
                at_ns: i * 100,
                kind: "rank_resume".into(),
                a: i % 3,
                b: 0,
                parent: i.checked_sub(1),
            });
        }
        rec.blame_ns.insert("wire".into(), 600);
        rec.blame_ns.insert("entry".into(), 400);
        rec.metrics.insert("exec.messages".into(), 10.0);
        rec
    }

    #[test]
    fn self_diff_is_byte_identical_and_certified() {
        let rec = base();
        let report = diff(&rec, &rec);
        assert_eq!(report.verdict, Verdict::ByteIdentical);
        assert!(report.certified);
        assert!(report.first.is_none());
        assert_eq!(report.elapsed_delta_ns(), 0);
        assert_eq!(report.blame_delta_sum_ns(), 0);
    }

    #[test]
    fn meta_only_changes_are_semantically_identical() {
        let a = base();
        let mut b = base();
        b.meta.insert("date".into(), "2026-08-09".into());
        b.metrics.insert("engine.prof.wall_ns".into(), 5.0);
        let report = diff(&a, &b);
        assert_eq!(report.verdict, Verdict::SemanticallyIdentical);
        assert!(report.certified);
    }

    #[test]
    fn perturbed_event_is_localized_with_causal_context() {
        let a = base();
        let mut b = base();
        b.events[4].at_ns += 7;
        let report = diff(&a, &b);
        assert_eq!(report.verdict, Verdict::Divergent);
        assert!(!report.certified, "divergent runs are never certified");
        let first = report.first.expect("divergence located");
        assert_eq!(first.component, "events");
        assert_eq!(first.index, 4);
        assert!(first.expected.contains("@ 400ns"), "{}", first.expected);
        assert!(first.got.contains("@ 407ns"), "{}", first.got);
        // Ancestors 3, 2, 1, 0 via the parent chain, newest first.
        let seqs: Vec<u64> = first.context.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 2, 1, 0]);
        assert!(!first.ranks.is_empty());
    }

    #[test]
    fn truncated_stream_diverges_at_the_missing_tail() {
        let a = base();
        let mut b = base();
        b.events.pop();
        let report = diff(&a, &b);
        let first = report.first.expect("divergence located");
        assert_eq!(first.index, 5);
        assert_eq!(first.got, "<absent>");
    }

    #[test]
    fn context_falls_back_to_recency_without_provenance() {
        let mut a = base();
        let mut b = base();
        for ev in a.events.iter_mut().chain(b.events.iter_mut()) {
            ev.parent = None;
        }
        b.events[3].a = 2;
        let first = diff(&a, &b).first.expect("divergence located");
        assert_eq!(first.index, 3);
        let seqs: Vec<u64> = first.context.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 1, 0], "recency window, newest first");
    }

    #[test]
    fn dropped_messages_refuse_certification() {
        let mut a = base();
        a.dropped_messages = 3;
        let report = diff(&a, &a.clone());
        assert_eq!(report.verdict, Verdict::ByteIdentical);
        assert!(!report.certified);
        let reason = report.uncertified_reason.expect("reason given");
        assert!(reason.contains("dropped 3"), "{reason}");
    }

    #[test]
    fn blame_deltas_sum_to_elapsed_delta_when_conserving() {
        let a = base();
        let mut b = base();
        b.elapsed_ns = 1100;
        *b.blame_ns.get_mut("wire").expect("category") = 650;
        *b.blame_ns.get_mut("entry").expect("category") = 450;
        b.events[0].at_ns += 1; // force divergence
        let report = diff(&a, &b);
        assert_eq!(report.elapsed_delta_ns(), 100);
        assert_eq!(report.blame_delta_sum_ns(), 100);
    }

    #[test]
    fn metric_significance_uses_the_noise_floor() {
        let a = base();
        let mut b = base();
        b.metrics.insert("exec.messages".into(), 10.5); // +5%
        b.metrics.insert("exec.bytes".into(), 100.0); // new: infinite rel
        let report = diff(&a, &b);
        let by_name: std::collections::HashMap<&str, &MetricDelta> = report
            .metrics
            .iter()
            .map(|m| (m.name.as_str(), m))
            .collect();
        assert!(!by_name["exec.messages"].significant, "5% is noise");
        assert!(
            by_name["exec.bytes"].significant,
            "appearing is significant"
        );
    }
}
