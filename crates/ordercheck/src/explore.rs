//! DPOR-style exploration: enumerate same-instant pairs, prune the ones
//! provenance orders, re-execute with a targeted inversion, and judge
//! commutation with the canonical-order oracle.
//!
//! The explorer is bounded, not exhaustive: candidates are grouped by
//! unordered event-class pair (e.g. `message_ready+rank_resume`) and a
//! capped, evenly-strided sample of each group is explored — both
//! statically-independent pairs (validating the admission claim: their
//! inversion must be canonically invisible) and dependent pairs
//! (measuring how many predicted conflicts are real). The oracle is
//! [`RunRecord::canonicalized`]: a swap that only permutes sequence
//! numbers and same-instant log order is *commuting*; anything that
//! survives canonicalization is *order-sensitive*.

use crate::census::{PointCensus, SuiteCensus};
use crate::model::StaticModel;
use desim::eventlog::LoggedEvent;
use desim::{EventLog, Provenance};
use mpisim::exec::{Observed, TieBreakPolicy};
use mpisim::{Communicator, ExecOutcome, Machine, OpClass, Rank, RunOptions};
use obs::record::describe_event;
use obs::RunRecord;

/// One (machine, op, p, m) analysis point.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// The modeled machine.
    pub machine: Machine,
    /// The collective.
    pub op: OpClass,
    /// Communicator size.
    pub p: usize,
    /// Message size in bytes (forced to 0 for barrier).
    pub m: u32,
}

impl PointSpec {
    /// Payload bytes actually run (barrier carries none).
    pub fn bytes(&self) -> u32 {
        if self.op == OpClass::Barrier {
            0
        } else {
            self.m
        }
    }
}

/// Exploration bounds. Every knob is a determinism-preserving cap: the
/// selection is a pure function of the baseline log.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Explored representatives per (class-pair, independence) group.
    pub per_class: usize,
    /// Total explored inversions per point (round-robin across groups).
    pub max_explore: usize,
    /// Sensitive-pair example reports kept per point.
    pub examples: usize,
    /// Message-trace cap forwarded to the executor.
    pub trace_limit: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            per_class: 2,
            max_explore: 12,
            examples: 3,
            trace_limit: None,
        }
    }
}

/// A co-enabled same-instant pair eligible for inversion.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Firing index of the first event in the baseline log.
    pub pos: usize,
    /// The shared firing instant.
    pub at_ns: u64,
    /// First event (fires first under insertion order).
    pub first: LoggedEvent,
    /// Second event.
    pub second: LoggedEvent,
    /// Statically independent (disjoint widened footprints)?
    pub independent: bool,
}

impl Candidate {
    /// Unordered class-pair key, e.g. `message_ready+rank_resume`.
    pub fn class_pair(&self) -> String {
        let (a, b) = (self.first.kind.key(), self.second.kind.key());
        if a <= b {
            format!("{a}+{b}")
        } else {
            format!("{b}+{a}")
        }
    }
}

/// Enumeration result with pruning counters.
#[derive(Debug, Clone, Default)]
pub struct Enumeration {
    /// Surviving co-enabled candidates, in firing order.
    pub candidates: Vec<Candidate>,
    /// Events in the baseline log.
    pub events: u64,
    /// Adjacent same-instant pairs before pruning.
    pub tie_pairs: u64,
    /// Pairs pruned because provenance orders them (parent → child).
    pub pruned_causal: u64,
}

/// Walks the baseline log's adjacent same-instant pairs and prunes the
/// ones already ordered by causality: a provenance parent → child edge
/// means the pair was never co-enabled (the swap could not engage).
/// Every other pair is a candidate; the schedule's happens-before order
/// never relates two events of one instant ([`crate::model`]).
pub fn enumerate(model: &StaticModel, log: &EventLog, prov: Option<&Provenance>) -> Enumeration {
    let mut e = Enumeration {
        events: log.len() as u64,
        ..Enumeration::default()
    };
    for pos in 0..log.len().saturating_sub(1) {
        let (first, second) = (log.get(pos), log.get(pos + 1));
        if first.at != second.at {
            continue;
        }
        e.tie_pairs += 1;
        if prov.and_then(|p| p.parent_of(second.seq)) == Some(first.seq) {
            e.pruned_causal += 1;
            continue;
        }
        e.candidates.push(Candidate {
            pos,
            at_ns: first.at.as_nanos(),
            first,
            second,
            independent: model.independent(&first, &second),
        });
    }
    e
}

/// Evenly-strided sample of up to `k` items from `items`.
fn strided<T: Copy>(items: &[T], k: usize) -> Vec<T> {
    if items.len() <= k {
        return items.to_vec();
    }
    (0..k).map(|i| items[i * items.len() / k]).collect()
}

/// Selects the explored subset: up to `per_class` per (class-pair,
/// independence) group, then round-robin across groups up to
/// `max_explore`. Pure function of the candidate list.
fn select(candidates: &[Candidate], opts: &ExploreOptions) -> Vec<Candidate> {
    let mut groups: Vec<(String, Vec<Candidate>)> = Vec::new();
    for c in candidates {
        let key = format!("{}/{}", c.class_pair(), c.independent);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(*c),
            None => groups.push((key, vec![*c])),
        }
    }
    let sampled: Vec<Vec<Candidate>> = groups
        .iter()
        .map(|(_, v)| strided(v, opts.per_class))
        .collect();
    let mut picked = Vec::new();
    let mut round = 0;
    while picked.len() < opts.max_explore {
        let mut any = false;
        for group in &sampled {
            if let Some(&c) = group.get(round) {
                any = true;
                picked.push(c);
                if picked.len() >= opts.max_explore {
                    break;
                }
            }
        }
        if !any {
            break;
        }
        round += 1;
    }
    picked
}

/// Runs one fully instrumented execution of the point's schedule on
/// its communicator. The critical path is deliberately skipped: the
/// oracle compares structure, and each explored pair costs one rerun.
pub(crate) fn run_once(
    comm: &Communicator,
    schedule: &collectives::Schedule,
    tie_break: TieBreakPolicy,
    opts: &ExploreOptions,
) -> (RunRecord, Observed, ExecOutcome) {
    let options = RunOptions {
        record_trace: true,
        trace_limit: opts.trace_limit,
        provenance: true,
        event_log: true,
        tie_break,
        ..RunOptions::default()
    };
    let (out, observed) = comm
        .run_observed(&[schedule], options)
        .expect("ordercheck point execution");
    let rec = mpisim::record::run_record(comm.machine().name(), &out, &observed, None, None);
    (rec, observed, out)
}

fn render_sensitive(c: &Candidate, report: &obs::diff::DiffReport) -> String {
    let mut s = format!(
        "pair @{}ns: [{}] <-> [{}] ({})",
        c.at_ns,
        describe_logged(&c.first),
        describe_logged(&c.second),
        if c.independent {
            "UNEXPLAINED: statically independent"
        } else {
            "explained: footprints conflict"
        },
    );
    if let Some(first) = &report.first {
        s.push_str(&format!(
            "\n  first raw divergence in {}: expected {} got {}",
            first.component, first.expected, first.got
        ));
        for ctx in first.context.iter().take(4) {
            s.push_str(&format!("\n    context: {}", describe_event(ctx)));
        }
    }
    s
}

fn describe_logged(ev: &LoggedEvent) -> String {
    format!("seq {} {} a={} b={}", ev.seq, ev.kind.key(), ev.a, ev.b)
}

/// Analyzes one point end to end: baseline run, enumeration, bounded
/// exploration, census assembly.
pub fn analyze_point(spec: &PointSpec, opts: &ExploreOptions) -> PointCensus {
    let comm = spec
        .machine
        .communicator(spec.p)
        .expect("communicator size");
    let schedule = comm
        .schedule(spec.op, Rank(0), spec.bytes())
        .expect("schedule build");
    let model = StaticModel::build(&schedule);
    let (base_rec, base_obs, _) = run_once(&comm, &schedule, TieBreakPolicy::InsertionOrder, opts);
    let base_canon_json = base_rec.canonicalized().to_json_string();

    let log = base_obs.event_log.as_ref().expect("event log enabled");
    let e = enumerate(&model, log, base_obs.provenance.as_ref());

    let mut census = PointCensus {
        machine: spec.machine.name().to_string(),
        op: spec.op.key().to_string(),
        p: spec.p as u64,
        m: u64::from(spec.bytes()),
        events: e.events,
        tie_pairs: e.tie_pairs,
        pruned_causal: e.pruned_causal,
        candidates: e.candidates.len() as u64,
        independent: e.candidates.iter().filter(|c| c.independent).count() as u64,
        ..PointCensus::default()
    };
    census.dependent = census.candidates - census.independent;

    for c in select(&e.candidates, opts) {
        let (rec, observed, _) = run_once(
            &comm,
            &schedule,
            TieBreakPolicy::InvertPair {
                at_ns: c.at_ns,
                first_seq: c.first.seq,
                second_seq: c.second.seq,
            },
            opts,
        );
        let engaged = observed.tie_swap_applied == Some(true);
        let commutes = engaged && rec.canonicalized().to_json_string() == base_canon_json;
        let sensitive = engaged && !commutes;
        if sensitive && census.sensitive_examples.len() < opts.examples {
            // Diff the raw records: unlike the canonicalized pair, they
            // carry seq/parent, so the divergence arrives with its
            // provenance context window.
            let report = obs::diff::diff(&base_rec, &rec);
            census
                .sensitive_examples
                .push(render_sensitive(&c, &report));
        }
        census.missed += u64::from(!engaged);
        census.explored += u64::from(engaged);
        census.commuting += u64::from(commutes);
        census.sensitive += u64::from(sensitive);
        census.unexplained += u64::from(sensitive && c.independent);
        let class = census.class_mut(&c.class_pair());
        class.candidates += 1;
        class.independent += u64::from(c.independent);
        class.missed += u64::from(!engaged);
        class.explored += u64::from(engaged);
        class.commuting += u64::from(commutes);
        class.sensitive += u64::from(sensitive);
        class.unexplained += u64::from(sensitive && c.independent);
    }
    census
}

/// Analyzes a list of points with `threads` workers and merges the
/// censuses in canonical (input) order — byte-identical output for any
/// thread count.
pub fn suite_census(points: &[PointSpec], threads: usize, opts: &ExploreOptions) -> SuiteCensus {
    let censuses = harness::map_indexed(
        points.len(),
        threads,
        |i| analyze_point(&points[i], opts),
        &|_, _| {},
    );
    SuiteCensus { points: censuses }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(machine: Machine, op: OpClass, p: usize, m: u32) -> PointSpec {
        PointSpec { machine, op, p, m }
    }

    fn small_opts() -> ExploreOptions {
        ExploreOptions {
            per_class: 1,
            max_explore: 6,
            ..ExploreOptions::default()
        }
    }

    #[test]
    fn baseline_point_has_no_unexplained_pairs() {
        let census = analyze_point(
            &spec(Machine::t3d(), OpClass::Alltoall, 8, 512),
            &small_opts(),
        );
        assert!(census.tie_pairs > 0, "contended point must have ties");
        assert!(census.explored > 0, "explorer must engage");
        assert_eq!(census.unexplained, 0, "{:?}", census.sensitive_examples);
        assert_eq!(
            census.explored + census.missed,
            census.commuting + census.sensitive + census.missed
        );
    }

    #[test]
    fn independent_leaf_pairs_commute_under_inversion() {
        let census = analyze_point(
            &spec(Machine::sp2(), OpClass::Bcast, 8, 1024),
            &ExploreOptions {
                per_class: 4,
                max_explore: 16,
                ..ExploreOptions::default()
            },
        );
        assert_eq!(census.unexplained, 0, "{:?}", census.sensitive_examples);
    }

    #[test]
    fn selection_is_bounded_and_deterministic() {
        let s = spec(Machine::paragon(), OpClass::Alltoall, 8, 512);
        let a = analyze_point(&s, &small_opts());
        let b = analyze_point(&s, &small_opts());
        assert!(a.explored + a.missed <= 6);
        assert_eq!(
            a.to_json().to_string_compact(),
            b.to_json().to_string_compact()
        );
    }

    #[test]
    fn strided_sampling_covers_ends() {
        let items: Vec<u32> = (0..10).collect();
        assert_eq!(strided(&items, 3), vec![0, 3, 6]);
        assert_eq!(strided(&items, 20), items);
    }
}
