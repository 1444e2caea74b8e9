//! Seeded-failure demonstration: invert *every* same-instant tie
//! ([`TieBreakPolicy::InvertAll`] — the eager-delivery failure mode)
//! and show that the order analysis catches it and explains exactly
//! how deep the damage goes.
//!
//! Two layers of verdict:
//!
//! * **Record layer** (`caught`) — the raw [`obs::RunRecord`]s diverge,
//!   so run-record certification (what `tracediff` vouches for) is
//!   broken. The report names the minimal divergent pair: the first
//!   same-instant payload permutation between the two streams, or —
//!   when the perturbation only renumbered sequence numbers — the first
//!   raw divergence with its provenance context window.
//! * **Canonical layer** (`semantic`) — the
//!   [`canonicalized`](obs::RunRecord::canonicalized) records diverge,
//!   meaning the reorder changed the *execution* (timing, transfers,
//!   spans), not just the bookkeeping. On the shipped vendor schedules
//!   invert-all is canonically invisible: the delivery/release posting
//!   order it flips never carries semantic weight — which is precisely
//!   what the census certifies pair by pair.

use crate::explore::{run_once, ExploreOptions, PointSpec};
use mpisim::exec::TieBreakPolicy;
use mpisim::Rank;
use obs::record::{describe_event, event_ranks, RecEvent};

/// A same-instant block whose payload order was permuted.
#[derive(Debug, Clone)]
pub struct Transposition {
    /// Firing index of the first reordered event (baseline stream).
    pub index: usize,
    /// The shared firing instant.
    pub at_ns: u64,
    /// Baseline's event at that index.
    pub first: RecEvent,
    /// Inverted run's event at that index.
    pub second: RecEvent,
}

/// The minimal divergent pair, rendered for the report.
#[derive(Debug, Clone)]
pub struct MinimalPair {
    /// Where the runs first disagree (firing index).
    pub index: usize,
    /// Baseline side.
    pub expected: String,
    /// Inverted side.
    pub got: String,
    /// Provenance-context ancestor events, newest first (rendered).
    pub context: Vec<String>,
    /// Ranks implicated by the pair and its context.
    pub ranks: Vec<u32>,
}

/// Outcome of the seeded invert-all demonstration.
#[derive(Debug, Clone)]
pub struct DemoReport {
    /// True iff the raw records diverge — certification is broken and
    /// the seeded reorder is detected.
    pub caught: bool,
    /// True iff the canonicalized records also diverge — the reorder
    /// changed the execution, not just sequence bookkeeping.
    pub semantic: bool,
    /// Raw structural diff (seq-sensitive) of the two records.
    pub raw: obs::DiffReport,
    /// Same-instant payload permutations found before the streams
    /// drift apart.
    pub transpositions: Vec<Transposition>,
    /// The minimal divergent pair; present whenever `caught`.
    pub minimal: Option<MinimalPair>,
}

fn payload_key(e: &RecEvent) -> (u64, &str, u64, u64) {
    (e.at_ns, &e.kind, e.a, e.b)
}

/// Scans the two event streams for same-instant blocks whose payload
/// *order* differs while their payload *multiset* matches — the
/// signature of a pure tie reorder. Stops at the first block where the
/// multisets differ (the reorder's consequences have arrived and
/// lockstep alignment is gone).
fn find_transpositions(a: &[RecEvent], b: &[RecEvent]) -> Vec<Transposition> {
    let mut out = Vec::new();
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n {
        let at = a[i].at_ns;
        let mut j = i;
        while j < n && a[j].at_ns == at && b[j].at_ns == at {
            j += 1;
        }
        if j == i {
            break; // instants disagree: drifted
        }
        let (block_a, block_b) = (&a[i..j], &b[i..j]);
        if block_a
            .iter()
            .zip(block_b)
            .any(|(x, y)| payload_key(x) != payload_key(y))
        {
            let mut sa: Vec<_> = block_a.iter().map(payload_key).collect();
            let mut sb: Vec<_> = block_b.iter().map(payload_key).collect();
            sa.sort_unstable();
            sb.sort_unstable();
            if sa != sb {
                break; // not a permutation: drifted
            }
            if let Some(k) =
                (0..block_a.len()).find(|&k| payload_key(&block_a[k]) != payload_key(&block_b[k]))
            {
                out.push(Transposition {
                    index: i + k,
                    at_ns: at,
                    first: block_a[k].clone(),
                    second: block_b[k].clone(),
                });
            }
        }
        i = j;
    }
    out
}

/// Runs the point twice — insertion order vs [`TieBreakPolicy::InvertAll`]
/// — and reports whether the analysis catches the seeded reorder.
pub fn demo_broken(spec: &PointSpec, opts: &ExploreOptions) -> DemoReport {
    let comm = spec
        .machine
        .communicator(spec.p)
        .expect("communicator size");
    let schedule = comm
        .schedule(spec.op, Rank(0), spec.bytes())
        .expect("schedule build");
    let (base, _, _) = run_once(&comm, &schedule, TieBreakPolicy::InsertionOrder, opts);
    let (broken, _, _) = run_once(&comm, &schedule, TieBreakPolicy::InvertAll, opts);

    let raw = obs::diff::diff(&base, &broken);
    let caught = !raw.verdict.identical();
    let semantic = base.canonicalized().to_json_string() != broken.canonicalized().to_json_string();
    let transpositions = find_transpositions(&base.events, &broken.events);

    let minimal = if let Some(t) = transpositions.first() {
        Some(MinimalPair {
            index: t.index,
            expected: describe_event(&t.first),
            got: describe_event(&t.second),
            context: Vec::new(),
            ranks: {
                let mut r = event_ranks(&t.first);
                for x in event_ranks(&t.second) {
                    if !r.contains(&x) {
                        r.push(x);
                    }
                }
                r.sort_unstable();
                r
            },
        })
    } else {
        raw.first.as_ref().map(|d| MinimalPair {
            index: d.index,
            expected: d.expected.clone(),
            got: d.got.clone(),
            context: d.context.iter().map(describe_event).collect(),
            ranks: d.ranks.clone(),
        })
    };

    DemoReport {
        caught,
        semantic,
        raw,
        transpositions,
        minimal,
    }
}

impl DemoReport {
    /// Human-readable rendering for the driver binary.
    pub fn render(&self) -> String {
        let mut s = String::new();
        if !self.caught {
            s.push_str(
                "invert-all left the record byte-identical: no same-instant pairs to reorder\n",
            );
            return s;
        }
        s.push_str("CAUGHT: inverting same-instant ties broke run-record certification\n");
        s.push_str(&format!(
            "  raw verdict: {} ({} reordered same-instant blocks in the clean prefix)\n",
            self.raw.verdict.label(),
            self.transpositions.len()
        ));
        if let Some(m) = &self.minimal {
            s.push_str(&format!(
                "  minimal divergent pair at firing index {}:\n",
                m.index
            ));
            s.push_str(&format!("    expected: {}\n", m.expected));
            s.push_str(&format!("    got:      {}\n", m.got));
            if !m.ranks.is_empty() {
                let ranks: Vec<String> = m.ranks.iter().map(u32::to_string).collect();
                s.push_str(&format!("    ranks: {}\n", ranks.join(", ")));
            }
            for c in m.context.iter().take(6) {
                s.push_str(&format!("    context: {c}\n"));
            }
        }
        if self.semantic {
            s.push_str(
                "  canonical oracle: EXECUTION CHANGED — the reordered ties are order-sensitive\n",
            );
        } else {
            s.push_str(
                "  canonical oracle: execution unchanged — the reorder is bookkeeping-only \
                 (every inverted tie commutes)\n",
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Machine, OpClass};

    #[test]
    fn seeded_invert_all_is_caught_with_a_minimal_pair() {
        // The point the record-layer divergence test established as
        // tie-order visible.
        let spec = PointSpec {
            machine: Machine::t3d(),
            op: OpClass::Alltoall,
            p: 16,
            m: 2048,
        };
        let report = demo_broken(&spec, &ExploreOptions::default());
        assert!(report.caught, "known-divergent point must be caught");
        let m = report.minimal.as_ref().expect("minimal pair reported");
        assert_ne!(m.expected, m.got);
        let rendered = report.render();
        assert!(rendered.contains("CAUGHT"));
        // On the vendor schedules the delivery/release reorder is
        // certification-visible but canonically harmless.
        assert!(!report.semantic);
        assert!(rendered.contains("bookkeeping-only"));
    }

    #[test]
    fn block_scan_finds_same_instant_permutations() {
        let ev = |at_ns: u64, a: u64| RecEvent {
            seq: 0,
            at_ns,
            kind: "rank_resume".into(),
            a,
            b: 0,
            parent: None,
        };
        let base = vec![ev(1, 0), ev(5, 1), ev(5, 2), ev(5, 3), ev(9, 4)];
        // Rotation inside the t=5 block: a permutation, not adjacent.
        let rotated = vec![ev(1, 0), ev(5, 3), ev(5, 1), ev(5, 2), ev(9, 4)];
        let t = find_transpositions(&base, &rotated);
        assert_eq!(t.len(), 1);
        assert_eq!((t[0].index, t[0].at_ns), (1, 5));
        assert_eq!((t[0].first.a, t[0].second.a), (1, 3));
        // A block whose multiset differs stops the scan: that is real
        // drift, not a reorder.
        let drifted = vec![ev(1, 0), ev(5, 1), ev(5, 7), ev(5, 3), ev(9, 4)];
        assert!(find_transpositions(&base, &drifted).is_empty());
    }
}
