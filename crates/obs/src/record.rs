//! Canonical run-record serialization — the exchange format of the
//! differential-observability layer.
//!
//! A [`RunRecord`] is everything two runs need in order to be compared
//! structurally: the fired-event stream with causal parent edges, the
//! per-message transfer blame spans, the per-rank phase timeline, the
//! per-segment finish matrix, the critical-path blame totals and
//! contention census, and a flat metrics snapshot. The executor layer
//! (mpisim) assembles it from its own artifacts; this module owns the
//! schema and the (de)serialization.
//!
//! The format is schema-versioned JSON with deterministic ordering:
//! arrays keep their producer order (which is itself deterministic),
//! objects serialize with sorted keys (see [`crate::Json`]), and the
//! compact form has no whitespace — so byte equality of two serialized
//! records is a meaningful verdict, not an accident of formatting.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::json::{validate, write_f64, write_str, write_u64, Json};

/// Bump when the record layout changes incompatibly. Readers refuse
/// records from a different schema rather than mis-parse them.
pub const SCHEMA_VERSION: u64 = 1;

/// One fired event: the engine's `(seq, at, kind, a, b)` tuple plus the
/// causal parent edge from provenance (`None` for root stimuli or when
/// provenance was off).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecEvent {
    /// Scheduling sequence number.
    pub seq: u64,
    /// Firing instant, nanoseconds.
    pub at_ns: u64,
    /// Stable kind key (`rank_resume`, `message_ready`, `schedule_step`,
    /// `timer`). Borrowed from the executor's static vocabulary when built
    /// from a run; owned when parsed.
    pub kind: Cow<'static, str>,
    /// First payload field (see [`event_field_names`]); 0 if unused.
    pub a: u64,
    /// Second payload field; 0 if unused.
    pub b: u64,
    /// Seq of the event that scheduled this one, if known.
    pub parent: Option<u64>,
}

/// Human-readable names of the `(a, b)` payload fields for a kind key;
/// empty strings for unused slots. Mirrors the desim event vocabulary
/// (kept in sync by the cross-crate round-trip tests).
pub fn event_field_names(kind: &str) -> (&'static str, &'static str) {
    match kind {
        "rank_resume" => ("rank", ""),
        "message_ready" => ("src", "dst"),
        "schedule_step" => ("rank", "step"),
        "timer" => ("id", ""),
        _ => ("", ""),
    }
}

/// The ranks an event touches, for context-window summaries. `timer`
/// events touch none.
pub fn event_ranks(ev: &RecEvent) -> Vec<u32> {
    match &*ev.kind {
        "rank_resume" | "schedule_step" => vec![ev.a as u32],
        "message_ready" => vec![ev.a as u32, ev.b as u32],
        _ => Vec::new(),
    }
}

/// Renders an event as a one-line human-readable description, e.g.
/// `message_ready(src=0, dst=3) @ 12450ns seq=17`.
pub fn describe_event(ev: &RecEvent) -> String {
    let (na, nb) = event_field_names(&ev.kind);
    let payload = match (na.is_empty(), nb.is_empty()) {
        (true, _) => String::new(),
        (false, true) => format!("{na}={}", ev.a),
        (false, false) => format!("{na}={}, {nb}={}", ev.a, ev.b),
    };
    format!("{}({payload}) @ {}ns seq={}", ev.kind, ev.at_ns, ev.seq)
}

/// One traced message transfer with its blame split.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecTransfer {
    /// Sending rank.
    pub src: u32,
    /// Receiving rank.
    pub dst: u32,
    /// Payload bytes.
    pub bytes: u64,
    /// Operation-class key.
    pub class: Cow<'static, str>,
    /// Instant the send was posted, nanoseconds.
    pub posted_ns: u64,
    /// Instant the wire journey began.
    pub wire_start_ns: u64,
    /// Instant the payload fully arrived.
    pub delivered_ns: u64,
    /// Time queued behind the node's injection engine.
    pub inject_wait_ns: u64,
    /// Time queued behind busy links.
    pub link_wait_ns: u64,
}

/// One attributed phase span on a rank's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecSpan {
    /// The rank.
    pub rank: u32,
    /// Phase-kind label (the executor's span vocabulary).
    pub kind: Cow<'static, str>,
    /// Span start, nanoseconds.
    pub start_ns: u64,
    /// Span end, nanoseconds.
    pub end_ns: u64,
    /// Rank whose action ended a blocked span, if attributed.
    pub woke_by: Option<u32>,
}

/// The full run record. See the module docs for the layout.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    /// Free-form run identity: machine, op, ranks, bytes, config knobs.
    pub meta: BTreeMap<String, String>,
    /// End-to-end elapsed time, nanoseconds.
    pub elapsed_ns: u64,
    /// Messages dropped from the trace by the trace cap. A non-zero
    /// value poisons identity certification (see `obs::diff`).
    pub dropped_messages: u64,
    /// The fired-event stream, in firing order. Empty when event
    /// logging was off.
    pub events: Vec<RecEvent>,
    /// Traced transfers, in trace order. Empty when tracing was off.
    pub transfers: Vec<RecTransfer>,
    /// Phase spans, in emission order. Empty when not observed.
    pub spans: Vec<RecSpan>,
    /// `finish_ns[segment][rank]` completion instants.
    pub finish_ns: Vec<Vec<u64>>,
    /// Critical-path blame totals, nanoseconds per category key.
    pub blame_ns: BTreeMap<String, u64>,
    /// Contention census: `(transfers, uncontended)` over the trace.
    pub census: Option<(u64, u64)>,
    /// Flat numeric metrics snapshot.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    /// True when the two records describe the *same execution*: equal
    /// event streams, transfers, spans, finish matrices, elapsed time,
    /// and drop counts. Meta and metrics may differ: meta carries run
    /// labels, and the metrics are summaries of the execution whose set
    /// depends on which exporters the producing tool ran.
    pub fn same_execution(&self, other: &RunRecord) -> bool {
        self.elapsed_ns == other.elapsed_ns
            && self.dropped_messages == other.dropped_messages
            && self.events == other.events
            && self.transfers == other.transfers
            && self.spans == other.spans
            && self.finish_ns == other.finish_ns
    }

    /// The order-insensitive canonical form — the *commutation oracle*
    /// of the `ordercheck` explorer.
    ///
    /// A safe same-instant inversion still permutes the raw event
    /// stream (the two swapped events, plus the scheduling seqs of
    /// everything they spawn), so raw byte equality would report every
    /// explored inversion as divergent. What a commuting swap *cannot*
    /// change is the multiset of fired events and their instants, the
    /// transfers' timings, the span timeline, and the finish matrix.
    /// This method projects the record onto exactly that: seqs and
    /// parent edges are cleared, events/transfers/spans are sorted by
    /// their payload-and-time keys, and the `meta`/`metrics` maps are
    /// dropped: meta carries run labels, and the metrics are summaries
    /// of the execution whose set depends on which exporters ran.
    /// Two runs whose canonicalized records serialize to identical
    /// bytes are semantically the same execution up to tie order.
    ///
    /// Each sort is a stable sort by the documented key, done as an
    /// integer sort on the primary field (events and transfers already
    /// arrive in time order; spans group by rank) followed by small
    /// sorts within groups of equal primary field.
    pub fn canonicalized(&self) -> RunRecord {
        let mut events = sort_by_primary(
            &self.events,
            |e| e.at_ns,
            |x, y| (&x.kind, x.a, x.b).cmp(&(&y.kind, y.a, y.b)),
        );
        for e in &mut events {
            e.seq = 0;
            e.parent = None;
        }
        let transfers = sort_by_primary(
            &self.transfers,
            |t| t.posted_ns,
            |x, y| {
                (x.src, x.dst, x.wire_start_ns, x.delivered_ns, x.bytes).cmp(&(
                    y.src,
                    y.dst,
                    y.wire_start_ns,
                    y.delivered_ns,
                    y.bytes,
                ))
            },
        );
        let spans = sort_by_primary(
            &self.spans,
            |s| u64::from(s.rank),
            |x, y| (x.start_ns, x.end_ns, &x.kind).cmp(&(y.start_ns, y.end_ns, &y.kind)),
        );
        RunRecord {
            meta: BTreeMap::new(),
            elapsed_ns: self.elapsed_ns,
            dropped_messages: self.dropped_messages,
            events,
            transfers,
            spans,
            finish_ns: self.finish_ns.clone(),
            blame_ns: self.blame_ns.clone(),
            census: self.census,
            metrics: BTreeMap::new(),
        }
    }

    /// Canonical compact serialization: byte equality of two outputs is
    /// the `ByteIdentical` verdict.
    ///
    /// Streams the record into one pre-sized buffer: members in sorted
    /// key order (the order a [`Json`] object uses), rows as compact
    /// arrays, and every scalar through the shared `obs::json` helpers,
    /// so the bytes are exactly what the equivalent [`Json`] tree
    /// serializes to.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(self.json_size_hint());
        out.push_str("{\"blame_ns\":");
        write_object(&mut out, &self.blame_ns, |out, &v| write_u64(out, v));
        if let Some((transfers, uncontended)) = self.census {
            out.push_str(",\"census\":{\"transfers\":");
            write_u64(&mut out, transfers);
            out.push_str(",\"uncontended\":");
            write_u64(&mut out, uncontended);
            out.push('}');
        }
        out.push_str(",\"dropped_messages\":");
        write_u64(&mut out, self.dropped_messages);
        out.push_str(",\"elapsed_ns\":");
        write_u64(&mut out, self.elapsed_ns);
        out.push_str(",\"events\":");
        write_rows(&mut out, &self.events, |out, e| {
            write_u64(out, e.seq);
            out.push(',');
            write_u64(out, e.at_ns);
            out.push(',');
            write_str(out, &e.kind);
            out.push(',');
            write_u64(out, e.a);
            out.push(',');
            write_u64(out, e.b);
            out.push(',');
            write_opt(out, e.parent);
        });
        out.push_str(",\"finish_ns\":");
        write_rows(&mut out, &self.finish_ns, |out, seg| {
            for (i, &t) in seg.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_u64(out, t);
            }
        });
        out.push_str(",\"meta\":");
        write_object(&mut out, &self.meta, |out, v| write_str(out, v));
        out.push_str(",\"metrics\":");
        write_object(&mut out, &self.metrics, |out, &v| write_f64(out, v));
        out.push_str(",\"schema_version\":");
        write_u64(&mut out, SCHEMA_VERSION);
        out.push_str(",\"spans\":");
        write_rows(&mut out, &self.spans, |out, s| {
            write_u64(out, u64::from(s.rank));
            out.push(',');
            write_str(out, &s.kind);
            out.push(',');
            write_u64(out, s.start_ns);
            out.push(',');
            write_u64(out, s.end_ns);
            out.push(',');
            write_opt(out, s.woke_by.map(u64::from));
        });
        out.push_str(",\"transfers\":");
        write_rows(&mut out, &self.transfers, |out, t| {
            for v in [u64::from(t.src), u64::from(t.dst), t.bytes] {
                write_u64(out, v);
                out.push(',');
            }
            write_str(out, &t.class);
            for v in [
                t.posted_ns,
                t.wire_start_ns,
                t.delivered_ns,
                t.inject_wait_ns,
                t.link_wait_ns,
            ] {
                out.push(',');
                write_u64(out, v);
            }
        });
        out.push('}');
        out
    }

    /// A generous estimate of the serialized length, so
    /// [`RunRecord::to_json_string`] allocates once for typical records.
    fn json_size_hint(&self) -> usize {
        let cells: usize = self.finish_ns.iter().map(Vec::len).sum();
        let members = self.meta.len() + self.metrics.len() + self.blame_ns.len();
        256 + 48 * (self.events.len() + self.spans.len() + members)
            + 96 * self.transfers.len()
            + 12 * cells
    }

    /// Parses a serialized record.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on malformed input
    /// or a schema-version mismatch.
    pub fn from_json(text: &str) -> Result<RunRecord, String> {
        let doc = validate(text)?;
        let version = field_u64(&doc, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "run-record schema {version} unsupported (reader speaks {SCHEMA_VERSION})"
            ));
        }
        let mut rec = RunRecord {
            elapsed_ns: field_u64(&doc, "elapsed_ns")?,
            dropped_messages: field_u64(&doc, "dropped_messages")?,
            ..RunRecord::default()
        };
        if let Some(Json::Object(m)) = doc.get("meta") {
            for (k, v) in m {
                rec.meta.insert(
                    k.clone(),
                    v.as_str()
                        .ok_or_else(|| format!("meta.{k}: not a string"))?
                        .to_string(),
                );
            }
        }
        for (i, row) in field_array(&doc, "events")?.iter().enumerate() {
            let row = row
                .as_array()
                .ok_or_else(|| format!("events[{i}]: not an array"))?;
            if row.len() != 6 {
                return Err(format!("events[{i}]: expected 6 fields"));
            }
            rec.events.push(RecEvent {
                seq: as_u64(&row[0]).ok_or_else(|| format!("events[{i}].seq"))?,
                at_ns: as_u64(&row[1]).ok_or_else(|| format!("events[{i}].at_ns"))?,
                kind: Cow::Owned(
                    row[2]
                        .as_str()
                        .ok_or_else(|| format!("events[{i}].kind"))?
                        .to_string(),
                ),
                a: as_u64(&row[3]).ok_or_else(|| format!("events[{i}].a"))?,
                b: as_u64(&row[4]).ok_or_else(|| format!("events[{i}].b"))?,
                parent: match &row[5] {
                    Json::Null => None,
                    other => Some(as_u64(other).ok_or_else(|| format!("events[{i}].parent"))?),
                },
            });
        }
        for (i, row) in field_array(&doc, "transfers")?.iter().enumerate() {
            let row = row
                .as_array()
                .ok_or_else(|| format!("transfers[{i}]: not an array"))?;
            if row.len() != 9 {
                return Err(format!("transfers[{i}]: expected 9 fields"));
            }
            let field = |name: &str| format!("transfers[{i}].{name}");
            let u = |j: usize, name: &str| as_u64(&row[j]).ok_or_else(|| field(name));
            rec.transfers.push(RecTransfer {
                src: as_u32(&row[0], || field("src"))?,
                dst: as_u32(&row[1], || field("dst"))?,
                bytes: u(2, "bytes")?,
                class: Cow::Owned(row[3].as_str().ok_or_else(|| field("class"))?.to_string()),
                posted_ns: u(4, "posted_ns")?,
                wire_start_ns: u(5, "wire_start_ns")?,
                delivered_ns: u(6, "delivered_ns")?,
                inject_wait_ns: u(7, "inject_wait_ns")?,
                link_wait_ns: u(8, "link_wait_ns")?,
            });
        }
        for (i, row) in field_array(&doc, "spans")?.iter().enumerate() {
            let row = row
                .as_array()
                .ok_or_else(|| format!("spans[{i}]: not an array"))?;
            if row.len() != 5 {
                return Err(format!("spans[{i}]: expected 5 fields"));
            }
            rec.spans.push(RecSpan {
                rank: as_u32(&row[0], || format!("spans[{i}].rank"))?,
                kind: Cow::Owned(
                    row[1]
                        .as_str()
                        .ok_or_else(|| format!("spans[{i}].kind"))?
                        .to_string(),
                ),
                start_ns: as_u64(&row[2]).ok_or_else(|| format!("spans[{i}].start_ns"))?,
                end_ns: as_u64(&row[3]).ok_or_else(|| format!("spans[{i}].end_ns"))?,
                woke_by: match &row[4] {
                    Json::Null => None,
                    other => Some(as_u32(other, || format!("spans[{i}].woke_by"))?),
                },
            });
        }
        for (i, seg) in field_array(&doc, "finish_ns")?.iter().enumerate() {
            let seg = seg
                .as_array()
                .ok_or_else(|| format!("finish_ns[{i}]: not an array"))?;
            rec.finish_ns.push(
                seg.iter()
                    .map(|t| as_u64(t).ok_or_else(|| format!("finish_ns[{i}]: bad instant")))
                    .collect::<Result<_, _>>()?,
            );
        }
        if let Some(Json::Object(m)) = doc.get("blame_ns") {
            for (k, v) in m {
                rec.blame_ns
                    .insert(k.clone(), as_u64(v).ok_or_else(|| format!("blame_ns.{k}"))?);
            }
        }
        if let Some(c) = doc.get("census") {
            rec.census = Some((field_u64(c, "transfers")?, field_u64(c, "uncontended")?));
        }
        if let Some(Json::Object(m)) = doc.get("metrics") {
            for (k, v) in m {
                // `null` is how the writer spells every non-finite value.
                let value = match v {
                    Json::Null => f64::NAN,
                    v => v.as_f64().ok_or_else(|| format!("metrics.{k}"))?,
                };
                rec.metrics.insert(k.clone(), value);
            }
        }
        Ok(rec)
    }
}

/// Numeric value as `u64` — the parser normalizes small unsigned values
/// to `Int`, so both variants must be accepted.
fn as_u64(j: &Json) -> Option<u64> {
    match j {
        Json::UInt(u) => Some(*u),
        Json::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// Clones of `rows`, stable-sorted by `primary` and then `rest`.
///
/// Stable-sorting by `primary` and then stable-sorting each group of
/// equal `primary` by `rest` is the same permutation as one stable sort
/// by the pair. The first sort compares integers only, and it finds
/// input that already runs in `primary` order (events and transfers
/// arrive in time order) as one run in a single pass.
fn sort_by_primary<T: Clone>(
    rows: &[T],
    primary: impl Fn(&T) -> u64,
    rest: impl Fn(&T, &T) -> Ordering,
) -> Vec<T> {
    let mut out = rows.to_vec();
    out.sort_by_key(&primary);
    for group in out.chunk_by_mut(|x, y| primary(x) == primary(y)) {
        group.sort_by(&rest);
    }
    out
}

/// A rank field: an integer that fits `u32`. A wider value is an error
/// naming the field, never a silent truncation.
fn as_u32(j: &Json, field: impl Fn() -> String) -> Result<u32, String> {
    let v = as_u64(j).ok_or_else(&field)?;
    u32::try_from(v).map_err(|_| format!("{}: {v} does not fit u32", field()))
}

/// Writes `[row,row,…]`, each row a compact array whose inner elements
/// `row` writes.
fn write_rows<T>(out: &mut String, rows: &[T], row: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        row(out, r);
        out.push(']');
    }
    out.push(']');
}

/// Writes a sorted-key object whose values `value` writes.
fn write_object<V>(out: &mut String, map: &BTreeMap<String, V>, value: impl Fn(&mut String, &V)) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

fn write_opt(out: &mut String, v: Option<u64>) {
    match v {
        Some(v) => write_u64(out, v),
        None => out.push_str("null"),
    }
}

fn field_u64(doc: &Json, name: &str) -> Result<u64, String> {
    doc.get(name)
        .and_then(as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{name}'"))
}

fn field_array<'a>(doc: &'a Json, name: &str) -> Result<&'a [Json], String> {
    doc.get(name)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing or non-array field '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunRecord {
        let mut rec = RunRecord {
            elapsed_ns: 5000,
            dropped_messages: 0,
            ..RunRecord::default()
        };
        rec.meta.insert("machine".into(), "t3d".into());
        rec.meta.insert("op".into(), "bcast".into());
        rec.events.push(RecEvent {
            seq: 0,
            at_ns: 0,
            kind: "rank_resume".into(),
            a: 0,
            b: 0,
            parent: None,
        });
        rec.events.push(RecEvent {
            seq: 2,
            at_ns: 1200,
            kind: "message_ready".into(),
            a: 0,
            b: 1,
            parent: Some(0),
        });
        rec.transfers.push(RecTransfer {
            src: 0,
            dst: 1,
            bytes: 4096,
            class: "bcast".into(),
            posted_ns: 100,
            wire_start_ns: 150,
            delivered_ns: 1200,
            inject_wait_ns: 0,
            link_wait_ns: 50,
        });
        rec.spans.push(RecSpan {
            rank: 1,
            kind: "recv_wait".into(),
            start_ns: 0,
            end_ns: 1200,
            woke_by: Some(0),
        });
        rec.finish_ns.push(vec![4000, 5000]);
        rec.blame_ns.insert("wire".into(), 3000);
        rec.blame_ns.insert("entry".into(), 2000);
        rec.census = Some((1, 0));
        rec.metrics.insert("exec.messages".into(), 1.0);
        rec
    }

    #[test]
    fn round_trips_through_json() {
        let rec = sample();
        let text = rec.to_json_string();
        let back = RunRecord::from_json(&text).expect("parse");
        assert_eq!(back, rec);
        assert_eq!(back.to_json_string(), text, "canonical form is stable");
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = sample()
            .to_json_string()
            .replace("\"schema_version\":1", "\"schema_version\":999");
        let err = RunRecord::from_json(&text).expect_err("version gate");
        assert!(err.contains("schema 999"), "{err}");
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(RunRecord::from_json("{\"schema_version\":1}").is_err());
        let bad = "{\"schema_version\":1,\"elapsed_ns\":1,\"dropped_messages\":0,\
                   \"events\":[[1,2]],\"transfers\":[],\"spans\":[],\"finish_ns\":[]}";
        let err = RunRecord::from_json(bad).expect_err("short event row");
        assert!(err.contains("events[0]"), "{err}");
    }

    #[test]
    fn rejects_rank_fields_beyond_u32() {
        let text = sample().to_json_string();
        for (from, to, field) in [
            (
                "\"transfers\":[[0,",
                "\"transfers\":[[4294967296,",
                "transfers[0].src",
            ),
            (
                "\"transfers\":[[0,1,",
                "\"transfers\":[[0,4294967297,",
                "transfers[0].dst",
            ),
            ("\"spans\":[[1,", "\"spans\":[[4294967296,", "spans[0].rank"),
            ("1200,0]]", "1200,4294967296]]", "spans[0].woke_by"),
        ] {
            assert!(text.contains(from), "{from}");
            let err = RunRecord::from_json(&text.replace(from, to)).expect_err(field);
            assert!(err.starts_with(field), "{err}");
            assert!(err.contains("does not fit u32"), "{err}");
        }
        // The widest rank that fits still loads.
        let max = text.replace("\"spans\":[[1,", "\"spans\":[[4294967295,");
        let rec = RunRecord::from_json(&max).expect("u32::MAX fits");
        assert_eq!(rec.spans[0].rank, u32::MAX);
    }

    #[test]
    fn same_execution_ignores_meta_and_metrics() {
        let a = sample();
        let mut b = sample();
        b.meta.insert("host".into(), "elsewhere".into());
        b.metrics.insert("engine.queue.high_water".into(), 99.0);
        assert!(a.same_execution(&b));
        assert_ne!(a.to_json_string(), b.to_json_string());
        b.events[1].at_ns += 1;
        assert!(!a.same_execution(&b));
    }

    #[test]
    fn canonicalized_erases_tie_order_but_not_semantics() {
        let a = sample();
        // Simulate a commuting adjacent swap: transpose the two events
        // and renumber the seq/parent bookkeeping the swap perturbs.
        let mut b = sample();
        b.events.swap(0, 1);
        for (i, e) in b.events.iter_mut().enumerate() {
            e.seq = 100 + i as u64;
            e.parent = e.parent.map(|_| 99);
        }
        b.meta.insert("perturb".into(), "invert_pair".into());
        b.metrics.insert("engine.queue.high_water".into(), 1.0);
        assert_ne!(a.to_json_string(), b.to_json_string());
        assert_eq!(
            a.canonicalized().to_json_string(),
            b.canonicalized().to_json_string()
        );
        // A real semantic change — an event firing at a different
        // instant — survives canonicalization.
        let mut c = sample();
        c.events[1].at_ns += 1;
        assert_ne!(
            a.canonicalized().to_json_string(),
            c.canonicalized().to_json_string()
        );
    }

    #[test]
    fn describe_and_ranks_cover_kinds() {
        let ev = RecEvent {
            seq: 17,
            at_ns: 12450,
            kind: "message_ready".into(),
            a: 0,
            b: 3,
            parent: None,
        };
        assert_eq!(
            describe_event(&ev),
            "message_ready(src=0, dst=3) @ 12450ns seq=17"
        );
        assert_eq!(event_ranks(&ev), vec![0, 3]);
        let timer = RecEvent {
            seq: 1,
            at_ns: 5,
            kind: "timer".into(),
            a: 9,
            b: 0,
            parent: None,
        };
        assert_eq!(describe_event(&timer), "timer(id=9) @ 5ns seq=1");
        assert!(event_ranks(&timer).is_empty());
    }
}
