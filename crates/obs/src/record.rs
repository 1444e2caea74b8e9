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
use std::collections::{BTreeMap, HashMap};

use crate::json::{into_string, put_u64, validate, write_f64, write_str, write_u64, Json};

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
    /// The canonical form projects the record onto exactly that: seqs
    /// and parent edges are cleared, events/transfers/spans are put in
    /// order by their payload-and-time keys, and the `meta`/`metrics`
    /// maps are dropped: meta carries run labels, and the metrics are
    /// summaries of the execution whose set depends on which exporters
    /// ran. Two runs whose canonical forms serialize to identical bytes
    /// are semantically the same execution up to tie order.
    ///
    /// The form is an order over this record, not a copy of it: the
    /// returned view borrows the rows and holds one row-index order per
    /// table, each a stable sort by its key:
    ///
    /// * events by `(at_ns, kind, a, b)`,
    /// * transfers by `(posted_ns, src, dst, wire_start_ns,
    ///   delivered_ns, bytes)`,
    /// * spans by `(rank, start_ns, end_ns, kind)`.
    ///
    /// Each table's labels are coded first: its distinct kind or class
    /// strings, sorted, number the rows, so the orders compare integers
    /// only. A table goes into order by its first key with a stable LSD
    /// radix pass over the key's bytes, skipped when the rows already
    /// run in that order (a run logs events and transfers in time
    /// order) and skipping every byte on which all rows agree; then each
    /// run of equal first key that is not already in order is sorted by
    /// the rest of the key. The cost is linear in the rows and never
    /// depends on a field's value: a loaded file that names rank
    /// `u32::MAX` needs no rank-sized table.
    pub fn canonicalized(&self) -> CanonicalRecord<'_> {
        let labels = Labels::of(self);
        let kind = &labels.events.codes;
        let mut events = radix_order(self.events.len(), |i| self.events[i].at_ns);
        sort_runs(
            &mut events,
            |i| self.events[i].at_ns,
            |i| {
                let e = &self.events[i];
                (kind[i], e.a, e.b)
            },
        );
        let mut transfers = radix_order(self.transfers.len(), |i| self.transfers[i].posted_ns);
        sort_runs(
            &mut transfers,
            |i| self.transfers[i].posted_ns,
            |i| {
                let t = &self.transfers[i];
                (t.src, t.dst, t.wire_start_ns, t.delivered_ns, t.bytes)
            },
        );
        let kind = &labels.spans.codes;
        let rank = |i: usize| u64::from(self.spans[i].rank);
        let mut spans = radix_order(self.spans.len(), rank);
        sort_runs(&mut spans, rank, |i| {
            let s = &self.spans[i];
            (s.start_ns, s.end_ns, kind[i])
        });
        CanonicalRecord {
            rec: self,
            labels,
            order: RowOrder {
                events,
                transfers,
                spans,
            },
        }
    }

    /// Canonical compact serialization: byte equality of two outputs is
    /// the `ByteIdentical` verdict.
    pub fn to_json_string(&self) -> String {
        self.write_json(&Labels::of(self), None)
    }

    /// The one record writer, for the raw form (`order` is `None`: rows
    /// in firing order, every field) and the canonical form (rows in
    /// `order`, `seq` written as 0, `parent` as `null`, `meta` and
    /// `metrics` as `{}`).
    ///
    /// Streams into one pre-sized buffer: members in sorted key order
    /// (the order a [`Json`] object uses), rows as compact arrays, and
    /// every scalar by the shared `obs::json` rules, so the bytes are
    /// exactly what the equivalent [`Json`] tree serializes to. Each
    /// event, transfer and span row is formatted in one reused buffer,
    /// its label copied from `labels`, and appended whole.
    fn write_json(&self, labels: &Labels, order: Option<&RowOrder>) -> String {
        let raw = order.is_none();
        let mut out = Vec::with_capacity(self.json_size_hint());
        out.extend_from_slice(b"{\"blame_ns\":");
        write_object(&mut out, &self.blame_ns, |out, &v| write_u64(out, v));
        if let Some((transfers, uncontended)) = self.census {
            out.extend_from_slice(b",\"census\":{\"transfers\":");
            write_u64(&mut out, transfers);
            out.extend_from_slice(b",\"uncontended\":");
            write_u64(&mut out, uncontended);
            out.push(b'}');
        }
        out.extend_from_slice(b",\"dropped_messages\":");
        write_u64(&mut out, self.dropped_messages);
        out.extend_from_slice(b",\"elapsed_ns\":");
        write_u64(&mut out, self.elapsed_ns);
        out.extend_from_slice(b",\"events\":");
        write_rows(
            &mut out,
            &self.events,
            &labels.events,
            order.map(|o| &o.events[..]),
            |row, e, kind| {
                row.u64(if raw { e.seq } else { 0 });
                row.byte(b',');
                row.u64(e.at_ns);
                row.byte(b',');
                row.label(kind);
                row.byte(b',');
                row.u64(e.a);
                row.byte(b',');
                row.u64(e.b);
                row.byte(b',');
                row.opt(e.parent.filter(|_| raw));
            },
        );
        out.extend_from_slice(b",\"finish_ns\":[");
        for (s, seg) in self.finish_ns.iter().enumerate() {
            out.extend_from_slice(if s > 0 { b",[" } else { b"[" });
            for (i, &t) in seg.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_u64(&mut out, t);
            }
            out.push(b']');
        }
        out.extend_from_slice(b"],\"meta\":");
        if raw {
            write_object(&mut out, &self.meta, |out, v| write_str(out, v));
        } else {
            out.extend_from_slice(b"{}");
        }
        out.extend_from_slice(b",\"metrics\":");
        if raw {
            write_object(&mut out, &self.metrics, |out, &v| write_f64(out, v));
        } else {
            out.extend_from_slice(b"{}");
        }
        out.extend_from_slice(b",\"schema_version\":");
        write_u64(&mut out, SCHEMA_VERSION);
        out.extend_from_slice(b",\"spans\":");
        write_rows(
            &mut out,
            &self.spans,
            &labels.spans,
            order.map(|o| &o.spans[..]),
            |row, s, kind| {
                row.u64(u64::from(s.rank));
                row.byte(b',');
                row.label(kind);
                row.byte(b',');
                row.u64(s.start_ns);
                row.byte(b',');
                row.u64(s.end_ns);
                row.byte(b',');
                row.opt(s.woke_by.map(u64::from));
            },
        );
        out.extend_from_slice(b",\"transfers\":");
        write_rows(
            &mut out,
            &self.transfers,
            &labels.transfers,
            order.map(|o| &o.transfers[..]),
            |row, t, class| {
                for v in [u64::from(t.src), u64::from(t.dst), t.bytes] {
                    row.u64(v);
                    row.byte(b',');
                }
                row.label(class);
                for v in [
                    t.posted_ns,
                    t.wire_start_ns,
                    t.delivered_ns,
                    t.inject_wait_ns,
                    t.link_wait_ns,
                ] {
                    row.byte(b',');
                    row.u64(v);
                }
            },
        );
        out.push(b'}');
        into_string(out)
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

/// The canonical form of a [`RunRecord`] (see
/// [`RunRecord::canonicalized`]): the record itself, borrowed, its label
/// tables, and the order its rows serialize in.
#[derive(Debug, Clone)]
pub struct CanonicalRecord<'a> {
    rec: &'a RunRecord,
    labels: Labels,
    order: RowOrder,
}

impl CanonicalRecord<'_> {
    /// The canonical compact serialization: rows in canonical order,
    /// seqs as 0, parent edges as `null`, `meta` and `metrics` empty.
    pub fn to_json_string(&self) -> String {
        self.rec.write_json(&self.labels, Some(&self.order))
    }
}

/// Row indices of each table in canonical order.
#[derive(Debug, Clone)]
struct RowOrder {
    events: Vec<u32>,
    transfers: Vec<u32>,
    spans: Vec<u32>,
}

/// The label table of each of a record's row tables: event kinds,
/// transfer classes, span kinds.
#[derive(Debug, Clone)]
struct Labels {
    events: LabelTable,
    transfers: LabelTable,
    spans: LabelTable,
}

impl Labels {
    fn of(rec: &RunRecord) -> Self {
        Labels {
            events: LabelTable::new(rec.events.iter().map(|e| &*e.kind)),
            transfers: LabelTable::new(rec.transfers.iter().map(|t| &*t.class)),
            spans: LabelTable::new(rec.spans.iter().map(|s| &*s.kind)),
        }
    }
}

/// One table's labels: its distinct strings in sorted order, each as
/// the quoted and escaped bytes it serializes to, and every row's
/// *code*, the position of its label in that order. Codes compare as
/// the strings do.
#[derive(Debug, Clone, Default)]
struct LabelTable {
    /// Per row, its label's code.
    codes: Vec<u32>,
    /// The serialized labels back to back: label `c` is
    /// `text[ends[c - 1]..ends[c]]` (from 0 for `c = 0`).
    text: Vec<u8>,
    ends: Vec<usize>,
}

/// Distinct labels a table finds by scanning its list; past this many
/// it switches to a hash map, so a loaded file with a distinct label
/// per row still costs time linear in the rows.
const LABEL_SCAN: usize = 16;

impl LabelTable {
    fn new<'r>(labels: impl ExactSizeIterator<Item = &'r str>) -> Self {
        // Codes in order of first appearance first. A run's labels are
        // the executor's static strings, so the address usually decides,
        // and neighbouring rows often share one.
        let mut distinct: Vec<&str> = Vec::new();
        let mut index: HashMap<&str, u32> = HashMap::new();
        let mut codes = Vec::with_capacity(labels.len());
        let mut last: Option<(&str, u32)> = None;
        for label in labels {
            if let Some((_, code)) = last.filter(|&(l, _)| std::ptr::eq(l, label)) {
                codes.push(code);
                continue;
            }
            let found = if distinct.len() <= LABEL_SCAN {
                distinct
                    .iter()
                    .position(|&d| std::ptr::eq(d, label))
                    .or_else(|| distinct.iter().position(|&d| d == label))
                    .map(|c| c as u32)
            } else {
                index.get(label).copied()
            };
            let code = found.unwrap_or_else(|| {
                distinct.push(label);
                let code = (distinct.len() - 1) as u32;
                if distinct.len() > LABEL_SCAN {
                    if index.is_empty() {
                        index.extend(distinct.iter().zip(0..).map(|(&d, c)| (d, c)));
                    } else {
                        index.insert(label, code);
                    }
                }
                code
            });
            last = Some((label, code));
            codes.push(code);
        }
        // Renumber by sorted position.
        let mut sorted: Vec<u32> = (0..distinct.len() as u32).collect();
        sorted.sort_unstable_by_key(|&c| distinct[c as usize]);
        let mut position = vec![0u32; distinct.len()];
        for (pos, &c) in sorted.iter().enumerate() {
            position[c as usize] = pos as u32;
        }
        for code in &mut codes {
            *code = position[*code as usize];
        }
        let mut text = Vec::new();
        let mut ends = Vec::with_capacity(sorted.len());
        for &c in &sorted {
            write_str(&mut text, distinct[c as usize]);
            ends.push(text.len());
        }
        LabelTable { codes, text, ends }
    }

    /// The serialized label of row `i`.
    fn of_row(&self, i: usize) -> &[u8] {
        let c = self.codes[i] as usize;
        let start = if c == 0 { 0 } else { self.ends[c - 1] };
        &self.text[start..self.ends[c]]
    }
}

/// The indices `0..n` in stable order by `key`: a least-significant-
/// digit radix sort over the key's bytes, one counting pass per byte on
/// which the keys differ, skipped whole when the keys already ascend.
fn radix_order(n: usize, key: impl Fn(usize) -> u64) -> Vec<u32> {
    let n32 = u32::try_from(n).expect("a record holds fewer than 2^32 rows per table");
    let mut order: Vec<u32> = (0..n32).collect();
    if order.is_sorted_by_key(|&i| key(i as usize)) {
        return order;
    }
    let first = key(0);
    let differ = (1..n).fold(0, |acc, i| acc | (key(i) ^ first));
    let mut next = vec![0u32; n];
    for shift in (0..64).step_by(8).filter(|s| (differ >> s) & 0xff != 0) {
        let digit = |i: u32| (key(i as usize) >> shift) as u8 as usize;
        let mut at = [0u32; 256];
        for &i in &order {
            at[digit(i)] += 1;
        }
        let mut sum = 0;
        for slot in &mut at {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &i in &order {
            let slot = &mut at[digit(i)];
            next[*slot as usize] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

/// Stable-sorts by `rest` each run of `order` whose `first` keys are
/// equal, leaving a run that is already in order as it is. With `order`
/// stable by `first`, each run's indices ascend, so sorting the run's
/// `(rest, index)` pairs is the stable sort by `rest`, and the result
/// is stable by `(first, rest)`.
fn sort_runs<K: Ord>(order: &mut [u32], first: impl Fn(usize) -> u64, rest: impl Fn(usize) -> K) {
    let mut keyed: Vec<(K, u32)> = Vec::new();
    for run in order.chunk_by_mut(|&x, &y| first(x as usize) == first(y as usize)) {
        if run.len() < 2 {
            continue;
        }
        keyed.clear();
        keyed.extend(run.iter().map(|&i| (rest(i as usize), i)));
        if !keyed.is_sorted() {
            keyed.sort_unstable();
            for (slot, (_, i)) in run.iter_mut().zip(keyed.drain(..)) {
                *slot = i;
            }
        }
    }
}

/// A rank field: an integer that fits `u32`. A wider value is an error
/// naming the field, never a silent truncation.
fn as_u32(j: &Json, field: impl Fn() -> String) -> Result<u32, String> {
    let v = as_u64(j).ok_or_else(&field)?;
    u32::try_from(v).map_err(|_| format!("{}: {v} does not fit u32", field()))
}

/// The most bytes a row holds besides its label: nine integers of up
/// to 20 digits, their separators, the brackets and the leading comma.
const ROW_NUMBERS: usize = 192;

/// One row being formatted in a stack buffer, appended to `out` whole
/// by [`Row::finish`]: digits are written in place by [`put_u64`] and
/// the label is copied in. A label too long to share the buffer with
/// the rest of its row goes straight to `out` instead, after the bytes
/// before it.
struct Row<'o> {
    out: &'o mut Vec<u8>,
    buf: [u8; 512],
    len: usize,
}

impl Row<'_> {
    fn u64(&mut self, v: u64) {
        self.len += put_u64(&mut self.buf[self.len..], v);
    }

    fn byte(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    fn bytes(&mut self, s: &[u8]) {
        self.buf[self.len..self.len + s.len()].copy_from_slice(s);
        self.len += s.len();
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            Some(v) => self.u64(v),
            None => self.bytes(b"null"),
        }
    }

    /// Writes a serialized label. At most [`ROW_NUMBERS`] bytes follow
    /// it in its row, and at most that many precede it.
    fn label(&mut self, s: &[u8]) {
        if self.len + s.len() + ROW_NUMBERS > self.buf.len() {
            self.out.extend_from_slice(&self.buf[..self.len]);
            self.out.extend_from_slice(s);
            self.len = 0;
        } else {
            self.bytes(s);
        }
    }

    /// Appends the row and starts the next one.
    fn finish(&mut self) {
        self.out.extend_from_slice(&self.buf[..self.len]);
        self.len = 0;
    }
}

/// Writes `[row,row,…]`, each row a compact array whose inner elements
/// `fields` writes, given the row and its serialized label, in `order`
/// (row indices) or else in slice order.
fn write_rows<T>(
    out: &mut Vec<u8>,
    rows: &[T],
    labels: &LabelTable,
    order: Option<&[u32]>,
    fields: impl Fn(&mut Row<'_>, &T, &[u8]),
) {
    out.push(b'[');
    let mut row = Row {
        out,
        buf: [0; 512],
        len: 0,
    };
    for k in 0..rows.len() {
        let i = order.map_or(k, |o| o[k] as usize);
        if k > 0 {
            row.byte(b',');
        }
        row.byte(b'[');
        fields(&mut row, &rows[i], labels.of_row(i));
        row.byte(b']');
        row.finish();
    }
    row.out.push(b']');
}

/// Writes a sorted-key object whose values `value` writes.
fn write_object<V>(out: &mut Vec<u8>, map: &BTreeMap<String, V>, value: impl Fn(&mut Vec<u8>, &V)) {
    out.push(b'{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_str(out, k);
        out.push(b':');
        value(out, v);
    }
    out.push(b'}');
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
    fn serialized_bytes_are_pinned() {
        let raw = concat!(
            r#"{"blame_ns":{"entry":2000,"wire":3000},"census":{"transfers":1,"uncontended":0},"#,
            r#""dropped_messages":0,"elapsed_ns":5000,"events":[[0,0,"rank_resume",0,0,null],"#,
            r#"[2,1200,"message_ready",0,1,0]],"finish_ns":[[4000,5000]],"#,
            r#""meta":{"machine":"t3d","op":"bcast"},"metrics":{"exec.messages":1.0},"#,
            r#""schema_version":1,"spans":[[1,"recv_wait",0,1200,0]],"#,
            r#""transfers":[[0,1,4096,"bcast",100,150,1200,0,50]]}"#
        );
        let canonical = concat!(
            r#"{"blame_ns":{"entry":2000,"wire":3000},"census":{"transfers":1,"uncontended":0},"#,
            r#""dropped_messages":0,"elapsed_ns":5000,"events":[[0,0,"rank_resume",0,0,null],"#,
            r#"[0,1200,"message_ready",0,1,null]],"finish_ns":[[4000,5000]],"#,
            r#""meta":{},"metrics":{},"#,
            r#""schema_version":1,"spans":[[1,"recv_wait",0,1200,0]],"#,
            r#""transfers":[[0,1,4096,"bcast",100,150,1200,0,50]]}"#
        );
        assert_eq!(sample().to_json_string(), raw);
        assert_eq!(sample().canonicalized().to_json_string(), canonical);
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
