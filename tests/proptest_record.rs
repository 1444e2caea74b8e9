//! Property tests for the canonical run-record serializer
//! (`obs::record`), over random records with hostile strings, missing
//! parents, empty and non-empty maps, special floats and optional
//! census:
//!
//! * the streamed `to_json_string` equals the reference `Json`-tree
//!   serialization byte for byte,
//! * `from_json` round-trips,
//! * `canonicalized()` serializes exactly like clone + clear + stable
//!   sort, the definition it replaced.
//!
//! Half the records are shuffled, as a hand-edited file may be; the
//! other half are laid out the way an execution logs them (events in
//! firing order with same-instant groups of up to 64, transfers by
//! post instant, spans interleaved over up to 64 ranks), which is the
//! input the canonical order's already-in-order shortcuts serve. Rank
//! ranges straddle byte boundaries and reach `u32::MAX`, so a radix
//! pass that skipped a byte would misorder them.

use std::borrow::Cow;
use std::collections::BTreeMap;

use desim::check::{forall, Gen};
use obs::json::Json;
use obs::record::{RecEvent, RecSpan, RecTransfer, RunRecord, SCHEMA_VERSION};

/// The record as a `Json` tree — the tree builder the streaming writer
/// replaced, kept as the reference it must match.
fn reference_json(rec: &RunRecord) -> Json {
    let events = rec
        .events
        .iter()
        .map(|e| {
            Json::Array(vec![
                Json::UInt(e.seq),
                Json::UInt(e.at_ns),
                Json::str(e.kind.as_ref()),
                Json::UInt(e.a),
                Json::UInt(e.b),
                e.parent.map_or(Json::Null, Json::UInt),
            ])
        })
        .collect();
    let transfers = rec
        .transfers
        .iter()
        .map(|t| {
            Json::Array(vec![
                Json::UInt(t.src as u64),
                Json::UInt(t.dst as u64),
                Json::UInt(t.bytes),
                Json::str(t.class.as_ref()),
                Json::UInt(t.posted_ns),
                Json::UInt(t.wire_start_ns),
                Json::UInt(t.delivered_ns),
                Json::UInt(t.inject_wait_ns),
                Json::UInt(t.link_wait_ns),
            ])
        })
        .collect();
    let spans = rec
        .spans
        .iter()
        .map(|s| {
            Json::Array(vec![
                Json::UInt(s.rank as u64),
                Json::str(s.kind.as_ref()),
                Json::UInt(s.start_ns),
                Json::UInt(s.end_ns),
                s.woke_by.map_or(Json::Null, |w| Json::UInt(w as u64)),
            ])
        })
        .collect();
    let finish = rec
        .finish_ns
        .iter()
        .map(|seg| Json::Array(seg.iter().map(|&t| Json::UInt(t)).collect()))
        .collect();
    let mut doc = vec![
        ("schema_version", Json::UInt(SCHEMA_VERSION)),
        (
            "meta",
            Json::object(rec.meta.iter().map(|(k, v)| (k.clone(), Json::str(v)))),
        ),
        ("elapsed_ns", Json::UInt(rec.elapsed_ns)),
        ("dropped_messages", Json::UInt(rec.dropped_messages)),
        ("events", Json::Array(events)),
        ("transfers", Json::Array(transfers)),
        ("spans", Json::Array(spans)),
        ("finish_ns", Json::Array(finish)),
        (
            "blame_ns",
            Json::object(
                rec.blame_ns
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::UInt(v))),
            ),
        ),
        (
            "metrics",
            Json::object(
                rec.metrics
                    .iter()
                    .map(|(k, &v)| (k.clone(), Json::Float(v))),
            ),
        ),
    ];
    if let Some((transfers, uncontended)) = rec.census {
        doc.push((
            "census",
            Json::object([
                ("transfers", Json::UInt(transfers)),
                ("uncontended", Json::UInt(uncontended)),
            ]),
        ));
    }
    Json::object(doc)
}

/// The canonical form as first defined: a full clone, both host maps
/// cleared, seq and parent erased, and three stable sorts.
fn reference_canonical(rec: &RunRecord) -> RunRecord {
    let mut c = rec.clone();
    c.meta.clear();
    c.metrics.clear();
    for e in &mut c.events {
        e.seq = 0;
        e.parent = None;
    }
    c.events
        .sort_by(|x, y| (x.at_ns, &x.kind, x.a, x.b).cmp(&(y.at_ns, &y.kind, y.a, y.b)));
    c.transfers.sort_by_key(|t| {
        (
            t.posted_ns,
            t.src,
            t.dst,
            t.wire_start_ns,
            t.delivered_ns,
            t.bytes,
        )
    });
    c.spans.sort_by(|x, y| {
        (x.rank, x.start_ns, x.end_ns, &x.kind).cmp(&(y.rank, y.start_ns, y.end_ns, &y.kind))
    });
    c
}

/// Characters that stress the escaper: quotes, backslashes, every kind
/// of control character, DEL, and multi-byte UTF-8.
const NASTY: &[char] = &[
    'a', 'z', '_', '.', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', '∑', '🚀',
];

fn text(g: &mut Gen) -> String {
    // Now and then a label longer than the writer's row buffer.
    let n = if g.usize(0, 40) == 0 {
        g.usize(200, 700)
    } else {
        g.usize(0, 6)
    };
    (0..n).map(|_| *g.pick(NASTY)).collect()
}

/// A kind key: mostly the executor's static vocabulary (borrowed), the
/// rest owned hostile strings as a parsed record would carry.
fn kind(g: &mut Gen, vocab: &[&'static str]) -> Cow<'static, str> {
    if g.usize(0, 3) > 0 {
        Cow::Borrowed(*g.pick(vocab))
    } else {
        Cow::Owned(text(g))
    }
}

/// A wide-ranging integer, biased to small values so sort keys tie.
fn int(g: &mut Gen) -> u64 {
    match g.usize(0, 3) {
        0 => g.u64(0, 3),
        1 => g.u64(0, 1_000),
        2 => *g.pick(&[u64::MAX, u64::from(u32::MAX), 1 << 53, 10, 99, 100]),
        _ => g.u64(0, u64::MAX),
    }
}

fn float(g: &mut Gen) -> f64 {
    let uniform = g.f64(-1e6, 1e6);
    *g.pick(&[
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        1e15,
        -1e15,
        999_999_999_999_999.0,
        1e16,
        1e300,
        3.0,
        -7.0,
        0.1,
        2.5e-8,
        f64::MIN_POSITIVE,
        f64::MAX,
        uniform,
    ])
}

fn map<V>(g: &mut Gen, mut value: impl FnMut(&mut Gen) -> V) -> BTreeMap<String, V> {
    let n = if g.bool() { 0 } else { g.usize(1, 5) };
    (0..n).map(|_| (text(g), value(g))).collect()
}

/// A sort-key field drawn from a few values so rows tie, now and then
/// a huge one.
fn tied(g: &mut Gen, hi: u64) -> u64 {
    if g.usize(0, 15) == 0 {
        u64::from(u32::MAX) + g.u64(0, 1)
    } else {
        g.u64(0, hi)
    }
}

const EVENTS: &[&str] = &["rank_resume", "message_ready", "timer"];
const CLASSES: &[&str] = &["bcast", "alltoall", "scan"];
const SPANS: &[&str] = &["send_sw", "recv_wait", "copy"];

fn random_record(g: &mut Gen) -> RunRecord {
    if g.bool() {
        return executor_record(g);
    }
    let mut events: Vec<RecEvent> = (0..g.usize(0, 120))
        .map(|_| RecEvent {
            seq: int(g),
            at_ns: tied(g, 5),
            kind: kind(g, EVENTS),
            a: g.u64(0, 2),
            b: int(g) % 3,
            parent: g.bool().then(|| int(g)),
        })
        .collect();
    let mut transfers: Vec<RecTransfer> = (0..g.usize(0, 60))
        .map(|_| RecTransfer {
            src: if g.usize(0, 5) == 0 {
                u32::MAX
            } else {
                g.u32(0, 2)
            },
            dst: g.u32(0, 2),
            bytes: g.u64(0, 1),
            class: kind(g, CLASSES),
            posted_ns: tied(g, 3),
            wire_start_ns: g.u64(0, 1),
            delivered_ns: g.u64(0, 1),
            inject_wait_ns: int(g),
            link_wait_ns: int(g),
        })
        .collect();
    let spans = (0..g.usize(0, 100))
        .map(|_| RecSpan {
            rank: tied(g, 2).min(u64::from(u32::MAX)) as u32,
            kind: kind(g, SPANS),
            start_ns: g.u64(0, 2),
            end_ns: g.u64(0, 2),
            woke_by: g.bool().then(|| g.u32(0, u32::MAX)),
        })
        .collect();
    // Some shuffled records are still in time order.
    if g.bool() {
        events.sort_by_key(|e| e.at_ns);
        transfers.sort_by_key(|t| t.posted_ns);
    }
    with_tables(g, events, transfers, spans)
}

/// A record laid out as an execution logs one: events in firing order,
/// each instant a group of up to 64 (in random order, or already in
/// canonical order), transfers by post instant with ties, and spans in
/// emission order, interleaved over up to 64 ranks. The ranks are
/// `base..base + ranks` for a base that puts them across a byte
/// boundary or up to `u32::MAX`.
fn executor_record(g: &mut Gen) -> RunRecord {
    let ranks = g.u32(1, 64);
    let base = *g.pick(&[0, 256 - 32, (1 << 16) - 32, (1 << 24) - 32, u32::MAX - 63]);
    let base = base.min(u32::MAX - (ranks - 1));
    let rank = |g: &mut Gen| base + g.u32(0, ranks - 1);
    let mut events = Vec::new();
    let mut at = int(g) % 1_000;
    for _ in 0..g.usize(0, 6) {
        let mut group: Vec<RecEvent> = (0..g.usize(1, 64))
            .map(|_| RecEvent {
                seq: int(g),
                at_ns: at,
                kind: kind(g, EVENTS),
                a: u64::from(rank(g)),
                b: g.u64(0, 3),
                parent: g.bool().then(|| int(g)),
            })
            .collect();
        if g.bool() {
            group.sort_by(|x, y| (&x.kind, x.a, x.b).cmp(&(&y.kind, y.a, y.b)));
        }
        events.extend(group);
        at += g.u64(1, 1_000);
    }
    let mut posted = 0;
    let transfers = (0..g.usize(0, 80))
        .map(|_| {
            posted += g.u64(0, 1);
            RecTransfer {
                src: rank(g),
                dst: rank(g),
                bytes: g.u64(0, 1),
                class: kind(g, CLASSES),
                posted_ns: posted,
                wire_start_ns: posted + g.u64(0, 1),
                delivered_ns: posted + g.u64(1, 2),
                inject_wait_ns: int(g),
                link_wait_ns: int(g),
            }
        })
        .collect();
    // Each rank's spans start in time order; the ranks take turns.
    let mut clock = vec![0u64; ranks as usize];
    let spans = (0..g.usize(0, 150))
        .map(|_| {
            let r = g.u32(0, ranks - 1);
            let start = clock[r as usize] + g.u64(0, 1);
            let end = start + g.u64(0, 2);
            clock[r as usize] = if g.bool() { end } else { start };
            RecSpan {
                rank: base + r,
                kind: kind(g, SPANS),
                start_ns: start,
                end_ns: end,
                woke_by: g.bool().then(|| rank(g)),
            }
        })
        .collect();
    with_tables(g, events, transfers, spans)
}

/// A record of the given rows with random scalars and maps.
fn with_tables(
    g: &mut Gen,
    events: Vec<RecEvent>,
    transfers: Vec<RecTransfer>,
    spans: Vec<RecSpan>,
) -> RunRecord {
    let finish_ns = (0..g.usize(0, 3))
        .map(|_| (0..g.usize(0, 5)).map(|_| int(g)).collect())
        .collect();
    RunRecord {
        meta: map(g, text),
        elapsed_ns: int(g),
        dropped_messages: int(g),
        events,
        transfers,
        spans,
        finish_ns,
        blame_ns: map(g, int),
        census: g.bool().then(|| (int(g), int(g))),
        metrics: map(g, float),
    }
}

#[test]
fn streamed_bytes_equal_the_reference_tree() {
    forall("record_stream_equals_tree", 256, |g| {
        let rec = random_record(g);
        let text = rec.to_json_string();
        assert_eq!(text, reference_json(&rec).to_string_compact());
        let parsed = obs::json::validate(&text).expect("streamed record is valid JSON");
        assert_eq!(parsed.get("census").is_some(), rec.census.is_some());
    });
}

#[test]
fn from_json_round_trips() {
    forall("record_round_trip", 256, |g| {
        let rec = random_record(g);
        let text = rec.to_json_string();
        let back = RunRecord::from_json(&text).expect("parse");
        // Non-finite metrics serialize as `null` and load as NaN, so
        // compare bytes always and values when every metric is finite.
        assert_eq!(back.to_json_string(), text);
        if rec.metrics.values().all(|v| v.is_finite()) {
            assert_eq!(back, rec);
        }
    });
}

#[test]
fn canonicalized_equals_clone_and_stable_sort() {
    forall("record_canonical_equals_reference", 512, |g| {
        let rec = random_record(g);
        assert_eq!(
            rec.canonicalized().to_json_string(),
            reference_canonical(&rec).to_json_string()
        );
    });
}
