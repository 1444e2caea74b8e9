//! Fuzz-style properties over every input loader: random bytes and
//! mutated valid documents must come back as a value or a typed error,
//! never as a panic or a stack overflow. The loaders are
//! `obs::validate`, `RunRecord::from_json`, `Dataset::from_csv` and
//! `PointCli::accept` (with the size check of the point it selects).
//! The mutations are truncation, byte flips, inserted brackets and
//! quotes, dropped array elements, nesting past `MAX_DEPTH`, and
//! integers past `u64::MAX`.

use bench::cli::PointCli;
use bench::suite::{record_point, SuitePoint};
use desim::check::{forall, Gen};
use harness::{Dataset, Protocol, SweepBuilder};
use mpisim::{Machine, OpClass, TieBreakPolicy};
use obs::json::MAX_DEPTH;
use obs::record::RunRecord;

/// One valid document per text loader: a run record and a dataset CSV,
/// each small but with every section filled.
fn valid_documents() -> [String; 2] {
    let scan = SuitePoint::new(Machine::t3d(), OpClass::Scan, 8, 64);
    let record = record_point(&scan, TieBreakPolicy::InsertionOrder, None)
        .record
        .to_json_string();
    let dataset = SweepBuilder::new()
        .machines([Machine::sp2()])
        .ops([OpClass::Bcast, OpClass::Barrier])
        .message_sizes([16])
        .node_counts([2, 4])
        .protocol(Protocol::quick())
        .run()
        .expect("sweep")
        .to_csv();
    [record, dataset]
}

/// Feeds `text` to every text loader. The results are dropped: the
/// property is that each call returns.
fn load_all(text: &str) {
    let _ = obs::validate(text);
    let _ = RunRecord::from_json(text);
    let _ = Dataset::from_csv(text);
}

/// Applies one to four random mutations to `doc`.
fn mutate(g: &mut Gen, doc: &str) -> String {
    const PUNCTUATION: &[u8] = b"[]{}\",:\\";
    const HUGE: [&str; 4] = [
        "18446744073709551616",
        "-9223372036854775809",
        "340282366920938463463374607431768211456",
        "1e400",
    ];
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..g.usize(1, 4) {
        let at = g.usize(0, bytes.len());
        match g.usize(0, 5) {
            0 => bytes.truncate(at),
            1 if at < bytes.len() => bytes[at] = g.u32(0, 255) as u8,
            2 => bytes.insert(at, *g.pick(PUNCTUATION)),
            3 => {
                let open = if g.bool() { "[" } else { "{\"k\":" };
                // Just past the cap, or deep enough to overflow the
                // stack of a parser that lacks it.
                let depth = MAX_DEPTH + [g.usize(1, 64), g.usize(1 << 13, 1 << 14)][g.usize(0, 1)];
                bytes.splice(at..at, open.repeat(depth).into_bytes());
            }
            4 => {
                // Drop one comma-led element: `[a,b,c]` becomes `[a,c]`,
                // often still valid JSON but one field short.
                if let Some(k) = bytes[at..].iter().position(|&b| b == b',') {
                    let start = at + k;
                    let end = bytes[start + 1..]
                        .iter()
                        .position(|b| b",]}".contains(b))
                        .map_or(bytes.len(), |n| start + 1 + n);
                    bytes.drain(start..end);
                }
            }
            _ => {
                // Replace the next digit run (or insert at the end).
                let start = bytes[at..]
                    .iter()
                    .position(u8::is_ascii_digit)
                    .map_or(bytes.len(), |k| at + k);
                let end = start
                    + bytes[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                bytes.splice(start..end, g.pick(&HUGE).bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn valid_documents_load() {
    let [record, dataset] = valid_documents();
    let rec = RunRecord::from_json(&record).expect("record loads");
    assert!(!rec.events.is_empty() && !rec.transfers.is_empty());
    assert_eq!(Dataset::from_csv(&dataset).expect("dataset loads").len(), 4);
}

#[test]
fn random_bytes_never_panic_a_loader() {
    const TOKENS: [&str; 12] = [
        "{", "}", "[", "]", "\"", ",", ":", "-", "1", "e", "null", "\n",
    ];
    forall("random bytes", 1_000, |g| {
        let mut bytes = Vec::new();
        for _ in 0..g.usize(0, 400) {
            if g.bool() {
                bytes.extend_from_slice(g.pick(&TOKENS).as_bytes());
            } else {
                bytes.push(g.u32(0, 255) as u8);
            }
        }
        load_all(&String::from_utf8_lossy(&bytes));
    });
}

#[test]
fn mutated_documents_never_panic_a_loader() {
    let docs = valid_documents();
    forall("mutated documents", 2_000, |g| {
        let doc = g.pick(&docs).clone();
        load_all(&mutate(g, &doc));
    });
}

#[test]
fn point_flags_never_panic() {
    const FLAGS: &str =
        "--machine --op -p --nodes -m --bytes --out --threads --trace-cap --suite -x";
    const VALUES: &str =
        "sp2 T3D paragon cm5 bcast Broadcast barrier 0 64 65 129 -1 4294967296 18446744073709551616";
    let flags: Vec<&str> = FLAGS.split(' ').collect();
    let values: Vec<&str> = VALUES.split(' ').collect();
    forall("point flags", 1_000, |g| {
        let mut cli = PointCli::default();
        for _ in 0..g.usize(0, 8) {
            let flag = *g.pick(&flags);
            let value = *g.pick(&values);
            let mut value = match g.usize(0, 3) {
                0 => None,
                1 => Some(mutate(g, value)),
                _ => Some(value.to_string()),
            };
            cli.accept(flag, || value.take());
        }
        let _ = cli.selection_ok();
        let _ = cli.check_point();
        let _ = cli.point();
    });
}
