//! Chrome Trace Event Format export.
//!
//! [`ChromeTrace`] accumulates events and serializes them as a JSON
//! *array* — the format's simplest container, accepted by Perfetto and
//! `chrome://tracing`. The simulator maps one *process* per simulated
//! machine and one *thread track* per MPI rank; message transfers become
//! flow events ("async arrows") from the sender's track to the
//! receiver's.
//!
//! Timestamps are microseconds (`ts`/`dur` are `f64` µs per the spec);
//! callers convert from the simulator's integer nanoseconds at the
//! boundary.
//!
//! # Examples
//!
//! ```
//! use obs::ChromeTrace;
//!
//! let mut t = ChromeTrace::new();
//! t.thread_name(0, 3, "rank 3");
//! t.complete(0, 3, "send", 1.0, 2.5, &[("bytes", "4096")]);
//! t.flow("msg", 42, (0, 1, 1.5), (0, 2, 3.0));
//! let json = t.to_json_string();
//! assert!(json.starts_with('['));
//! ```

use crate::json::{into_string, Json};

/// Builder for a Chrome Trace Event array.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<Json>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn push(&mut self, mut fields: Vec<(&'static str, Json)>, args: &[(&str, &str)]) {
        if !args.is_empty() {
            fields.push((
                "args",
                Json::object(args.iter().map(|&(k, v)| (k, Json::str(v)))),
            ));
        }
        self.events.push(Json::object(fields));
    }

    /// Names the process (`pid`) track — shown as the group header.
    pub fn process_name(&mut self, pid: u32, name: &str) {
        self.push(
            vec![
                ("ph", Json::str("M")),
                ("name", Json::str("process_name")),
                ("pid", Json::UInt(u64::from(pid))),
                ("tid", Json::UInt(0)),
                ("ts", Json::Float(0.0)),
            ],
            &[("name", name)],
        );
    }

    /// Names a thread (`tid`) track within a process — one per rank.
    pub fn thread_name(&mut self, pid: u32, tid: u32, name: &str) {
        self.push(
            vec![
                ("ph", Json::str("M")),
                ("name", Json::str("thread_name")),
                ("pid", Json::UInt(u64::from(pid))),
                ("tid", Json::UInt(u64::from(tid))),
                ("ts", Json::Float(0.0)),
            ],
            &[("name", name)],
        );
    }

    /// A complete event (`ph:"X"`): a named span `[start_us, end_us]`
    /// on one track. Zero-length spans are widened to an epsilon so
    /// they stay visible.
    pub fn complete(
        &mut self,
        pid: u32,
        tid: u32,
        name: &str,
        start_us: f64,
        end_us: f64,
        args: &[(&str, &str)],
    ) {
        let dur = (end_us - start_us).max(0.001);
        self.push(
            vec![
                ("ph", Json::str("X")),
                ("name", Json::str(name)),
                ("pid", Json::UInt(u64::from(pid))),
                ("tid", Json::UInt(u64::from(tid))),
                ("ts", Json::Float(start_us)),
                ("dur", Json::Float(dur)),
            ],
            args,
        );
    }

    /// A flow arrow between two track points — one message in flight.
    /// Each endpoint is `(pid, tid, ts_us)`; `id` ties the start/finish
    /// pair together and must be unique per arrow.
    pub fn flow(&mut self, name: &str, id: u64, src: (u32, u32, f64), dst: (u32, u32, f64)) {
        let (src_pid, src_tid, start_us) = src;
        let (dst_pid, dst_tid, end_us) = dst;
        self.push(
            vec![
                ("ph", Json::str("s")),
                ("name", Json::str(name)),
                ("cat", Json::str("msg")),
                ("id", Json::UInt(id)),
                ("pid", Json::UInt(u64::from(src_pid))),
                ("tid", Json::UInt(u64::from(src_tid))),
                ("ts", Json::Float(start_us)),
            ],
            &[],
        );
        self.push(
            vec![
                ("ph", Json::str("f")),
                ("bp", Json::str("e")),
                ("name", Json::str(name)),
                ("cat", Json::str("msg")),
                ("id", Json::UInt(id)),
                ("pid", Json::UInt(u64::from(dst_pid))),
                ("tid", Json::UInt(u64::from(dst_tid))),
                ("ts", Json::Float(end_us.max(start_us))),
            ],
            &[],
        );
    }

    /// A counter event (`ph:"C"`): a sampled numeric series, rendered
    /// by Perfetto as a stacked area chart.
    pub fn counter(&mut self, pid: u32, name: &str, ts_us: f64, series: &[(&str, f64)]) {
        let args = Json::object(series.iter().map(|&(k, v)| (k, Json::Float(v))));
        self.events.push(Json::object([
            ("ph", Json::str("C")),
            ("name", Json::str(name)),
            ("pid", Json::UInt(u64::from(pid))),
            ("tid", Json::UInt(0)),
            ("ts", Json::Float(ts_us)),
            ("args", args),
        ]));
    }

    /// An instant event (`ph:"i"`): a zero-width marker on a track.
    pub fn instant(&mut self, pid: u32, tid: u32, name: &str, ts_us: f64) {
        self.push(
            vec![
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("name", Json::str(name)),
                ("pid", Json::UInt(u64::from(pid))),
                ("tid", Json::UInt(u64::from(tid))),
                ("ts", Json::Float(ts_us)),
            ],
            &[],
        );
    }

    /// The trace serialized as a JSON array — the file Perfetto opens.
    /// Writes the recorded events in place; the bytes are those of
    /// `Json::Array(events).to_string_compact()`.
    pub fn to_json_string(&self) -> String {
        let mut out = vec![b'['];
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            ev.write_compact(&mut out);
        }
        out.push(b']');
        into_string(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate;

    #[test]
    fn emits_valid_event_array() {
        let mut t = ChromeTrace::new();
        t.process_name(0, "t3d");
        t.thread_name(0, 0, "rank 0");
        t.complete(0, 0, "sw", 0.0, 5.0, &[("step", "1")]);
        t.flow("msg", 1, (0, 0, 2.0), (0, 1, 4.0));
        t.instant(0, 1, "deliver", 4.0);
        t.counter(0, "inflight", 2.0, &[("msgs", 1.0)]);
        let parsed = validate(&t.to_json_string()).expect("valid JSON");
        let events = parsed.as_array().expect("array container");
        assert_eq!(events.len(), t.len());
        for ev in events {
            assert!(ev.get("ph").is_some(), "every event has ph");
            assert!(ev.get("ts").is_some(), "every event has ts");
            assert!(ev.get("pid").is_some(), "every event has pid");
            assert!(ev.get("tid").is_some(), "every event has tid");
        }
    }

    #[test]
    fn in_place_write_matches_the_array_serialization() {
        let mut t = ChromeTrace::new();
        assert_eq!(t.to_json_string(), "[]");
        t.process_name(0, "sp2 \"64\"");
        t.complete(0, 1, "send", 1.0, 2.5, &[("bytes", "4096")]);
        t.counter(0, "queue", 3.0, &[("depth", 7.0)]);
        let whole = Json::Array(t.events.clone()).to_string_compact();
        assert_eq!(t.to_json_string(), whole);
    }

    #[test]
    fn zero_length_spans_get_visible_width() {
        let mut t = ChromeTrace::new();
        t.complete(0, 0, "spike", 1.0, 1.0, &[]);
        let parsed = validate(&t.to_json_string()).unwrap();
        let dur = parsed.as_array().unwrap()[0].get("dur").unwrap().as_f64();
        assert!(dur.unwrap() > 0.0);
    }

    #[test]
    fn flow_pairs_share_an_id() {
        let mut t = ChromeTrace::new();
        t.flow("m", 77, (0, 2, 1.0), (0, 5, 9.0));
        let parsed = validate(&t.to_json_string()).unwrap();
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("s"));
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("f"));
        assert_eq!(events[0].get("id"), events[1].get("id"));
    }
}
