//! Bridges an observed execution into the `obs` crate's exporters:
//! a Perfetto-loadable Chrome trace and a metrics snapshot.
//!
//! The executor stays free of serialization concerns — it hands back
//! [`ExecOutcome`] + [`Observed`], and this module turns them into the
//! artifacts the `observe` binary (and the harness) write to disk.
//!
//! # Examples
//!
//! ```
//! use mpisim::{Machine, Rank};
//! use mpisim::comm::RunOptions;
//!
//! let comm = Machine::t3d().communicator(8)?;
//! let s = comm.schedule(mpisim::OpClass::Bcast, Rank(0), 1024)?;
//! let (out, obs) = comm.run_observed(&[&s], RunOptions::default())?;
//! let trace = mpisim::observe::chrome_trace("t3d", &out, &obs);
//! assert!(trace.len() > 0);
//! # Ok::<(), mpisim::SimMpiError>(())
//! ```

use crate::critpath::CritPath;
use crate::exec::{ExecOutcome, Observed};
use desim::SimTime;
use obs::{ChromeTrace, Json, MetricsRegistry, RunManifest};

/// Flow-event id base for critical-path arrows, disjoint from the
/// message-flow ids `0..trace.len()`.
const CRITPATH_FLOW_BASE: u64 = 1 << 32;

fn us(t: SimTime) -> f64 {
    t.as_micros_f64()
}

/// Builds a Chrome Trace Event array from an observed run: one process
/// named after the machine, one thread track per rank carrying the
/// attributed phase spans, one flow arrow per traced message, and an
/// instant marker per segment boundary.
pub fn chrome_trace(machine: &str, out: &ExecOutcome, observed: &Observed) -> ChromeTrace {
    let mut t = ChromeTrace::new();
    t.process_name(0, machine);
    for r in 0..out.phases.len() {
        t.thread_name(0, r as u32, &format!("rank {r}"));
    }
    for sp in &observed.spans {
        t.complete(
            0,
            sp.rank as u32,
            sp.kind.label(),
            us(sp.start),
            us(sp.end),
            &[],
        );
    }
    for (i, m) in out.trace.iter().enumerate() {
        t.flow(
            m.class.key(),
            i as u64,
            (0, m.src as u32, us(m.posted)),
            (0, m.dst as u32, us(m.delivered)),
        );
    }
    for (si, seg) in out.finish.iter().enumerate() {
        let name = format!("seg {si} done");
        for (r, &f) in seg.iter().enumerate() {
            t.instant(0, r as u32, &name, us(f));
        }
    }
    t
}

/// Like [`chrome_trace`], plus a dedicated "critical path" track (tid
/// one past the last rank) carrying the reconstructed path tiles named
/// `critpath.<category>`, with flow arrows at every track switch so
/// Perfetto draws the causal chain across ranks.
pub fn chrome_trace_with_critpath(
    machine: &str,
    out: &ExecOutcome,
    observed: &Observed,
    cp: &CritPath,
) -> ChromeTrace {
    let mut t = chrome_trace(machine, out, observed);
    let path_tid = out.phases.len() as u32;
    t.thread_name(0, path_tid, "critical path");
    let us_ns = |ns: u64| ns as f64 / 1_000.0;
    for seg in &cp.decomposition.segments {
        t.complete(
            0,
            path_tid,
            &format!("critpath.{}", seg.blame.key()),
            us_ns(seg.start_ns),
            us_ns(seg.end_ns),
            &[("rank", &seg.track.to_string())],
        );
    }
    // Segments are newest-first; an arrow from each older segment's end
    // to its successor's start whenever the path hops ranks.
    for (i, w) in cp.decomposition.segments.windows(2).enumerate() {
        let (newer, older) = (w[0], w[1]);
        if newer.track != older.track {
            t.flow(
                "critpath",
                CRITPATH_FLOW_BASE + i as u64,
                (0, older.track, us_ns(older.end_ns)),
                (0, newer.track, us_ns(newer.start_ns)),
            );
        }
    }
    t
}

/// Exports the run's execution metrics into `reg`: traffic and event
/// totals, the trace-cap accounting, per-rank software/blocked split
/// (both as per-rank gauges and as distributions), and the network
/// instrumentation collected by the wire model.
pub fn export_metrics(out: &ExecOutcome, observed: &Observed, reg: &mut MetricsRegistry) {
    reg.counter("exec.messages", out.messages);
    reg.counter("exec.bytes", out.bytes);
    reg.counter("exec.events", out.events);
    reg.counter("exec.trace.recorded", out.trace.len() as u64);
    reg.counter("exec.trace.dropped", out.dropped_messages);
    reg.gauge("exec.completed_us", out.completed().as_micros_f64());
    reg.gauge("exec.segments", out.finish.len() as f64);
    reg.gauge("engine.queue.high_water", observed.queue_high_water as f64);
    let mut sw_total = 0.0;
    let mut blocked_total = 0.0;
    let mut blocked_max = 0.0f64;
    for (r, ph) in out.phases.iter().enumerate() {
        let sw = ph.sw.as_micros_f64();
        let blocked = ph.blocked.as_micros_f64();
        reg.gauge(format!("exec.rank.{r}.sw_us"), sw);
        reg.gauge(format!("exec.rank.{r}.blocked_us"), blocked);
        reg.gauge(
            format!("exec.rank.{r}.elapsed_us"),
            out.rank_elapsed(r).as_micros_f64(),
        );
        sw_total += sw;
        blocked_total += blocked;
        blocked_max = blocked_max.max(blocked);
    }
    reg.observe_all(
        "exec.rank.sw_ns",
        out.phases.iter().map(|ph| ph.sw.as_nanos()),
    );
    reg.observe_all(
        "exec.rank.blocked_ns",
        out.phases.iter().map(|ph| ph.blocked.as_nanos()),
    );
    reg.gauge("exec.sw.total_us", sw_total);
    reg.gauge("exec.blocked.total_us", blocked_total);
    reg.gauge("exec.blocked.max_us", blocked_max);
    observed.event_stats.export_metrics(reg);
    observed.net.export_metrics(reg);
}

/// The full snapshot document written next to a trace: the run manifest
/// (machine, parameters, seed, ablations) plus every metric.
pub fn snapshot(manifest: &RunManifest, reg: &MetricsRegistry) -> Json {
    Json::object([
        ("manifest", manifest.to_json()),
        ("metrics", reg.snapshot()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::RunOptions;
    use crate::machine::Machine;
    use collectives::Rank;
    use netmodel::OpClass;
    use obs::validate;

    fn observed_bcast() -> (ExecOutcome, Observed) {
        let comm = Machine::t3d().communicator(64).expect("communicator");
        let s = comm
            .schedule(OpClass::Bcast, Rank(0), 4096)
            .expect("schedule");
        comm.run_observed(&[&s], RunOptions::default())
            .expect("observed run")
    }

    #[test]
    fn chrome_trace_is_valid_event_array() {
        let (out, obs) = observed_bcast();
        let trace = chrome_trace("t3d", &out, &obs);
        let parsed = validate(&trace.to_json_string()).expect("valid JSON");
        let events = parsed.as_array().expect("array container");
        assert_eq!(events.len(), trace.len());
        let mut spans = 0;
        let mut flows = 0;
        for ev in events {
            let ph = ev.get("ph").and_then(|j| j.as_str()).expect("ph field");
            assert!(ev.get("ts").is_some(), "every event has ts");
            assert!(ev.get("pid").is_some(), "every event has pid");
            match ph {
                "X" => spans += 1,
                "s" | "f" => flows += 1,
                _ => {}
            }
        }
        assert_eq!(spans, obs.spans.len());
        assert_eq!(flows, 2 * out.trace.len());
        assert!(spans > 0 && flows > 0);
    }

    #[test]
    fn critpath_trace_adds_path_track_and_arrows() {
        let (out, obs) = observed_bcast();
        let cp = crate::critpath::analyze(&out, &obs);
        let plain = chrome_trace("t3d", &out, &obs);
        let trace = chrome_trace_with_critpath("t3d", &out, &obs, &cp);
        let parsed = validate(&trace.to_json_string()).expect("valid JSON");
        let events = parsed.as_array().expect("array container");
        // Everything from the plain trace, plus one span per path
        // segment, the track name, and a flow pair per rank hop.
        assert!(events.len() > plain.len() + cp.decomposition.segments.len());
        let hops = cp
            .decomposition
            .segments
            .windows(2)
            .filter(|w| w[0].track != w[1].track)
            .count();
        assert!(hops > 0, "a 64-rank bcast path crosses ranks");
        assert_eq!(
            events.len(),
            plain.len() + 1 + cp.decomposition.segments.len() + 2 * hops
        );
        let path_spans = events
            .iter()
            .filter(|ev| {
                ev.get("name")
                    .and_then(|j| j.as_str())
                    .is_some_and(|n| n.starts_with("critpath."))
            })
            .count();
        assert_eq!(path_spans, cp.decomposition.segments.len());
    }

    #[test]
    fn snapshot_rank_phases_sum_to_elapsed() {
        let (out, obs) = observed_bcast();
        let mut reg = MetricsRegistry::new();
        export_metrics(&out, &obs, &mut reg);
        let manifest = RunManifest::new("t3d")
            .param("op", "bcast")
            .param("p", 64)
            .param("m", 4096);
        let snap = snapshot(&manifest, &reg);
        let metrics = snap.get("metrics").expect("metrics section");
        for r in 0..64 {
            let sw = metrics
                .get(&format!("exec.rank.{r}.sw_us"))
                .and_then(Json::as_f64)
                .expect("sw gauge");
            let blocked = metrics
                .get(&format!("exec.rank.{r}.blocked_us"))
                .and_then(Json::as_f64)
                .expect("blocked gauge");
            let elapsed = metrics
                .get(&format!("exec.rank.{r}.elapsed_us"))
                .and_then(Json::as_f64)
                .expect("elapsed gauge");
            assert!(
                (sw + blocked - elapsed).abs() < 1e-6,
                "rank {r}: {sw} + {blocked} != {elapsed}"
            );
        }
        assert_eq!(
            snap.get("manifest")
                .and_then(|m| m.get("machine"))
                .and_then(|j| j.as_str()),
            Some("t3d")
        );
    }
}
