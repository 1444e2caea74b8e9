//! # benchmark — end-to-end wall-clock benchmark of the simulator
//!
//! Four workloads cover what users run: the full-grid regeneration
//! behind `full_report --quick` ([`Workload::PaperGrid`]), single-shot
//! library queries ([`Workload::ColdQueries`]), perfgate's 21-point suite
//! ([`Workload::QuickSuite`]), and the same suite run the way the
//! analysis tools run it ([`Workload::ObservedSuite`]). Each is a closed
//! loop of one client on one thread.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]). A
//! traced run ([`Config::trace`]) reports the per-layer metrics
//! ([`PER_LAYER`]) from spans the benchmark records around its own
//! calls into each layer ([`trace`]), with replays for the layers only
//! reachable inside another call. Every run checks its outputs; a
//! failed check counts against [`Outcome::failed`].
//!
//! `cargo run --release -p benchmark -- --workload <name|all>` runs it;
//! see the crate README for the metric map and first numbers.

mod cold_queries;
mod paper_grid;
mod probe;
pub mod stats;
mod suites;
pub mod trace;

pub use cold_queries::{query_stream, Query};

use mpisim::{Machine, OpClass};
use obs::Json;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};

/// Error type of a workload that could not run at all (as opposed to an
/// op that failed, which is counted).
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full 980-point sweep under the quick protocol, fit, scoring
    /// and render.
    PaperGrid,
    /// Seeded single-shot `communicator → schedule → run` queries.
    ColdQueries,
    /// Perfgate's 21 points under `Protocol::quick`, interleaved rounds.
    QuickSuite,
    /// The 21 points through `execute_observed → critpath → record →
    /// canonical JSON`, interleaved rounds.
    ObservedSuite,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::ColdQueries,
        Workload::QuickSuite,
        Workload::ObservedSuite,
    ];

    /// The CLI and metric-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::ColdQueries => "cold_queries",
            Workload::QuickSuite => "quick_suite",
            Workload::ObservedSuite => "observed_suite",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How to run a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Seed for the workload's inputs (query stream, round order,
    /// re-measured sample).
    pub seed: u64,
    /// Measuring budget. It buys a fixed number of timed passes (budget
    /// over the workload's nominal pass time), at least one.
    pub seconds: f64,
    /// Workload size relative to the full one (1.0). `cold_queries` and
    /// the suites scale their op counts; below 1.0 `paper_grid` runs a
    /// reduced grid.
    pub scale: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones (set-up runs once).
    pub trace: bool,
}

/// End-to-end metrics: `(name, unit)`, the order they print in.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("paper_mape", "frac"),
];

/// Per-layer metrics of a traced run: `(name, unit)`, the order they
/// print in. Each is measured on every workload; layers only some
/// workloads have (harness, perfmodel, report, obs) appear as rows of
/// the layer table instead.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("collectives.build_s", "s"),
    ("collectives.check_s", "s"),
    ("collectives.schedules", "count"),
    ("collectives.steps", "count"),
    ("mpisim.communicator_s", "s"),
    ("mpisim.execute_s", "s"),
    ("mpisim.runs", "count"),
    ("mpisim.self_s", "s"),
    ("desim.events", "count"),
    ("desim.queue_s", "s"),
    ("desim.ns_per_event", "ns"),
    ("desim.queue_high_water", "count"),
    ("netmodel.sends", "count"),
    ("netmodel.bytes", "bytes"),
    ("netmodel.hops", "count"),
    ("netmodel.send_s", "s"),
    ("netmodel.ns_per_send", "ns"),
    ("netmodel.contended_frac", "frac"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "frac"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value; `None` when the layer's replay failed its fidelity
    /// gate.
    pub value: Option<f64>,
    /// How the value was taken (percentile used, set-up repetitions).
    pub note: String,
}

/// The result of one workload run.
#[derive(Debug)]
pub struct Outcome {
    /// Which workload ran.
    pub workload: Workload,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed a correctness check.
    pub failed: u64,
    /// FNV-1a digest of the workload's output (printed, not gated).
    pub digest: u64,
    /// Timed passes run.
    pub passes: usize,
    /// End-to-end metrics, or per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
    /// The traced run's spans, layer table and counters.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Failed ops over attempted ops.
    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when no op failed and every metric has a value.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_some())
    }

    /// One `workload metric value unit [note]` line per metric, then a
    /// `#` status line with the op counts and output digest.
    pub fn lines(&self) -> String {
        let w = self.workload.name();
        let mut out = String::new();
        for m in &self.metrics {
            let value = m
                .value
                .map_or_else(|| "FAILED".to_string(), |v| v.to_string());
            let line = format!("{w} {} {value} {} {}", m.name, m.unit, m.note);
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out.push_str(&format!(
            "# {w} attempted={} failed={} fail_frac={} passes={} digest={:#018x}\n",
            self.attempted,
            self.failed,
            self.fail_frac(),
            self.passes,
            self.digest
        ));
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, and every
    /// metric as `{value, unit}` (`null` value for a failed layer).
    pub fn json(&self) -> Json {
        Json::object([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::object(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        Json::object([
                            ("value", m.value.map_or(Json::Null, Json::Float)),
                            ("unit", Json::str(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// What one workload run measured, before it becomes metrics.
#[derive(Debug, Clone, Default)]
pub(crate) struct Measured {
    pub setup_s: Vec<f64>,
    pub pass_s: Vec<f64>,
    /// Op latencies, one vector per pass.
    pub op_ms: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub paper_mape: f64,
}

/// Set-up repetitions of an untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Upper bound on timed passes, for a very long budget.
const MAX_PASSES: usize = 1000;

/// Runs `workload` under `cfg`.
///
/// # Errors
///
/// Fails when the workload cannot set up (an op that fails is counted,
/// not returned) or, untraced, when peak memory cannot be read.
pub fn run(workload: Workload, cfg: &Config) -> Result<Outcome, Error> {
    let mut tr = Tracer::new(cfg.trace);
    let m = match workload {
        Workload::PaperGrid => paper_grid::run(cfg, &mut tr)?,
        Workload::ColdQueries => cold_queries::run(cfg, &mut tr)?,
        Workload::QuickSuite => suites::run_quick(cfg, &mut tr)?,
        Workload::ObservedSuite => suites::run_observed(cfg, &mut tr)?,
    };
    let metrics = if cfg.trace {
        layer_metrics(&tr)
    } else {
        end_to_end_metrics(&m)?
    };
    Ok(Outcome {
        workload,
        attempted: m.attempted,
        failed: m.failed.min(m.attempted),
        digest: m.digest,
        passes: m.pass_s.len(),
        metrics,
        tracer: cfg.trace.then_some(tr),
    })
}

/// Passes whose per-pass values [`stats::min_of_best`] averages.
const BEST_OF: usize = 3;

/// End-to-end metrics from what the passes measured. Every pass does
/// the same work, and each timing is the mean of its [`BEST_OF`] fastest
/// passes. On a shared host, contention for cache and memory comes in
/// phases that last minutes, longer than a run. It slows every pass in
/// such a phase, so a median over passes moves with it; the fastest
/// passes move least.
fn end_to_end_metrics(m: &Measured) -> Result<Vec<Metric>, Error> {
    let timed: Vec<&Vec<f64>> = m.op_ms.iter().filter(|ops| !ops.is_empty()).collect();
    let ops: usize = timed.iter().map(|ops| ops.len()).sum();
    let medians: Vec<f64> = timed.iter().map(|ops| stats::median(ops)).collect();
    let tails: Vec<stats::Tail> = timed.iter().map(|ops| stats::tail(ops)).collect();
    let first = tails.first().ok_or("no op was timed")?;
    let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let best = |n: usize| format!("mean of the fastest {} of {n} passes", BEST_OF.min(n));
    let rss = stats::peak_rss_mb().ok_or("peak RSS unavailable: /proc/self/status has no VmHWM")?;
    let values = [
        (stats::min_of_best(&m.pass_s, BEST_OF), best(m.pass_s.len())),
        (
            stats::min_of_best(&medians, BEST_OF),
            format!("{ops} ops, pass medians: {}", best(medians.len())),
        ),
        (
            stats::min_of_best(&tail_values, BEST_OF),
            format!(
                "{} of {} ops ({} beyond) per pass: {}",
                first.label(),
                first.n,
                first.beyond,
                best(tails.len())
            ),
        ),
        (
            stats::median(&m.setup_s),
            format!("median of {}", m.setup_s.len()),
        ),
        (rss, "VmHWM".to_string()),
        (m.paper_mape, String::new()),
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (v, note))| Metric {
            name,
            unit,
            value: Some(v),
            note,
        })
        .collect())
}

/// Per-layer metrics of a traced run; a layer whose replay failed its
/// fidelity gate reports no values.
fn layer_metrics(tr: &Tracer) -> Vec<Metric> {
    let t = tr.table();
    let c = &tr.counters;
    let g = tr.gates;
    let per = |s: f64, n: f64| if n > 0.0 { s * 1e9 / n } else { 0.0 };
    let queue_s = t.self_of(Layer::Queue);
    let send_s = t.self_of(Layer::Send);
    let values = [
        (t.self_of(Layer::Build), true),
        (t.self_of(Layer::Check), true),
        (c.schedules.round(), true),
        (c.steps.round(), true),
        (t.self_of(Layer::Communicator), true),
        (t.total_of(Layer::Execute), g.harness),
        (c.runs.round(), g.harness),
        (t.self_of(Layer::Execute), g.harness && g.queue && g.send),
        (c.events.round(), g.queue),
        (queue_s, g.queue),
        (per(queue_s, c.events), g.queue),
        (c.queue_high_water as f64, g.queue),
        (c.sends.round(), g.send),
        (c.bytes.round(), g.send),
        (c.hops.round(), g.send),
        (send_s, g.send),
        (per(send_s, c.sends), g.send),
        (c.contended / c.sends.max(1.0), g.send),
        (t.unattributed_s, true),
        (
            t.instrumentation_s / (t.wall_s + t.instrumentation_s).max(f64::MIN_POSITIVE),
            true,
        ),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), (v, ok))| Metric {
            name,
            unit,
            value: ok.then_some(v),
            note: String::new(),
        })
        .collect()
}

/// The paper's three machines in its presentation order (the order
/// `full_report` sweeps them).
pub(crate) fn machines() -> [Machine; 3] {
    [Machine::sp2(), Machine::paragon(), Machine::t3d()]
}

/// `|Table 3 prediction / simulated − 1|` for one simulated time, when
/// the machine has a published formula and both times are positive.
pub(crate) fn paper_error(
    machine: &Machine,
    op: OpClass,
    bytes: u32,
    p: usize,
    sim_us: f64,
) -> Option<f64> {
    let formula = perfmodel::paper::table3(machine.id()?, op)?;
    let predicted = formula.predict_us(bytes, p);
    (sim_us > 0.0 && predicted > 0.0).then(|| (predicted / sim_us - 1.0).abs())
}

/// Mean of the values present; 0 when none are.
pub(crate) fn mean(xs: impl IntoIterator<Item = Option<f64>>) -> f64 {
    let (sum, n) = xs
        .into_iter()
        .flatten()
        .fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// A derived seed for sub-stream `k` of `seed`.
pub(crate) fn sub_seed(seed: u64, k: u64) -> u64 {
    desim::SplitMix64::new(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// Fisher–Yates shuffle driven by `rng`.
pub(crate) fn shuffle<T>(rng: &mut desim::SplitMix64, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

/// Milliseconds in `d`.
pub(crate) fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Traced runs of the many-op workloads replay every this-many-th op
/// (or round) and scale the replayed times and counts to all of them:
/// replaying every op would push a traced run past three times the
/// untraced wall.
const TRACE_EVERY: usize = 2;

/// The replay multiplier of op `i` of `n` under [`TRACE_EVERY`]
/// sampling: `n / replayed ops` for a replayed op, `None` otherwise.
pub(crate) fn replay_scale(i: usize, n: usize) -> Option<f64> {
    i.is_multiple_of(TRACE_EVERY)
        .then(|| n as f64 / n.div_ceil(TRACE_EVERY) as f64)
}

/// How many timed passes a budget of `cfg.seconds` buys for a workload
/// whose pass takes about `pass_seconds`: a count fixed by the budget,
/// not by how fast this host happens to be, so every run of one
/// configuration does the same work.
pub(crate) fn passes_for(cfg: &Config, pass_seconds: f64) -> usize {
    ((cfg.seconds / pass_seconds).floor() as usize).clamp(1, MAX_PASSES)
}

/// Set-up repetitions interleaved with `passes` timed passes.
///
/// `setup` builds the inputs; it runs [`SETUP_REPEATS`] times (once when
/// tracing), spread evenly over the passes so one burst of host
/// contention cannot cover every repetition, and each pass uses the
/// latest inputs. `pass(inputs, acc, index, tracer, op_ms)` runs one
/// timed pass, pushing one latency per op and accumulating results into
/// `acc`. The traced window covers the one set-up and every pass.
pub(crate) fn drive<I, A>(
    tr: &mut Tracer,
    passes: usize,
    acc: &mut A,
    mut setup: impl FnMut(&mut Tracer) -> Result<I, Error>,
    mut pass: impl FnMut(&I, &mut A, usize, &mut Tracer, &mut Vec<f64>) -> Result<(), Error>,
) -> Result<(I, Measured), Error> {
    let repeats = if tr.enabled() { 1 } else { SETUP_REPEATS };
    let mut m = Measured::default();
    let mut inputs = None;
    let mut done = 0;
    tr.begin();
    for k in 0..passes {
        // Repetition i runs before pass i * passes / repeats; the rest
        // run before the first pass when there are fewer passes.
        while done < repeats && done * passes / repeats <= k {
            let t0 = Instant::now();
            inputs = Some(setup(tr)?);
            m.setup_s.push(t0.elapsed().as_secs_f64());
            done += 1;
        }
        let inputs = inputs.as_ref().ok_or("no set-up ran")?;
        let mut ops = Vec::with_capacity(m.op_ms.last().map_or(0, Vec::len));
        let t0 = Instant::now();
        pass(inputs, acc, k, tr, &mut ops)?;
        m.pass_s.push(t0.elapsed().as_secs_f64());
        m.op_ms.push(ops);
    }
    tr.end();
    Ok((inputs.ok_or("no pass ran")?, m))
}
