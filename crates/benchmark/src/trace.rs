//! In-memory spans around calls into the simulator's layers, and the
//! self-time table they add up to.
//!
//! A traced run records two kinds of span. A *call* span wraps a real
//! call the workload makes (`Machine::communicator`, `harness::measure`,
//! `Communicator::run`, …) and lasts as long as the call. A *replay*
//! span measures a layer that is only reachable inside another call —
//! `Schedule::check`, the `desim` queue, `NetState::send` — by feeding
//! that call's recorded inputs through the layer's public API
//! afterwards; it is attributed to the call it was carved from, scaled
//! by how many times the call did that work. A span's self time is its
//! attributed time minus its children's, so the table rows, plus the
//! time no call span covers (`unattributed`), sum to the traced wall
//! exactly. Replays and the observed runs that feed them are
//! instrumentation: their host time is excluded from the traced wall
//! and reported as `trace_overhead_frac`.

use std::time::{Duration, Instant};

/// The layers a traced run attributes host time to, named after the
/// crates (and the functions) that do the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Machine::communicator`.
    Communicator,
    /// Schedule construction (`Communicator::schedule`).
    Build,
    /// `Schedule::check`, run by the executor before every execution.
    Check,
    /// The executor (`Communicator::run*`, `execute_observed`); its self
    /// time is tape compile and rank stepping.
    Execute,
    /// The `desim` event queue (push, pop, dispatch).
    Queue,
    /// `NetState::send` arithmetic.
    Send,
    /// `harness::measure`; its self time is skew generation and the
    /// max-reduction.
    Harness,
    /// `perfmodel` fitting and Table 3 scoring.
    Fit,
    /// `report` CSV and markdown rendering.
    Render,
    /// `mpisim::critpath::analyze`.
    Critpath,
    /// Run-record assembly (`mpisim::record::run_record` plus metric
    /// export).
    Record,
    /// Canonical record serialization.
    Json,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 12] = [
        Layer::Communicator,
        Layer::Build,
        Layer::Check,
        Layer::Execute,
        Layer::Queue,
        Layer::Send,
        Layer::Harness,
        Layer::Fit,
        Layer::Render,
        Layer::Critpath,
        Layer::Record,
        Layer::Json,
    ];

    /// `crate.function` name, used for span names and table rows.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Communicator => "mpisim.communicator",
            Layer::Build => "collectives.build",
            Layer::Check => "collectives.check",
            Layer::Execute => "mpisim.execute",
            Layer::Queue => "desim.queue",
            Layer::Send => "netmodel.send",
            Layer::Harness => "harness.measure",
            Layer::Fit => "perfmodel.fit",
            Layer::Render => "report.render",
            Layer::Critpath => "obs.critpath",
            Layer::Record => "obs.record",
            Layer::Json => "obs.json",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// The layer the time belongs to.
    layer: Layer,
    /// The workload op (point, query, record) the span served.
    op: u64,
    /// Index of the span this one was carved from.
    parent: Option<usize>,
    /// Host start, ns since the tracer was created.
    start_ns: u64,
    /// Host duration of the call or replay itself, ns.
    wall_ns: u64,
    /// Host time attributed to the layer: the wall for call spans, the
    /// wall times the work multiplier for replay spans.
    attributed_ns: f64,
    /// True for replay spans.
    replay: bool,
}

/// Work counted at the layer boundaries of a traced run. Counts from
/// scaled replays are scaled the same way as their times.
#[derive(Debug, Clone, Default)]
pub(crate) struct Counters {
    /// Schedules built.
    pub(crate) schedules: f64,
    /// Steps across the schedules built.
    pub(crate) steps: f64,
    /// Executions (`execute` calls).
    pub(crate) runs: f64,
    /// Engine events fired.
    pub(crate) events: f64,
    /// Largest engine queue seen.
    pub(crate) queue_high_water: usize,
    /// Network sends.
    pub(crate) sends: f64,
    /// Payload bytes sent.
    pub(crate) bytes: f64,
    /// Link traversals, from `topology().route`.
    pub(crate) hops: f64,
    /// Sends that waited for a busy injection engine or link.
    pub(crate) contended: f64,
}

/// Replay fidelity: a layer whose replay disagreed with the recorded
/// run reports its metrics as failed instead of as numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Gates {
    /// The `desim` replay fired exactly the recorded number of events.
    pub(crate) queue: bool,
    /// The `NetState::send` replay reproduced every delivered instant.
    pub(crate) send: bool,
    /// The harness replay reproduced every measured repetition.
    pub(crate) harness: bool,
}

impl Default for Gates {
    fn default() -> Self {
        Gates {
            queue: true,
            send: true,
            harness: true,
        }
    }
}

/// Span recorder. Disabled tracers record nothing and cost one branch
/// per call, so timed runs use the same code with tracing off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    window: Option<Instant>,
    traced: Duration,
    instr: Duration,
    instr_depth: u32,
    /// Work counted at layer boundaries.
    pub(crate) counters: Counters,
    /// Replay fidelity verdicts.
    pub(crate) gates: Gates,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            window: None,
            traced: Duration::ZERO,
            instr: Duration::ZERO,
            instr_depth: 0,
            counters: Counters::default(),
            gates: Gates::default(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags subsequent spans with workload op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` as a call span of `layer`; returns its result and the
    /// span index (`None` when disabled).
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> (T, Option<usize>) {
        if !self.enabled {
            return (f(), None);
        }
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed();
        let id = self.push(layer, None, t0, wall, 1.0, false);
        (out, Some(id))
    }

    /// [`Tracer::call`] without the span index.
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.call(layer, f).0
    }

    /// Records a replay of `layer` that started at `t0` and took `wall`,
    /// attributing `wall × scale` to it under `parent`.
    pub fn carve(
        &mut self,
        parent: usize,
        layer: Layer,
        t0: Instant,
        wall: Duration,
        scale: f64,
    ) -> usize {
        self.push(layer, Some(parent), t0, wall, scale, true)
    }

    fn push(
        &mut self,
        layer: Layer,
        parent: Option<usize>,
        t0: Instant,
        wall: Duration,
        scale: f64,
        replay: bool,
    ) -> usize {
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(Span {
            layer,
            op: self.op,
            parent,
            start_ns: self.ns_since_origin(t0),
            wall_ns,
            attributed_ns: wall_ns as f64 * scale,
            replay,
        });
        self.spans.len() - 1
    }

    /// Runs instrumentation work `f` (replays, the observed runs that
    /// feed them); its host time is excluded from the traced wall.
    /// Nested calls count once.
    pub fn instrument<T>(&mut self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let t0 = Instant::now();
        self.instr_depth += 1;
        let out = f(self);
        self.instr_depth -= 1;
        if self.instr_depth == 0 {
            self.instr += t0.elapsed();
        }
        out
    }

    /// Opens the traced window (set-up and the timed pass).
    pub fn begin(&mut self) {
        self.window = Some(Instant::now());
    }

    /// Closes the traced window opened by [`Tracer::begin`].
    pub fn end(&mut self) {
        if let Some(t0) = self.window.take() {
            self.traced += t0.elapsed();
        }
    }

    /// The self-time table of everything recorded.
    pub fn table(&self) -> LayerTable {
        let mut child_ns = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.attributed_ns;
            }
        }
        let mut self_ns = [0.0f64; Layer::ALL.len()];
        let mut total_ns = [0.0f64; Layer::ALL.len()];
        let mut top_ns = 0.0f64;
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let i = layer_index(s.layer);
            self_ns[i] += s.attributed_ns - kids;
            total_ns[i] += s.attributed_ns;
            if s.parent.is_none() {
                top_ns += s.attributed_ns;
            }
        }
        let wall_ns = self.traced.saturating_sub(self.instr).as_nanos() as f64;
        LayerTable {
            wall_s: wall_ns / 1e9,
            self_s: self_ns.map(|ns| ns / 1e9),
            total_s: total_ns.map(|ns| ns / 1e9),
            unattributed_s: (wall_ns - top_ns) / 1e9,
            instrumentation_s: self.instr.as_secs_f64(),
        }
    }

    /// The spans as a Chrome trace (Perfetto / `chrome://tracing`): call
    /// spans on one track, replays on another, each tagged with its op,
    /// parent and attributed time.
    pub fn chrome_trace(&self, workload: &str) -> obs::ChromeTrace {
        let mut t = obs::ChromeTrace::new();
        t.process_name(1, workload);
        t.thread_name(1, 1, "calls");
        t.thread_name(1, 2, "replays");
        for (i, s) in self.spans.iter().enumerate() {
            let start_us = s.start_ns as f64 / 1e3;
            let end_us = start_us + s.wall_ns as f64 / 1e3;
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            t.complete(
                1,
                if s.replay { 2 } else { 1 },
                s.layer.name(),
                start_us,
                end_us,
                &[
                    ("span", &i.to_string()),
                    ("op", &s.op.to_string()),
                    ("parent", &parent),
                    ("attributed_us", &format!("{:.3}", s.attributed_ns / 1e3)),
                ],
            );
        }
        t
    }
}

fn layer_index(layer: Layer) -> usize {
    Layer::ALL
        .iter()
        .position(|&l| l == layer)
        .expect("every layer is listed in Layer::ALL")
}

/// Per-layer self times of a traced run. `self_s` plus `unattributed_s`
/// sums to `wall_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTable {
    /// Traced wall: the traced window minus instrumentation, seconds.
    pub wall_s: f64,
    /// Self time per layer, in [`Layer::ALL`] order.
    pub self_s: [f64; Layer::ALL.len()],
    /// Attributed time per layer including its children.
    pub total_s: [f64; Layer::ALL.len()],
    /// Traced wall not covered by any call span (loop and bookkeeping
    /// code of the workload itself).
    pub unattributed_s: f64,
    /// Host time spent on replays and the observed runs feeding them.
    pub instrumentation_s: f64,
}

impl LayerTable {
    /// Self time of `layer`.
    pub fn self_of(&self, layer: Layer) -> f64 {
        self.self_s[layer_index(layer)]
    }

    /// Attributed time of `layer` including its children.
    pub fn total_of(&self, layer: Layer) -> f64 {
        self.total_s[layer_index(layer)]
    }

    /// Rows plus `unattributed`, which sum to [`LayerTable::wall_s`].
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        Layer::ALL
            .iter()
            .map(|&l| (l.name(), self.self_of(l)))
            .chain([("unattributed", self.unattributed_s)])
            .collect()
    }

    /// The table as aligned text, one row per layer with its share of
    /// the traced wall.
    pub fn render(&self) -> String {
        let mut t = report::Table::new(["layer (self time)", "seconds", "share"]);
        for (name, s) in self.rows() {
            t.push_row([
                name.to_string(),
                format!("{s:.6}"),
                format!("{:.2}%", 100.0 * s / self.wall_s.max(f64::MIN_POSITIVE)),
            ]);
        }
        t.push_row([
            "traced wall".to_string(),
            format!("{:.6}", self.wall_s),
            "100.00%".to_string(),
        ]);
        t.render()
    }
}
