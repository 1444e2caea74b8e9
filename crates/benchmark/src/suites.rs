//! The 21-point suite (every collective on every machine at p = 64,
//! m = 4 KiB — perfgate's fixed suite), in two workloads:
//!
//! * `quick_suite` times `harness::measure` under `Protocol::quick`, as
//!   perfgate does. With only 8 executions per call at one contended
//!   point, the fixed cost per execution weighs more than in the sweep.
//! * `observed_suite` runs each point the way the analysis tools do —
//!   `execute_observed` with trace, provenance and event log, then
//!   `critpath::analyze`, `record::run_record` and canonical JSON — the
//!   instrumented path, where records are written beside the reads.
//!
//! Both build communicators (and schedules) and run one warm-up round in
//! set-up, then time interleaved rounds whose point order the seed
//! shuffles. Every round must reproduce the warm-up round's results.

use crate::probe::{count_schedule, measure_traced, probe_execution};
use crate::stats::{fnv1a, Fnv};
use crate::trace::{Layer, Tracer};
use crate::{
    drive, machines, mean, ms, paper_error, passes_for, replay_scale, shuffle, sub_seed, Config,
    Error, Measured,
};
use desim::SplitMix64;
use harness::{Measurement, Protocol};
use mpisim::comm::RunOptions;
use mpisim::{Communicator, Machine, OpClass, Rank, Schedule};
use obs::MetricsRegistry;
use std::time::Instant;

/// Machine size of every suite point.
const SUITE_NODES: usize = 64;

/// Message length of every non-barrier suite point.
const SUITE_BYTES: u32 = 4096;

/// Timed rounds per pass at full size.
const ROUNDS: usize = 10;

/// Host seconds of one full-size pass of either suite on the reference
/// host (2-core x86-64), which sets how many passes a budget buys.
const PASS_SECONDS: f64 = 0.7;

/// A suite point: machine index, op, message length.
type Point = (usize, OpClass, u32);

fn points() -> Vec<Point> {
    (0..3)
        .flat_map(|mi| {
            OpClass::COLLECTIVES.into_iter().map(move |op| {
                let bytes = if op == OpClass::Barrier {
                    0
                } else {
                    SUITE_BYTES
                };
                (mi, op, bytes)
            })
        })
        .collect()
}

fn rounds(cfg: &Config) -> usize {
    ((ROUNDS as f64 * cfg.scale).round() as usize).max(1)
}

/// The point order of round `round` of pass `pass`.
fn round_order(seed: u64, pass: usize, round: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let k = (pass * 1_000_000 + round) as u64;
    shuffle(&mut SplitMix64::new(sub_seed(seed, k)), &mut order);
    order
}

/// A suite's set-up products: communicators (and, for the observed
/// suite, schedules) plus the warm-up round's result per point, which
/// every timed round must reproduce.
struct Suite<R> {
    machines: [Machine; 3],
    points: Vec<Point>,
    comms: Vec<Communicator>,
    scheds: Vec<Schedule>,
    reference: Vec<R>,
}

/// Ops attempted and failed.
#[derive(Default)]
struct Counts {
    attempted: u64,
    failed: u64,
}

impl Counts {
    fn record<R: PartialEq>(&mut self, reference: &R, got: Result<R, Error>) {
        self.attempted += 1;
        let ok = got.is_ok_and(|r| r == *reference);
        self.failed += u64::from(!ok);
    }
}

/// Opens the suite's communicators and runs `warm_up` once per point,
/// in canonical order, for the reference results.
fn set_up<R>(
    tr: &mut Tracer,
    build_schedules: bool,
    mut warm_up: impl FnMut(&mut Tracer, &Communicator, Option<&Schedule>, Point) -> Result<R, Error>,
) -> Result<Suite<R>, Error> {
    let machines = machines();
    let points = points();
    let mut comms = Vec::with_capacity(points.len());
    let mut scheds = Vec::new();
    for (i, &(mi, op, bytes)) in points.iter().enumerate() {
        tr.set_op(i as u64);
        let comm = tr.span(Layer::Communicator, || {
            machines[mi].communicator(SUITE_NODES)
        })?;
        if build_schedules {
            let s = tr.span(Layer::Build, || comm.schedule(op, Rank(0), bytes))?;
            count_schedule(tr, &s, 1.0);
            scheds.push(s);
        }
        comms.push(comm);
    }
    let mut reference = Vec::with_capacity(points.len());
    for (i, &pt) in points.iter().enumerate() {
        tr.set_op(i as u64);
        reference.push(warm_up(tr, &comms[i], scheds.get(i), pt)?);
    }
    Ok(Suite {
        machines,
        points,
        comms,
        scheds,
        reference,
    })
}

/// The timed rounds of one pass: every point once per round, in the
/// round's seeded order. `op(tracer, point, replay)` runs one point;
/// `replay` is the round's replay multiplier when tracing.
fn rounds_of<R: PartialEq>(
    cfg: &Config,
    suite: &Suite<R>,
    counts: &mut Counts,
    pass: usize,
    tr: &mut Tracer,
    op_ms: &mut Vec<f64>,
    mut op: impl FnMut(&mut Tracer, usize, Option<f64>) -> Result<R, Error>,
) {
    let n = rounds(cfg);
    let mut id = (pass * n * suite.points.len()) as u64;
    for round in 0..n {
        let replay = replay_scale(round, n);
        for i in round_order(cfg.seed, pass, round, suite.points.len()) {
            tr.set_op(id);
            id += 1;
            let t0 = Instant::now();
            let got = op(tr, i, replay);
            op_ms.push(ms(t0.elapsed()));
            counts.record(&suite.reference[i], got);
        }
    }
}

/// Rejects a measurement whose simulated time is not finite and
/// positive.
fn positive(m: Measurement) -> Result<Measurement, Error> {
    if m.time_us.is_finite() && m.time_us > 0.0 {
        Ok(m)
    } else {
        Err(format!("non-positive simulated time {}", m.time_us).into())
    }
}

pub(crate) fn run_quick(cfg: &Config, tr: &mut Tracer) -> Result<Measured, Error> {
    let protocol = Protocol::quick();
    let mut counts = Counts::default();
    let (suite, mut m) = drive(
        tr,
        passes_for(cfg, PASS_SECONDS),
        &mut counts,
        |tr| {
            set_up(tr, false, |tr, comm, _, (_, op, bytes)| {
                positive(measure_traced(tr, comm, op, bytes, &protocol, Some(1.0))?)
            })
        },
        |suite, counts, pass, tr, op_ms| {
            rounds_of(cfg, suite, counts, pass, tr, op_ms, |tr, i, replay| {
                let (_, op, bytes) = suite.points[i];
                positive(measure_traced(
                    tr,
                    &suite.comms[i],
                    op,
                    bytes,
                    &protocol,
                    replay,
                )?)
            });
            Ok(())
        },
    )?;
    let data: harness::Dataset = suite.reference.iter().cloned().collect();
    m.digest = fnv1a(report::csv::dataset_csv(&data).as_bytes());
    m.paper_mape = mean(
        suite
            .points
            .iter()
            .zip(&suite.reference)
            .map(|(&(mi, op, bytes), r)| {
                paper_error(&suite.machines[mi], op, bytes, SUITE_NODES, r.time_us)
            }),
    );
    m.attempted = counts.attempted;
    m.failed = counts.failed;
    Ok(m)
}

/// One point through the analysis tools' pipeline; returns the
/// simulated time (µs, as bits) and the canonical record JSON.
fn record_point(
    tr: &mut Tracer,
    comm: &Communicator,
    sched: &Schedule,
    op: OpClass,
    bytes: u32,
) -> Result<(u64, String), Error> {
    let opts = RunOptions {
        record_trace: true,
        provenance: true,
        event_log: true,
        ..RunOptions::default()
    };
    let (res, id) = tr.call(Layer::Execute, || comm.run_observed(&[sched], opts.clone()));
    let (out, observed) = res?;
    if let Some(id) = id {
        tr.counters.runs += 1.0;
        probe_execution(tr, id, comm, &[sched], &opts, 1.0, Some((&out, &observed)));
    }
    let cp = tr.span(Layer::Critpath, || {
        mpisim::critpath::analyze(&out, &observed)
    });
    let rec = tr.span(Layer::Record, || {
        let mut reg = MetricsRegistry::new();
        mpisim::observe::export_metrics(&out, &observed, &mut reg);
        cp.export_metrics(&mut reg);
        let mut rec = mpisim::record::run_record(
            comm.machine().name(),
            &out,
            &observed,
            Some(&cp),
            Some(&reg),
        );
        rec.meta.insert("op".into(), op.key().into());
        rec.meta.insert("p".into(), comm.size().to_string());
        rec.meta.insert("m".into(), bytes.to_string());
        rec
    });
    let json = tr.span(Layer::Json, || rec.canonicalized().to_json_string());
    let t_us = out.completed().as_micros_f64();
    if !(t_us.is_finite() && t_us > 0.0) {
        return Err(format!("non-positive simulated time {t_us}").into());
    }
    Ok((t_us.to_bits(), json))
}

pub(crate) fn run_observed(cfg: &Config, tr: &mut Tracer) -> Result<Measured, Error> {
    let mut counts = Counts::default();
    let (suite, mut m) = drive(
        tr,
        passes_for(cfg, PASS_SECONDS),
        &mut counts,
        |tr| {
            set_up(tr, true, |tr, comm, sched, (_, op, bytes)| {
                let sched = sched.ok_or("the observed suite builds its schedules")?;
                record_point(tr, comm, sched, op, bytes)
            })
        },
        |suite, counts, pass, tr, op_ms| {
            rounds_of(cfg, suite, counts, pass, tr, op_ms, |tr, i, _| {
                let (_, op, bytes) = suite.points[i];
                record_point(tr, &suite.comms[i], &suite.scheds[i], op, bytes)
            });
            Ok(())
        },
    )?;
    let mut digest = Fnv::default();
    for (_, json) in &suite.reference {
        digest.write(json.as_bytes());
    }
    m.digest = digest.finish();
    m.paper_mape = mean(suite.points.iter().zip(&suite.reference).map(
        |(&(mi, op, bytes), (t, _))| {
            paper_error(
                &suite.machines[mi],
                op,
                bytes,
                SUITE_NODES,
                f64::from_bits(*t),
            )
        },
    ));
    m.attempted = counts.attempted;
    m.failed = counts.failed;
    Ok(m)
}
