//! `cold_queries`: seeded single-shot library queries, each
//! `Machine::communicator(p)` → `Communicator::schedule` →
//! `Communicator::run` from nothing.
//!
//! Per-query fixed costs dominate here (schedule check, tape compile,
//! network set-up), which a sweep amortises over 4 executions per
//! repetition under the quick protocol and 22 under the paper's. Message lengths are continuous, so almost no two queries share
//! a schedule and a cache across queries would gain nothing. Every pass
//! runs its own stream, all generated in set-up.

use crate::probe::{count_schedule, probe_execution};
use crate::stats::Fnv;
use crate::trace::{Layer, Tracer};
use crate::{
    drive, machines, mean, ms, paper_error, passes_for, replay_scale, shuffle, sub_seed, Config,
    Error, Measured,
};
use desim::SplitMix64;
use harness::PAPER_NODE_COUNTS;
use mpisim::comm::RunOptions;
use mpisim::{CollectiveOutcome, Machine, OpClass, Rank, Schedule, Step};
use std::time::Instant;

/// Queries per `(machine, op, p)` triple and pass at full size: 140
/// triples × 36 = 5 040 queries per pass.
const PER_TRIPLE: usize = 36;

/// Host seconds of one full-size pass on the reference host (2-core
/// x86-64), which sets how many passes a budget buys.
const PASS_SECONDS: f64 = 1.8;

/// One library query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Index into the paper's machines (SP2, Paragon, T3D).
    pub machine: usize,
    /// The collective.
    pub op: OpClass,
    /// Communicator size.
    pub nodes: usize,
    /// Message length (0 for barrier).
    pub bytes: u32,
}

/// The query stream of `seed`: every `(machine, op, p)` triple with `p`
/// from the paper's node counts up to the machine's maximum gets
/// `per_triple` queries, so machine, op and p are uniform. Each triple's
/// message lengths are log-uniform in [4, 65 536] bytes, stratified (one
/// draw per equal-width slice of the log range) so a pass's total work
/// barely depends on the seed. The stream is then shuffled.
pub fn query_stream(seed: u64, per_triple: usize) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    let mut qs = Vec::new();
    for (mi, machine) in machines().iter().enumerate() {
        for op in OpClass::COLLECTIVES {
            for &nodes in PAPER_NODE_COUNTS
                .iter()
                .filter(|&&p| p <= machine.spec().max_nodes)
            {
                for j in 0..per_triple {
                    let x = (j as f64 + rng.next_f64()) / per_triple as f64;
                    let bytes = if op == OpClass::Barrier {
                        0
                    } else {
                        (4.0 * 16_384f64.powf(x)).floor().clamp(4.0, 65_536.0) as u32
                    };
                    qs.push(Query {
                        machine: mi,
                        op,
                        nodes,
                        bytes,
                    });
                }
            }
        }
    }
    shuffle(&mut rng, &mut qs);
    qs
}

/// Send steps and payload bytes, counted by walking the schedule.
fn send_steps(s: &Schedule) -> (u64, u64) {
    s.iter()
        .flat_map(|(_, prog)| prog)
        .fold((0, 0), |(n, b), step| match step {
            Step::Send { bytes, .. } => (n + 1, b + u64::from(*bytes)),
            _ => (n, b),
        })
}

fn run_query(
    tr: &mut Tracer,
    machine: &Machine,
    q: &Query,
    replay: Option<f64>,
) -> Result<(CollectiveOutcome, Schedule), Error> {
    let comm = tr.span(Layer::Communicator, || machine.communicator(q.nodes))?;
    let sched = tr.span(Layer::Build, || comm.schedule(q.op, Rank(0), q.bytes))?;
    count_schedule(tr, &sched, 1.0);
    let (out, id) = tr.call(Layer::Execute, || comm.run(&sched));
    let out = out?;
    if let Some(id) = id {
        tr.counters.runs += 1.0;
        if let Some(k) = replay {
            probe_execution(tr, id, &comm, &[&sched], &RunOptions::default(), k, None);
        }
    }
    Ok((out, sched))
}

/// Results accumulated over the passes.
#[derive(Default)]
struct Tally {
    failed: u64,
    attempted: u64,
    digest: Fnv,
    errors: Vec<Option<f64>>,
}

pub(crate) fn run(cfg: &Config, tr: &mut Tracer) -> Result<Measured, Error> {
    let per_triple = ((PER_TRIPLE as f64 * cfg.scale).round() as usize).max(1);
    let passes = passes_for(cfg, PASS_SECONDS);
    let mut t = Tally::default();
    let (_, mut m) = drive(
        tr,
        passes,
        &mut t,
        |_| {
            let streams: Vec<Vec<Query>> = (0..passes)
                .map(|k| query_stream(sub_seed(cfg.seed, k as u64), per_triple))
                .collect();
            Ok((machines(), streams))
        },
        |(machines, streams), t, pass, tr, op_ms| {
            let queries = &streams[pass];
            for (i, q) in queries.iter().enumerate() {
                tr.set_op((pass * queries.len() + i) as u64);
                let machine = &machines[q.machine];
                let t0 = Instant::now();
                let res = run_query(tr, machine, q, replay_scale(i, queries.len()));
                op_ms.push(ms(t0.elapsed()));
                t.attempted += 1;
                let Ok((out, sched)) = res else {
                    t.failed += 1;
                    continue;
                };
                let t_us = out.time().as_micros_f64();
                let ok = t_us.is_finite()
                    && t_us > 0.0
                    && send_steps(&sched) == (out.messages(), out.bytes());
                t.failed += u64::from(!ok);
                t.digest.write_u64(out.time().as_nanos());
                t.digest.write_u64(out.messages());
                t.digest.write_u64(out.bytes());
                t.errors
                    .push(paper_error(machine, q.op, q.bytes, q.nodes, t_us));
            }
            Ok(())
        },
    )?;
    m.attempted = t.attempted;
    m.failed = t.failed;
    m.digest = t.digest.finish();
    m.paper_mape = mean(t.errors);
    Ok(m)
}
