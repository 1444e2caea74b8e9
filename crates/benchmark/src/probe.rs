//! Replays of the layers that only run inside another call.
//!
//! `Schedule::check`, the `desim` queue and `NetState::send` are called
//! from inside `execute`, and schedule builds and executions from
//! inside `harness::measure`, where the benchmark cannot time them. A
//! traced run re-runs the enclosing call with recording on and feeds the
//! recorded inputs through each layer's public API, timing each replay.
//! A replay that does not reproduce the recording fails its layer's
//! fidelity gate ([`Gates`](crate::trace::Gates)).

use crate::trace::{Layer, Tracer};
use desim::provenance::ROOT;
use desim::{Engine, EventWorld, Provenance, Scheduler, SimTime, SplitMix64, TypedEvent};
use harness::{measure, Measurement, Protocol};
use mpisim::comm::RunOptions;
use mpisim::{
    Communicator, CpuNoise, ExecOutcome, MessageTrace, Observed, OpClass, Rank, Schedule,
    SimMpiError,
};
use netmodel::NetState;
use std::time::{Duration, Instant};

/// Counts one built schedule toward `collectives.schedules` and
/// `collectives.steps`.
pub(crate) fn count_schedule(tr: &mut Tracer, s: &Schedule, scale: f64) {
    if tr.enabled() {
        tr.counters.schedules += scale;
        tr.counters.steps += s.total_steps() as f64 * scale;
    }
}

/// `harness::measure`, as a call span. When tracing and `replay` is
/// `Some(k)`, its schedule builds and executions are replayed beneath
/// the span and attributed `k` times (a caller that replays every k-th
/// call). Only repetition 0 is replayed, scaled by the repetition
/// count: repetitions differ only in their start skew, and replaying
/// all of them would push a traced run past three times the untraced
/// wall.
pub(crate) fn measure_traced(
    tr: &mut Tracer,
    comm: &Communicator,
    op: OpClass,
    bytes: u32,
    protocol: &Protocol,
    replay: Option<f64>,
) -> Result<Measurement, SimMpiError> {
    let (m, id) = tr.call(Layer::Harness, || measure(comm, op, bytes, protocol));
    if let (Ok(m), Some(id), Some(k)) = (&m, id, replay) {
        probe_measure(tr, id, comm, op, bytes, protocol, m, k);
    }
    m
}

/// The per-repetition inputs `harness::measure` draws: per-rank start
/// skew, then (with OS noise on) the noise seed.
fn repetition_inputs(
    rng: &mut SplitMix64,
    p: usize,
    protocol: &Protocol,
) -> (Vec<SimTime>, Option<CpuNoise>) {
    let max_ns = protocol.max_skew.as_nanos();
    let skew = (0..p)
        .map(|_| {
            if max_ns == 0 {
                SimTime::ZERO
            } else {
                SimTime::from_nanos(rng.next_below(max_ns + 1))
            }
        })
        .collect();
    let noise = (protocol.os_noise > 0.0).then(|| CpuNoise {
        amplitude: protocol.os_noise,
        seed: rng.next_u64(),
    });
    (skew, noise)
}

/// The max-reduced per-iteration time of one repetition, computed the
/// way `harness::measure` does.
fn repetition_time_us(out: &ExecOutcome, protocol: &Protocol, p: usize) -> f64 {
    let quantize = |t: SimTime| {
        let us = t.as_micros_f64();
        let q = protocol.timer_resolution.as_micros_f64();
        if q <= 0.0 {
            us
        } else {
            (us / q).floor() * q
        }
    };
    let (start, end) = (protocol.warmup, protocol.warmup + protocol.iterations);
    (0..p)
        .map(|r| {
            (quantize(out.finish[end][r]) - quantize(out.finish[start][r]))
                / protocol.iterations as f64
        })
        .fold(f64::MIN, f64::max)
}

#[allow(clippy::too_many_arguments)]
fn probe_measure(
    tr: &mut Tracer,
    parent: usize,
    comm: &Communicator,
    op: OpClass,
    bytes: u32,
    protocol: &Protocol,
    m: &Measurement,
    k: f64,
) {
    tr.instrument(|tr| {
        let t0 = Instant::now();
        let built = (
            comm.schedule(OpClass::Barrier, Rank(0), 0),
            comm.schedule(op, Rank(0), bytes),
        );
        let wall = t0.elapsed();
        let (Ok(barrier), Ok(coll)) = built else {
            tr.gates.harness = false;
            return;
        };
        tr.carve(parent, Layer::Build, t0, wall, k);
        count_schedule(tr, &barrier, k);
        count_schedule(tr, &coll, k);

        let segments: Vec<&Schedule> = std::iter::once(&barrier)
            .chain(std::iter::repeat_n(&coll, protocol.runs_per_repetition()))
            .collect();
        let (start, cpu_noise) =
            repetition_inputs(&mut SplitMix64::new(protocol.seed), comm.size(), protocol);
        let opts = RunOptions {
            start_times: Some(start),
            cpu_noise,
            ..RunOptions::default()
        };
        let t0 = Instant::now();
        let out = comm.run_with(&segments, opts.clone());
        let wall = t0.elapsed();
        let (Ok(out), Some(&measured)) = (out, m.per_repetition_us.first()) else {
            tr.gates.harness = false;
            return;
        };
        let scale = k * protocol.repetitions as f64;
        let exec = tr.carve(parent, Layer::Execute, t0, wall, scale);
        tr.counters.runs += scale;
        if repetition_time_us(&out, protocol, comm.size()).to_bits() != measured.to_bits() {
            tr.gates.harness = false;
        }
        probe_execution(tr, exec, comm, &segments, &opts, scale, None);
    });
}

/// Replays, beneath execute span `parent`, what one execution of
/// `segments` did inside the executor: the schedule checks, the event
/// queue and the network sends, each attributed `scale` times. Uses the
/// `recorded` run when it carries provenance and a trace; otherwise
/// re-runs the execution observed.
pub(crate) fn probe_execution(
    tr: &mut Tracer,
    parent: usize,
    comm: &Communicator,
    segments: &[&Schedule],
    opts: &RunOptions,
    scale: f64,
    recorded: Option<(&ExecOutcome, &Observed)>,
) {
    tr.instrument(|tr| {
        // The executor checks each distinct schedule once per call.
        for (i, s) in segments.iter().enumerate() {
            if segments[..i].iter().any(|o| std::ptr::eq(*o, *s)) {
                continue;
            }
            let t0 = Instant::now();
            // The recorded execution succeeded, so its schedules check.
            let _ = s.check();
            tr.carve(parent, Layer::Check, t0, t0.elapsed(), scale);
        }

        let owned;
        let (out, observed) = match recorded {
            Some(r) => r,
            None => {
                let opts = RunOptions {
                    record_trace: true,
                    provenance: true,
                    trace_limit: Some(usize::MAX),
                    ..opts.clone()
                };
                match comm.run_observed(segments, opts) {
                    Ok(o) => {
                        owned = o;
                        (&owned.0, &owned.1)
                    }
                    Err(_) => {
                        tr.gates.queue = false;
                        tr.gates.send = false;
                        return;
                    }
                }
            }
        };

        match &observed.provenance {
            Some(prov) => {
                let q = replay_queue(prov);
                if q.fired != out.events || q.high_water != observed.queue_high_water {
                    tr.gates.queue = false;
                }
                tr.carve(parent, Layer::Queue, q.started, q.wall, scale);
                tr.counters.events += out.events as f64 * scale;
                tr.counters.queue_high_water = tr.counters.queue_high_water.max(q.high_water);
            }
            None => tr.gates.queue = false,
        }

        if out.dropped_messages > 0 {
            tr.gates.send = false;
        }
        match replay_sends(comm, &out.trace) {
            Ok(s) => {
                if !s.exact {
                    tr.gates.send = false;
                }
                tr.carve(parent, Layer::Send, s.started, s.wall, scale);
                let c = &mut tr.counters;
                c.sends += out.trace.len() as f64 * scale;
                c.bytes += s.bytes as f64 * scale;
                c.hops += s.hops as f64 * scale;
                c.contended += s.contended as f64 * scale;
            }
            Err(_) => tr.gates.send = false,
        }
    });
}

/// What a bare-engine replay of a provenance tree did.
#[derive(Debug, Clone, Copy)]
pub struct QueueReplay {
    /// Events fired.
    pub fired: u64,
    /// Largest queue length.
    pub high_water: usize,
    /// When the timed replay started.
    pub started: Instant,
    /// Host time of posting the roots and running the engine.
    pub wall: Duration,
}

/// A provenance tree as a world: firing event `id` posts its recorded
/// children at their recorded instants.
struct Tree {
    first_child: Vec<usize>,
    children: Vec<u64>,
    at: Vec<SimTime>,
}

impl EventWorld for Tree {
    fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
        let TypedEvent::Timer { id } = ev else {
            unreachable!("the queue replay posts only timers")
        };
        let id = id as usize;
        for &child in &self.children[self.first_child[id]..self.first_child[id + 1]] {
            s.post_at(self.at[child as usize], TypedEvent::Timer { id: child });
        }
    }
}

/// Replays a run's causal tree through a bare `desim::Engine`: the root
/// stimuli are posted in sequence order, and each child is posted with
/// `post_at` when its parent fires. Sequence numbers, and therefore the
/// firing order, match the recorded run, so the event count and queue
/// high-water must too; the timed part is pure queue and dispatch work.
pub fn replay_queue(prov: &Provenance) -> QueueReplay {
    let n = prov.len();
    let records = (0..n as u64).map(|seq| prov.get(seq).expect("sequence numbers are dense"));
    let mut first_child = vec![0usize; n + 1];
    for r in records.clone().filter(|r| r.parent != ROOT) {
        first_child[r.parent as usize + 1] += 1;
    }
    for i in 0..n {
        first_child[i + 1] += first_child[i];
    }
    let mut fill = first_child.clone();
    let mut children = vec![0u64; first_child[n]];
    let mut roots = Vec::new();
    let mut at = Vec::with_capacity(n);
    for (seq, r) in records.enumerate() {
        at.push(r.at);
        if r.parent == ROOT {
            roots.push(seq as u64);
        } else {
            let slot = &mut fill[r.parent as usize];
            children[*slot] = seq as u64;
            *slot += 1;
        }
    }
    let mut tree = Tree {
        first_child,
        children,
        at,
    };
    let mut engine = Engine::new();
    let started = Instant::now();
    for &id in &roots {
        engine.post_at(tree.at[id as usize], TypedEvent::Timer { id });
    }
    engine.run(&mut tree);
    let wall = started.elapsed();
    QueueReplay {
        fired: engine.events_fired(),
        high_water: engine.queue_high_water(),
        started,
        wall,
    }
}

/// What replaying a message trace through a fresh `NetState` did.
#[derive(Debug, Clone, Copy)]
pub struct SendReplay {
    /// Payload bytes sent.
    pub bytes: u64,
    /// Link traversals over all sends.
    pub hops: u64,
    /// Sends that waited for a busy injection engine or link.
    pub contended: u64,
    /// True when every CPU-release and delivered instant matched the
    /// trace.
    pub exact: bool,
    /// When the timed replay started.
    pub started: Instant,
    /// Host time of the sends.
    pub wall: Duration,
}

/// Replays `trace`, in trace order, through `NetState::send` on a fresh
/// network for `comm`'s partition. The executor calls `send` in that
/// order, so every instant must match.
///
/// # Errors
///
/// Fails when the machine's placement cannot map `comm`'s ranks.
pub fn replay_sends(
    comm: &Communicator,
    trace: &[MessageTrace],
) -> Result<SendReplay, SimMpiError> {
    let machine = comm.machine();
    let spec = machine.spec();
    let p = comm.size();
    let nodes = machine
        .placement()
        .table(p)
        .map_err(SimMpiError::InvalidSpec)?;
    let mut net = NetState::with_config(spec, p, machine.wire_config());
    let mut timings = Vec::with_capacity(trace.len());
    let started = Instant::now();
    for m in trace {
        timings.push(net.send(spec, m.class, nodes[m.src], nodes[m.dst], m.bytes, m.posted));
    }
    let wall = started.elapsed();
    let exact = timings
        .iter()
        .zip(trace)
        .all(|(t, m)| t.delivered == m.delivered && t.cpu_release == m.wire_start);
    // Routes are deterministic per pair; look each pair up once.
    let mut pair_hops = vec![None; p * p];
    let hops = trace
        .iter()
        .map(|m| {
            *pair_hops[m.src * p + m.dst].get_or_insert_with(|| {
                net.topology().route(nodes[m.src], nodes[m.dst]).hops() as u64
            })
        })
        .sum();
    Ok(SendReplay {
        bytes: trace.iter().map(|m| u64::from(m.bytes)).sum(),
        hops,
        contended: trace.iter().filter(|m| !m.uncontended()).count() as u64,
        exact,
        started,
        wall,
    })
}
