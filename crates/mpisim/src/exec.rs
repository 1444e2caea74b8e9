//! The schedule executor.
//!
//! Runs a sequence of collective [`Schedule`]s on the discrete-event
//! engine over a machine's [`NetState`]. Every rank is a small state
//! machine: it walks its concatenated step tape, charging software
//! overheads from the machine's cost table and wire time from the
//! network model. Ranks flow from one segment into the next without any
//! implicit synchronization — exactly like the paper's measurement loop,
//! where a barrier "only synchronizes the processes logically" (§2).
//!
//! All executor events ride the engine's typed path
//! ([`desim::TypedEvent`]): rank wakeups are `RankResume`, payload
//! arrivals are `MessageReady`, and deferred sends are `ScheduleStep`
//! carrying the tape position to re-read — no per-event allocation
//! anywhere in the hot loop.
//!
//! Per-rank completion timestamps are recorded at every segment boundary,
//! which is what the measurement harness needs to reconstruct the
//! paper's per-process `MPI_Wtime` readings.
//!
//! [`Communicator::run_with`](crate::Communicator::run_with) and
//! [`Communicator::run_observed`](crate::Communicator::run_observed) are
//! the way in: the communicator supplies the machine and the rank-to-node
//! table, and [`RunOptions`] the per-run settings.

use crate::comm::RunOptions;
use crate::error::SimMpiError;
use crate::machine::Machine;
use collectives::{Schedule, Step};
use desim::{Engine, EventWorld, Scheduler, SimDuration, SimTime, SplitMix64, TypedEvent};
use netmodel::{MachineSpec, NetInstr, NetState, OpClass};
use topo::NodeId;

/// Default cap on recorded [`MessageTrace`] entries (~1M): a 128-node
/// alltoall sweep would otherwise allocate without bound.
pub const DEFAULT_TRACE_LIMIT: usize = 1 << 20;

/// Same-instant tie-break policy for an execution.
///
/// Generalizes the old `invert_ties: bool` flag: `InvertAll` is the old
/// `true` (every send's delivery/release post order reversed — the
/// eager-delivery failure mode), while [`TieBreakPolicy::InvertPair`]
/// inverts exactly one targeted adjacent pair, leaving every other
/// firing decision untouched — the minimal reproducible perturbation
/// the `ordercheck` explorer replays per candidate pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TieBreakPolicy {
    /// The committed deterministic order: ties fire in insertion order.
    #[default]
    InsertionOrder,
    /// Deliberately invert the send-completion tie-break on *every*
    /// send: post the CPU release before the delivery event (the
    /// reverse of the committed order in `post_send`). Same-instant
    /// FIFO ties then fire in the opposite order — the exact failure
    /// mode of the abandoned eager-delivery prototype.
    InvertAll,
    /// Invert exactly one same-instant adjacent pair, identified by the
    /// firing instant and the scheduling seqs of the two events (from a
    /// baseline run's [`desim::EventLog`]). Plumbs through to
    /// [`desim::Engine::with_tie_swap`]; whether the swap actually
    /// engaged is reported via [`Observed::tie_swap_applied`].
    InvertPair {
        /// The shared firing instant, in nanoseconds.
        at_ns: u64,
        /// Scheduling seq of the event that fires first in the baseline.
        first_seq: u64,
        /// Scheduling seq of the event that fires immediately after it.
        second_seq: u64,
    },
}

/// Background-interference model: per-rank CPU slowdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuNoise {
    /// Maximum fractional slowdown (0.1 = up to 10% slower).
    pub amplitude: f64,
    /// Draw seed.
    pub seed: u64,
}

/// One traced message: who sent what to whom, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageTrace {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u32,
    /// Operation class the message belongs to.
    pub class: OpClass,
    /// Instant the sender's CPU finished its per-message overhead and
    /// handed the payload to the network.
    pub posted: SimTime,
    /// Instant the sending CPU was released (payload copy / engine setup
    /// done) — the start of the message's wire journey.
    pub wire_start: SimTime,
    /// Instant the full payload arrived at the destination node.
    pub delivered: SimTime,
    /// Time the message queued behind its node's injection engine.
    pub inject_wait: SimDuration,
    /// Time the message queued behind busy links (contention).
    pub link_wait: SimDuration,
}

impl MessageTrace {
    /// True when the message never waited for a busy injection engine or
    /// link — see [`netmodel::SendTiming::uncontended`].
    pub fn uncontended(&self) -> bool {
        self.inject_wait == SimDuration::ZERO && self.link_wait == SimDuration::ZERO
    }
}

/// Where one stretch of a rank's time went — the label on a
/// [`PhaseSpan`] and the granularity of the observability trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Collective-entry software overhead.
    Entry,
    /// Per-message send-side software overhead (`o_send`).
    SendOverhead,
    /// Payload copy / engine setup holding the sending CPU.
    Copy,
    /// Per-message receive-side software overhead plus receive copy.
    RecvOverhead,
    /// Reduction arithmetic.
    Compute,
    /// Blocked in a receive waiting for the payload to arrive.
    RecvWait,
    /// Waiting for the (hardware) barrier to release.
    BarrierWait,
}

impl PhaseKind {
    /// Short label used as the trace span name.
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Entry => "entry",
            PhaseKind::SendOverhead => "send",
            PhaseKind::Copy => "copy",
            PhaseKind::RecvOverhead => "recv",
            PhaseKind::Compute => "compute",
            PhaseKind::RecvWait => "wait",
            PhaseKind::BarrierWait => "barrier",
        }
    }

    /// True for the blocked-waiting kinds (idle CPU), false for the
    /// software kinds (busy CPU).
    pub fn is_blocked(self) -> bool {
        matches!(self, PhaseKind::RecvWait | PhaseKind::BarrierWait)
    }
}

/// One attributed stretch of a rank's timeline, collected when running
/// under [`Communicator::run_observed`](crate::Communicator::run_observed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The rank whose time this is.
    pub rank: usize,
    /// What the rank was doing.
    pub kind: PhaseKind,
    /// Span start instant.
    pub start: SimTime,
    /// Span end instant.
    pub end: SimTime,
    /// Who ended a blocked span: the sending rank for [`PhaseKind::RecvWait`],
    /// the last-arriving (triggering) rank for [`PhaseKind::BarrierWait`],
    /// `None` for CPU-busy spans. This is the causal edge the
    /// critical-path walker follows across ranks.
    pub woke_by: Option<u32>,
}

/// Always-collected per-rank split of execution time. The two buckets
/// partition the rank's end-to-end elapsed time exactly:
/// `sw + blocked == ExecOutcome::rank_elapsed(r)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankPhases {
    /// CPU-busy software time: entry/send/recv overheads, payload
    /// copies, reduction arithmetic.
    pub sw: SimDuration,
    /// Blocked-waiting time: receives waiting for data, barrier waits.
    pub blocked: SimDuration,
}

/// Extra observability collected by
/// [`Communicator::run_observed`](crate::Communicator::run_observed): the
/// span timeline, network instrumentation, and engine queue statistics.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Every attributed phase span, in the order the executor emitted
    /// them (non-decreasing per rank, interleaved across ranks).
    pub spans: Vec<PhaseSpan>,
    /// Per-link / per-class network accounting.
    pub net: NetInstr,
    /// Event-queue high-water mark of the run.
    pub queue_high_water: usize,
    /// How many events entered the queue (the `engine.alloc.*`
    /// counter).
    pub event_stats: desim::EventStats,
    /// Causal event-parent log, when [`RunOptions::provenance`] was set.
    pub provenance: Option<desim::Provenance>,
    /// Canonical fired-event stream, when [`RunOptions::event_log`] was
    /// set.
    pub event_log: Option<desim::EventLog>,
    /// Whether a [`TieBreakPolicy::InvertPair`] swap actually engaged:
    /// `None` when no pair inversion was requested, `Some(false)` when
    /// the targeted pair never appeared adjacently (run unperturbed).
    pub tie_swap_applied: Option<bool>,
}

/// The outcome of executing a schedule sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Per-rank start instants actually used.
    pub start: Vec<SimTime>,
    /// `finish[segment][rank]`: when each rank completed each segment.
    pub finish: Vec<Vec<SimTime>>,
    /// Total messages injected into the network.
    pub messages: u64,
    /// Total payload bytes injected.
    pub bytes: u64,
    /// Discrete events fired.
    pub events: u64,
    /// Message trace, when [`RunOptions::record_trace`] was set.
    pub trace: Vec<MessageTrace>,
    /// Messages that exceeded [`RunOptions::trace_limit`] and were
    /// counted instead of traced.
    pub dropped_messages: u64,
    /// Per-link busy times (hottest first), when
    /// [`RunOptions::record_trace`] was set: the link-load distribution
    /// for hotspot analysis.
    pub link_loads: Vec<(usize, SimDuration)>,
    /// Per-rank software/blocked time split (always collected — two
    /// integer adds per charge).
    pub phases: Vec<RankPhases>,
}

impl ExecOutcome {
    /// The instant the last rank finished the final segment.
    ///
    /// # Panics
    ///
    /// Panics if the outcome has no segments (cannot happen via the
    /// public API, which rejects empty sequences).
    pub fn completed(&self) -> SimTime {
        *self
            .finish
            .last()
            .expect("at least one segment")
            .iter()
            .max()
            .expect("at least one rank")
    }

    /// Elapsed span of segment `seg` on rank `r`: from that rank's finish
    /// of the previous segment (or its start) to its finish of `seg`.
    pub fn rank_segment_time(&self, seg: usize, r: usize) -> SimDuration {
        let end = self.finish[seg][r];
        let begin = if seg == 0 {
            self.start[r]
        } else {
            self.finish[seg - 1][r]
        };
        end.since(begin)
    }

    /// End-to-end elapsed time of rank `r`: from its start instant to
    /// its finish of the last segment. Equals
    /// `phases[r].sw + phases[r].blocked` exactly.
    pub fn rank_elapsed(&self, r: usize) -> SimDuration {
        self.finish.last().expect("at least one segment")[r].abs_diff(self.start[r])
    }
}

/// One item of a rank's execution tape.
#[derive(Debug, Clone, Copy)]
enum Tape {
    /// Charge the collective-entry overhead for `class`.
    Entry(OpClass),
    /// Execute a schedule step under `class` costs.
    Op(Step, OpClass),
    /// Record the finish timestamp of segment `idx`.
    SegEnd(usize),
}

struct RankState {
    tape: Vec<Tape>,
    pc: usize,
    blocked_on: Option<usize>,
    /// CPU slowdown factor (1.0 = quiet node).
    slowdown: f64,
    /// Physical node this rank runs on.
    node: NodeId,
    /// Accumulated CPU-busy software time.
    sw: SimDuration,
    /// Accumulated blocked-waiting time.
    blocked: SimDuration,
    /// Set while the rank is parked (recv wait / barrier wait): when the
    /// wait began and what kind it is. Taken at the top of `advance`.
    wait_since: Option<(SimTime, PhaseKind)>,
    /// Which rank's action ends the current park (message source or
    /// barrier trigger). Set by `deliver` / the barrier release and
    /// consumed together with `wait_since`.
    wake_cause: Option<u32>,
}

#[derive(Default)]
struct HwBarrierState {
    waiting: Vec<usize>,
}

struct World {
    spec: MachineSpec,
    net: NetState,
    ranks: Vec<RankState>,
    /// Arrived-but-unconsumed messages per channel, indexed
    /// `dst * p + src`. A count suffices: an arrival is delivered by an
    /// event that fired no later than the receive consuming it (the
    /// engine never posts into the past), so that receive starts at its
    /// own instant and never reads an arrival time.
    arrivals: Vec<u32>,
    barrier: HwBarrierState,
    finish: Vec<Vec<SimTime>>,
    trace: Option<Vec<MessageTrace>>,
    trace_cap: usize,
    dropped: u64,
    /// Phase-span sink, allocated only on observed runs.
    spans: Option<Vec<PhaseSpan>>,
    /// See [`TieBreakPolicy::InvertAll`].
    invert_ties: bool,
}

impl EventWorld for World {
    /// The executor's entire event vocabulary, dispatched by `match` —
    /// this is the per-event hot path of every simulation.
    fn dispatch(&mut self, s: &mut Scheduler<Self>, ev: TypedEvent) {
        match ev {
            TypedEvent::RankResume { rank } => advance(s, self, rank as usize),
            TypedEvent::MessageReady { src, dst } => deliver(s, self, src as usize, dst as usize),
            TypedEvent::ScheduleStep { rank, step } => {
                post_send(s, self, rank as usize, step as usize);
            }
            other => unreachable!("executor never posts {other:?}"),
        }
    }
}

/// Executes `segments` back to back on a fresh network state of a
/// `machine_nodes`-node partition of `machine`, rank `r` running on node
/// `nodes[r]`: the occupancy watermarks start empty, while the topology
/// and route table are the process-wide ones for the machine's topology
/// and partition size. `observe` adds phase spans, per-link/per-class
/// network instrumentation and engine queue statistics, and implies
/// message tracing.
///
/// [`Communicator`](crate::Communicator) is the only caller: it has
/// checked that `segments` is non-empty and that every segment has one
/// rank per entry of `nodes`.
///
/// # Errors
///
/// Returns [`SimMpiError`] if a schedule fails validation, the
/// start-time vector has the wrong length, or a rank stalls with
/// validation skipped.
///
/// # Panics
///
/// Panics if the engine's runaway-event backstop trips (indicates an
/// executor bug, not user error).
pub(crate) fn execute(
    machine: &Machine,
    nodes: &[NodeId],
    machine_nodes: usize,
    segments: &[&Schedule],
    opts: RunOptions,
    observe: bool,
) -> Result<(ExecOutcome, Option<Observed>), SimMpiError> {
    let p = nodes.len();
    // Validate each *distinct* schedule once: measurement sequences repeat
    // the same collective 20+ times, and re-walking its steps per segment
    // would dominate small runs.
    let mut checked: Vec<*const Schedule> = Vec::new();
    for seg in segments {
        let key: *const Schedule = *seg;
        if !opts.skip_validation && !checked.contains(&key) {
            seg.check()?;
            checked.push(key);
        }
    }
    let start = match opts.start_times {
        Some(v) if v.len() != p => {
            return Err(SimMpiError::BadStartTimes {
                got: v.len(),
                expected: p,
            });
        }
        Some(v) => v,
        None => vec![SimTime::ZERO; p],
    };
    let mut noise_rng = opts
        .cpu_noise
        .map(|n| (n.amplitude, SplitMix64::new(n.seed)));

    // Build per-rank tapes: entry marker + steps per segment, then the
    // segment-end timestamp marker. The schedule's stepping hook
    // (`Schedule::steps_of`) sizes each tape up front so the build loop
    // never reallocates.
    let tape_cap: Vec<usize> = (0..p)
        .map(|r| {
            segments
                .iter()
                .map(|seg| seg.steps_of(collectives::Rank(r)) + 2)
                .sum()
        })
        .collect();
    let mut ranks: Vec<RankState> = (0..p)
        .map(|r| RankState {
            tape: Vec::with_capacity(tape_cap[r]),
            pc: 0,
            blocked_on: None,
            slowdown: match &mut noise_rng {
                Some((amp, rng)) => 1.0 + *amp * rng.next_f64(),
                None => 1.0,
            },
            node: nodes[r],
            sw: SimDuration::ZERO,
            blocked: SimDuration::ZERO,
            wait_since: None,
            wake_cause: None,
        })
        .collect();
    for (si, seg) in segments.iter().enumerate() {
        for (rank, prog) in seg.iter() {
            let tape = &mut ranks[rank.0].tape;
            tape.push(Tape::Entry(seg.class()));
            tape.extend(prog.iter().map(|&st| Tape::Op(st, seg.class())));
            tape.push(Tape::SegEnd(si));
        }
    }

    let spec = machine.spec();
    let mut world = World {
        spec: spec.clone(),
        net: NetState::with_config(spec, machine_nodes, machine.wire_config()),
        ranks,
        arrivals: vec![0; p * p],
        barrier: HwBarrierState::default(),
        finish: vec![vec![SimTime::ZERO; p]; segments.len()],
        trace: (opts.record_trace || observe).then(Vec::new),
        trace_cap: opts.trace_limit.unwrap_or(DEFAULT_TRACE_LIMIT),
        dropped: 0,
        spans: observe.then(Vec::new),
        invert_ties: opts.tie_break == TieBreakPolicy::InvertAll,
    };
    if observe {
        world.net.enable_instrumentation();
    }
    let mut engine: Engine<World> = Engine::new();
    if opts.provenance {
        engine = engine.with_provenance();
    }
    if opts.event_log {
        engine = engine.with_event_log();
    }
    if let TieBreakPolicy::InvertPair {
        at_ns,
        first_seq,
        second_seq,
    } = opts.tie_break
    {
        engine = engine.with_tie_swap(SimTime::from_nanos(at_ns), first_seq, second_seq);
    }
    for (r, &t) in start.iter().enumerate() {
        engine.post_at(t, TypedEvent::RankResume { rank: r as u32 });
    }
    engine.run(&mut world);

    // Every rank must have drained its tape; anything else is a deadlock
    // that validation would have caught (reachable only via
    // `skip_validation`, so it is a typed error, not a panic — the
    // schedcheck property tests rely on observing it).
    for (r, rs) in world.ranks.iter().enumerate() {
        if rs.pc != rs.tape.len() {
            return Err(SimMpiError::RankStalled {
                rank: r,
                step: rs.pc,
                of: rs.tape.len(),
            });
        }
    }

    let link_loads = if opts.record_trace || observe {
        world
            .net
            .link_loads()
            .into_iter()
            .map(|(id, busy)| (id.0, busy))
            .collect()
    } else {
        Vec::new()
    };
    let observed = observe.then(|| Observed {
        spans: world.spans.take().unwrap_or_default(),
        net: world.net.instrumentation().cloned().unwrap_or_default(),
        queue_high_water: engine.queue_high_water(),
        event_stats: engine.event_stats(),
        provenance: engine.provenance().cloned(),
        event_log: engine.event_log().cloned(),
        tie_swap_applied: engine.tie_swap_applied(),
    });
    let phases = world
        .ranks
        .iter()
        .map(|rs| RankPhases {
            sw: rs.sw,
            blocked: rs.blocked,
        })
        .collect();
    Ok((
        ExecOutcome {
            start,
            finish: world.finish,
            messages: world.net.messages_sent(),
            bytes: world.net.bytes_sent(),
            events: engine.events_fired(),
            trace: world.trace.unwrap_or_default(),
            dropped_messages: world.dropped,
            link_loads,
            phases,
        },
        observed,
    ))
}

/// The typed wakeup event for rank `r` ([`TypedEvent::RankResume`]).
fn resume(r: usize) -> TypedEvent {
    TypedEvent::RankResume { rank: r as u32 }
}

/// Records an attributed span when running observed; free otherwise.
fn push_span(w: &mut World, rank: usize, kind: PhaseKind, start: SimTime, end: SimTime) {
    push_span_woke(w, rank, kind, start, end, None);
}

/// Like [`push_span`], carrying the causal wake source for blocked spans.
fn push_span_woke(
    w: &mut World,
    rank: usize,
    kind: PhaseKind,
    start: SimTime,
    end: SimTime,
    woke_by: Option<u32>,
) {
    if let Some(spans) = &mut w.spans {
        if end > start {
            spans.push(PhaseSpan {
                rank,
                kind,
                start,
                end,
                woke_by,
            });
        }
    }
}

/// Scales a CPU-side duration by the rank's interference slowdown.
fn cpu_charge(w: &World, r: usize, d: SimDuration) -> SimDuration {
    let f = w.ranks[r].slowdown;
    if f == 1.0 {
        d
    } else {
        SimDuration::from_nanos_f64(d.as_nanos() as f64 * f)
    }
}

/// Advances rank `r`'s tape at the current instant until it blocks,
/// schedules a continuation, or finishes.
fn advance(s: &mut Scheduler<World>, w: &mut World, r: usize) {
    let now = s.now();
    // If the rank was parked (recv wait / barrier wait), the wakeup that
    // runs this advance ends the wait: attribute the idle stretch.
    if let Some((t0, kind)) = w.ranks[r].wait_since.take() {
        let woke = w.ranks[r].wake_cause.take();
        w.ranks[r].blocked += now.since(t0);
        push_span_woke(w, r, kind, t0, now, woke);
    }
    loop {
        let Some(&item) = w.ranks[r].tape.get(w.ranks[r].pc) else {
            return; // tape complete
        };
        match item {
            Tape::SegEnd(idx) => {
                w.finish[idx][r] = now;
                w.ranks[r].pc += 1;
            }
            Tape::Entry(class) => {
                w.ranks[r].pc += 1;
                let d = cpu_charge(w, r, w.spec.entry_overhead(class));
                if !d.is_zero() {
                    w.ranks[r].sw += d;
                    push_span(w, r, PhaseKind::Entry, now, now + d);
                    s.post_in(d, resume(r));
                    return;
                }
            }
            Tape::Op(step, class) => match step {
                Step::Send { .. } => {
                    let pc = w.ranks[r].pc;
                    w.ranks[r].pc += 1;
                    let o = cpu_charge(w, r, w.spec.send_overhead(class));
                    w.ranks[r].sw += o;
                    push_span(w, r, PhaseKind::SendOverhead, now, now + o);
                    // Perform the network send at exactly now + o so that
                    // link resources are acquired in true time order. The
                    // event carries only the tape position; `post_send`
                    // re-reads the step — the rank is parked until its
                    // CPU-release event, so the tape entry cannot change
                    // underneath the deferred event.
                    s.post_in(
                        o,
                        TypedEvent::ScheduleStep {
                            rank: r as u32,
                            step: u32::try_from(pc).expect("tape index fits u32"),
                        },
                    );
                    return;
                }
                Step::Recv { from, bytes } => {
                    let channel = r * w.ranks.len() + from.0;
                    if w.arrivals[channel] > 0 {
                        w.arrivals[channel] -= 1;
                        w.ranks[r].pc += 1;
                        let o = cpu_charge(w, r, w.spec.recv_overhead(class, bytes));
                        w.ranks[r].sw += o;
                        push_span(w, r, PhaseKind::RecvOverhead, now, now + o);
                        s.post_at(now + o, resume(r));
                    } else {
                        w.ranks[r].blocked_on = Some(from.0);
                        w.ranks[r].wait_since = Some((now, PhaseKind::RecvWait));
                    }
                    return;
                }
                Step::Compute { bytes } => {
                    w.ranks[r].pc += 1;
                    let d = cpu_charge(w, r, w.spec.compute_cost(bytes));
                    if !d.is_zero() {
                        w.ranks[r].sw += d;
                        push_span(w, r, PhaseKind::Compute, now, now + d);
                        s.post_in(d, resume(r));
                        return;
                    }
                }
                Step::HwBarrier => {
                    w.ranks[r].pc += 1;
                    w.ranks[r].wait_since = Some((now, PhaseKind::BarrierWait));
                    w.barrier.waiting.push(r);
                    if w.barrier.waiting.len() == w.ranks.len() {
                        let latency = w
                            .spec
                            .hw_barrier
                            .map(|hb| SimDuration::from_micros_f64(hb.latency_us(w.ranks.len())))
                            .unwrap_or(SimDuration::ZERO);
                        let release = now + latency;
                        for waiter in std::mem::take(&mut w.barrier.waiting) {
                            // The last arrival (this rank) triggers the
                            // release: it is the causal wake source for
                            // every waiter, including itself.
                            w.ranks[waiter].wake_cause = Some(r as u32);
                            s.post_at(release, resume(waiter));
                        }
                    }
                    return;
                }
            },
        }
    }
}

/// Executes the deferred network send at tape position `step` on rank
/// `r` — the [`TypedEvent::ScheduleStep`] handler, firing exactly
/// `o_send` after the rank charged its send overhead.
fn post_send(s: &mut Scheduler<World>, w: &mut World, r: usize, step: usize) {
    let Some(&Tape::Op(Step::Send { to, bytes }, class)) = w.ranks[r].tape.get(step) else {
        unreachable!("ScheduleStep must point at a Send tape entry");
    };
    let posted = s.now();
    let src_node = w.ranks[r].node;
    let dst_node = w.ranks[to.0].node;
    let World { spec, net, .. } = w;
    let t = net.send(spec, class, src_node, dst_node, bytes, posted);
    // The stretch until the CPU is released is the payload copy / engine
    // setup: software time.
    w.ranks[r].sw += t.cpu_release.since(posted);
    push_span(w, r, PhaseKind::Copy, posted, t.cpu_release);
    if let Some(trace) = &mut w.trace {
        if trace.len() < w.trace_cap {
            trace.push(MessageTrace {
                src: r,
                dst: to.0,
                bytes,
                class,
                posted,
                wire_start: t.cpu_release,
                delivered: t.delivered,
                inject_wait: t.inject_wait,
                link_wait: t.link_wait,
            });
        } else {
            w.dropped += 1;
        }
    }
    // Delivery first, CPU release second — FIFO tie-breaking depends on
    // this insertion order when the two instants coincide. (Delivering
    // eagerly at post time instead would invert same-instant tie-breaks
    // and reorder FIFO link acquisition — the timeline must be identical
    // to the per-event reference, so the arrival stays an event.)
    // `invert_ties` reverses the order on purpose, reproducing that
    // eager-delivery failure mode for differential testing.
    if w.invert_ties {
        let (at, ev) = t.release_event(r);
        s.post_at(at, ev);
        let (at, ev) = t.delivery_event(r, to.0);
        s.post_at(at, ev);
    } else {
        let (at, ev) = t.delivery_event(r, to.0);
        s.post_at(at, ev);
        let (at, ev) = t.release_event(r);
        s.post_at(at, ev);
    }
}

/// Handles a payload arrival at `dst` from `src` at the current instant.
fn deliver(s: &mut Scheduler<World>, w: &mut World, src: usize, dst: usize) {
    w.arrivals[dst * w.ranks.len() + src] += 1;
    if w.ranks[dst].blocked_on == Some(src) {
        w.ranks[dst].blocked_on = None;
        w.ranks[dst].wake_cause = Some(src as u32);
        advance(s, w, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::{barrier, bcast, scatter, Rank};

    /// Runs `segments` on a communicator of `machine` sized to them.
    fn run_with(
        machine: &Machine,
        segments: &[&Schedule],
        options: RunOptions,
    ) -> Result<ExecOutcome, SimMpiError> {
        machine
            .communicator(segments[0].ranks())?
            .run_with(segments, options)
    }

    fn run(machine: &Machine, s: &Schedule) -> ExecOutcome {
        run_with(machine, &[s], RunOptions::default()).expect("execution")
    }

    fn observed(machine: &Machine, s: &Schedule, options: RunOptions) -> (ExecOutcome, Observed) {
        machine
            .communicator(s.ranks())
            .and_then(|comm| comm.run_observed(&[s], options))
            .expect("observed execution")
    }

    #[test]
    fn empty_sequence_rejected() {
        let comm = Machine::sp2().communicator(4).unwrap();
        let e = comm.run_with(&[], RunOptions::default()).unwrap_err();
        assert_eq!(e, SimMpiError::EmptySequence);
    }

    #[test]
    fn invalid_schedule_rejected() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(
            Rank(0),
            Step::Recv {
                from: Rank(1),
                bytes: 4,
            },
        );
        let e = run_with(&Machine::sp2(), &[&s], RunOptions::default()).unwrap_err();
        assert!(matches!(e, SimMpiError::BadSchedule(_)));
    }

    #[test]
    fn unvalidated_deadlock_returns_typed_stall() {
        // With validation skipped, a deadlocking schedule must surface
        // as a typed RankStalled error rather than a panic.
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(
            Rank(0),
            Step::Recv {
                from: Rank(1),
                bytes: 4,
            },
        );
        s.push(
            Rank(1),
            Step::Recv {
                from: Rank(0),
                bytes: 4,
            },
        );
        let e = run_with(
            &Machine::sp2(),
            &[&s],
            RunOptions {
                skip_validation: true,
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        match &e {
            SimMpiError::RankStalled { rank, step, of } => {
                assert_eq!(*rank, 0);
                assert!(step < of, "stall must be mid-tape: {step}/{of}");
            }
            other => panic!("expected RankStalled, got {other:?}"),
        }
        assert!(e.to_string().contains("stalled"));
    }

    #[test]
    fn bcast_executes_and_orders_ranks() {
        let s = bcast::binomial(8, Rank(0), 1024);
        let out = run(&Machine::sp2(), &s);
        // Root finishes its sends before the deepest leaf gets the data.
        assert!(out.finish[0][0] < out.finish[0][7]);
        assert_eq!(out.messages, 7);
        assert_eq!(out.bytes, 7 * 1024);
        assert!(out.completed() > SimTime::ZERO);
    }

    #[test]
    fn deeper_trees_take_longer() {
        let sp2 = Machine::sp2();
        let t8 = run(&sp2, &bcast::binomial(8, Rank(0), 1024)).completed();
        let t64 = run(&sp2, &bcast::binomial(64, Rank(0), 1024)).completed();
        assert!(t64 > t8);
    }

    #[test]
    fn hw_barrier_releases_all_at_once() {
        let s = barrier::hardware(16);
        let skew: Vec<SimTime> = (0..16)
            .map(|i| SimTime::from_nanos(i as u64 * 500))
            .collect();
        let out = run_with(
            &Machine::t3d(),
            &[&s],
            RunOptions {
                start_times: Some(skew),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let finishes = &out.finish[0];
        let first = finishes[0];
        assert!(finishes.iter().all(|&f| f == first), "single release time");
        // Release = last arrival (7.5us) + ~3us hardware latency.
        let expect_us = 7.5 + 3.0 + 0.011 * 4.0;
        assert!((first.as_micros_f64() - expect_us).abs() < 0.1);
    }

    #[test]
    fn hw_barrier_without_hardware_is_instant_sync() {
        // No hw barrier: latency 0, still synchronizes.
        let s = barrier::hardware(4);
        let out = run(&Machine::sp2(), &s);
        let f = &out.finish[0];
        assert!(f.iter().all(|&t| t == f[0]));
    }

    #[test]
    fn sequence_segments_flow_without_sync() {
        let b = barrier::dissemination(4);
        let c = bcast::binomial(4, Rank(0), 64);
        let out = run_with(&Machine::sp2(), &[&b, &c, &c], RunOptions::default()).unwrap();
        assert_eq!(out.finish.len(), 3);
        for r in 0..4 {
            assert!(out.finish[0][r] <= out.finish[1][r]);
            assert!(out.finish[1][r] <= out.finish[2][r]);
            assert!(out.rank_segment_time(1, r) > SimDuration::ZERO);
        }
    }

    #[test]
    fn start_time_length_checked() {
        let s = bcast::binomial(4, Rank(0), 64);
        let e = run_with(
            &Machine::sp2(),
            &[&s],
            RunOptions {
                start_times: Some(vec![SimTime::ZERO; 3]),
                ..RunOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            e,
            SimMpiError::BadStartTimes {
                got: 3,
                expected: 4
            }
        ));
    }

    #[test]
    fn mismatched_segment_sizes_rejected() {
        let a = bcast::binomial(4, Rank(0), 64);
        let b = bcast::binomial(8, Rank(0), 64);
        let e = run_with(&Machine::sp2(), &[&a, &b], RunOptions::default()).unwrap_err();
        let want = SimMpiError::SizeMismatch {
            schedule: 8,
            communicator: 4,
        };
        assert_eq!(e, want, "the later segment is checked too");
    }

    #[test]
    fn scatter_root_serializes_sends() {
        // Root-side O(p) behaviour: doubling p roughly doubles the
        // scatter time for fixed m.
        let sp2 = Machine::sp2();
        let t16 = run(&sp2, &scatter::linear(16, Rank(0), 4096)).completed();
        let t32 = run(&sp2, &scatter::linear(32, Rank(0), 4096)).completed();
        let ratio = t32.as_micros_f64() / t16.as_micros_f64();
        assert!((1.5..=2.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn execution_is_deterministic() {
        let t3d = Machine::t3d();
        let s = collectives::alltoall::pairwise(16, 2048);
        let a = run(&t3d, &s);
        let b = run(&t3d, &s);
        assert_eq!(a.finish, b.finish);
        assert_eq!(a.events, b.events);
    }

    fn span_sum(spans: &[PhaseSpan], r: usize, blocked: bool) -> SimDuration {
        spans
            .iter()
            .filter(|sp| sp.rank == r && sp.kind.is_blocked() == blocked)
            .fold(SimDuration::ZERO, |acc, sp| acc + sp.end.since(sp.start))
    }

    #[test]
    fn phase_split_partitions_rank_time() {
        for machine in [Machine::sp2(), Machine::t3d()] {
            for s in [
                bcast::binomial(16, Rank(0), 4096),
                collectives::alltoall::pairwise(8, 1024),
                barrier::dissemination(8),
                scatter::linear(8, Rank(0), 2048),
            ] {
                let out = run(&machine, &s);
                for r in 0..s.ranks() {
                    assert_eq!(
                        out.phases[r].sw + out.phases[r].blocked,
                        out.rank_elapsed(r),
                        "rank {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn phase_split_covers_barrier_waits() {
        let s = barrier::hardware(8);
        let skew: Vec<SimTime> = (0..8).map(SimTime::from_micros).collect();
        let out = run_with(
            &Machine::t3d(),
            &[&s],
            RunOptions {
                start_times: Some(skew),
                ..RunOptions::default()
            },
        )
        .unwrap();
        for r in 0..8 {
            assert_eq!(
                out.phases[r].sw + out.phases[r].blocked,
                out.rank_elapsed(r)
            );
        }
        // The earliest starter waits longest at the barrier.
        assert!(out.phases[0].blocked > out.phases[7].blocked);
    }

    #[test]
    fn trace_cap_drops_and_counts() {
        let sp2 = Machine::sp2();
        let s = collectives::alltoall::pairwise(8, 64);
        let out = run_with(
            &sp2,
            &[&s],
            RunOptions {
                record_trace: true,
                trace_limit: Some(5),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.trace.len(), 5);
        assert_eq!(out.dropped_messages, out.messages - 5);
        let untraced = run(&sp2, &s);
        assert!(untraced.trace.is_empty());
        assert_eq!(untraced.dropped_messages, 0);
    }

    #[test]
    fn observed_run_matches_plain_and_spans_sum_to_phases() {
        let t3d = Machine::t3d();
        let s = bcast::binomial(16, Rank(0), 4096);
        let plain = run(&t3d, &s);
        let (out, obs) = observed(&t3d, &s, RunOptions::default());
        // Observation must not perturb timing.
        assert_eq!(out.finish, plain.finish);
        assert_eq!(out.phases, plain.phases);
        assert!(obs.queue_high_water > 0);
        assert!(obs.net.link_msgs.iter().sum::<u64>() > 0);
        // The span timeline tiles each rank's sw/blocked split exactly.
        for r in 0..16 {
            assert_eq!(span_sum(&obs.spans, r, false), out.phases[r].sw);
            assert_eq!(span_sum(&obs.spans, r, true), out.phases[r].blocked);
        }
    }

    #[test]
    fn provenance_run_collects_chain_without_perturbing() {
        let t3d = Machine::t3d();
        let s = collectives::alltoall::pairwise(16, 2048);
        let plain = run(&t3d, &s);
        let (out, obs) = observed(
            &t3d,
            &s,
            RunOptions {
                provenance: true,
                ..RunOptions::default()
            },
        );
        assert_eq!(
            out.finish, plain.finish,
            "provenance must not change timing"
        );
        assert_eq!(out.events, plain.events);
        let prov = obs.provenance.expect("provenance collected");
        assert_eq!(prov.len() as u64, out.events, "one record per event");
        // The final completion event chains back through real causality.
        let chain = prov.chain(prov.last_fired().expect("events fired"));
        assert!(chain.len() > 2, "chain depth {}", chain.len());
    }

    #[test]
    fn provenance_off_allocates_nothing_extra() {
        // The disabled provenance path must leave the event-allocation
        // profile byte-identical: same EventStats.
        let s = collectives::alltoall::pairwise(16, 2048);
        let observe = |provenance: bool| {
            let options = RunOptions {
                provenance,
                ..RunOptions::default()
            };
            observed(&Machine::t3d(), &s, options).1
        };
        let off = observe(false);
        let on = observe(true);
        assert!(off.provenance.is_none());
        assert_eq!(off.event_stats, on.event_stats);
    }

    #[test]
    fn skew_delays_completion() {
        let sp2 = Machine::sp2();
        let s = bcast::binomial(4, Rank(0), 64);
        let base = run(&sp2, &s).completed();
        let skewed = run_with(
            &sp2,
            &[&s],
            RunOptions {
                start_times: Some(vec![
                    SimTime::from_micros(100),
                    SimTime::ZERO,
                    SimTime::ZERO,
                    SimTime::ZERO,
                ]),
                ..RunOptions::default()
            },
        )
        .unwrap()
        .completed();
        assert!(skewed >= base + SimDuration::from_micros(90));
    }
}
