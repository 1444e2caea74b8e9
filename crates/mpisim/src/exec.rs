//! The schedule executor.
//!
//! Runs a sequence of collective [`Schedule`]s on the discrete-event
//! engine over a machine's [`NetState`]. Every rank is a small state
//! machine: it walks each segment's program for that rank in place
//! ([`Schedule::program`]), charging software overheads from the
//! machine's cost table and wire time from the network model. Ranks
//! flow from one segment into the next without any implicit
//! synchronization — exactly like the paper's measurement loop,
//! where a barrier "only synchronizes the processes logically" (§2).
//!
//! All executor events ride the engine's typed path
//! ([`desim::TypedEvent`]): rank wakeups are `RankResume`, payload
//! arrivals are `MessageReady`, and deferred sends are `ScheduleStep`
//! carrying the rank's run position to re-read — no per-event
//! allocation anywhere in the hot loop, and no per-run copy of the
//! programs: apart from its [`FinishTimes`] table (one time per rank
//! and segment, allocated once), an execution holds O(p² + schedule)
//! memory and makes the same allocations however many segments it
//! runs.
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
use collectives::{Rank, Schedule, Step};
use desim::{Engine, EventWorld, Scheduler, SimDuration, SimTime, SplitMix64, TypedEvent};
use netmodel::{MachineSpec, NetInstr, NetState, OpClass};
use std::ops::{Index, IndexMut};
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
    pub finish: FinishTimes,
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

/// When each rank completed each segment: one row of `p` instants per
/// segment, stored segment by segment in one buffer. `finish[seg]` is
/// segment `seg`'s row and `finish[seg][r]` rank `r`'s instant in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishTimes {
    p: usize,
    times: Vec<SimTime>,
}

impl FinishTimes {
    /// The table whose rows are `times`, `p` instants at a time.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero or does not divide `times.len()`.
    pub fn new(p: usize, times: Vec<SimTime>) -> Self {
        assert!(
            p > 0 && times.len().is_multiple_of(p),
            "{} finish times do not make rows of {p}",
            times.len()
        );
        FinishTimes { p, times }
    }

    /// Number of segments (rows).
    pub fn len(&self) -> usize {
        self.times.len() / self.p
    }

    /// True when the table has no segments.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The last segment's row.
    pub fn last(&self) -> Option<&[SimTime]> {
        self.iter().next_back()
    }

    /// The rows, first segment first.
    pub fn iter(&self) -> std::slice::ChunksExact<'_, SimTime> {
        self.times.chunks_exact(self.p)
    }
}

impl Index<usize> for FinishTimes {
    type Output = [SimTime];

    fn index(&self, seg: usize) -> &[SimTime] {
        &self.times[seg * self.p..(seg + 1) * self.p]
    }
}

impl IndexMut<usize> for FinishTimes {
    fn index_mut(&mut self, seg: usize) -> &mut [SimTime] {
        &mut self.times[seg * self.p..(seg + 1) * self.p]
    }
}

/// One rank's place in the run: segment `seg` (`segments.len()` once
/// done), whose program for this rank and class are cached in `prog`
/// and `class`. Position `k` inside the segment is its entry (0), its
/// steps (`1..=prog.len()`) or its end (`prog.len() + 1`), and `base +
/// k` counts positions over all segments: what
/// [`TypedEvent::ScheduleStep`] and [`SimMpiError::RankStalled`] carry.
struct RankState<'a> {
    prog: &'a [Step],
    class: OpClass,
    seg: usize,
    k: usize,
    base: usize,
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

struct World<'a> {
    spec: MachineSpec,
    net: NetState,
    segments: &'a [&'a Schedule],
    ranks: Vec<RankState<'a>>,
    /// Arrived-but-unconsumed messages per channel, indexed
    /// `dst * p + src`. A count suffices: an arrival is delivered by an
    /// event that fired no later than the receive consuming it (the
    /// engine never posts into the past), so that receive starts at its
    /// own instant and never reads an arrival time.
    arrivals: Vec<u32>,
    barrier: HwBarrierState,
    finish: FinishTimes,
    trace: Option<Vec<MessageTrace>>,
    trace_cap: usize,
    dropped: u64,
    /// Phase-span sink, allocated only on observed runs.
    spans: Option<Vec<PhaseSpan>>,
    /// See [`TieBreakPolicy::InvertAll`].
    invert_ties: bool,
}

impl EventWorld for World<'_> {
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
/// Returns [`SimMpiError`] if a rank has more run positions than a
/// [`TypedEvent::ScheduleStep`] can address, a schedule fails
/// validation, the start-time vector has the wrong length, or a rank
/// stalls with validation skipped.
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
    // Measurement sequences repeat the same collective 20+ times, so
    // each *distinct* schedule is counted and validated once: re-walking
    // its steps per segment would dominate small runs.
    let distinct = distinct(segments);
    if let Some(rank) = (0..p).find(|&r| positions(&distinct, r) > MAX_POSITIONS) {
        let positions = positions(&distinct, rank);
        return Err(SimMpiError::SequenceTooLong { rank, positions });
    }
    if !opts.skip_validation {
        for &(seg, _) in &distinct {
            seg.check()?;
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

    // Every log this run keeps is allocated once, at its bound.
    let tracing = opts.record_trace || observe;
    let trace_cap = opts.trace_limit.unwrap_or(DEFAULT_TRACE_LIMIT);
    let bounds = if tracing || opts.provenance || opts.event_log {
        LogBounds::of(&distinct, p)
    } else {
        LogBounds::default()
    };
    let ranks: Vec<RankState> = nodes
        .iter()
        .enumerate()
        .map(|(r, &node)| RankState {
            prog: segments[0].program(Rank(r)),
            class: segments[0].class(),
            seg: 0,
            k: 0,
            base: 0,
            blocked_on: None,
            slowdown: match &mut noise_rng {
                Some((amp, rng)) => 1.0 + *amp * rng.next_f64(),
                None => 1.0,
            },
            node,
            sw: SimDuration::ZERO,
            blocked: SimDuration::ZERO,
            wait_since: None,
            wake_cause: None,
        })
        .collect();
    let spec = machine.spec();
    let mut world = World {
        spec: spec.clone(),
        net: NetState::with_config(spec, machine_nodes, machine.wire_config()),
        segments,
        ranks,
        arrivals: vec![0; p * p],
        barrier: HwBarrierState::default(),
        finish: FinishTimes::new(p, vec![SimTime::ZERO; p * segments.len()]),
        trace: tracing.then(|| Vec::with_capacity(bounds.messages.min(trace_cap))),
        trace_cap,
        dropped: 0,
        spans: observe.then(|| Vec::with_capacity(bounds.spans)),
        invert_ties: opts.tie_break == TieBreakPolicy::InvertAll,
    };
    if observe {
        world.net.enable_instrumentation();
    }
    let mut engine: Engine<World> = Engine::new();
    if opts.provenance {
        engine = engine.with_provenance(bounds.events);
    }
    if opts.event_log {
        engine = engine.with_event_log(bounds.events);
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

    // Every rank must have run through every segment; anything else is
    // a deadlock that validation would have caught (reachable only via
    // `skip_validation`, so it is a typed error, not a panic — the
    // schedcheck property tests rely on observing it).
    for (r, rs) in world.ranks.iter().enumerate() {
        if rs.seg < segments.len() {
            return Err(SimMpiError::RankStalled {
                rank: r,
                step: rs.base + rs.k,
                of: positions(&distinct, r) as usize,
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
        net: world.net.take_instrumentation().unwrap_or_default(),
        queue_high_water: engine.queue_high_water(),
        event_stats: engine.event_stats(),
        provenance: engine.take_provenance(),
        event_log: engine.take_event_log(),
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

/// Most run positions one rank may have: a [`TypedEvent::ScheduleStep`]
/// addresses a step by its `u32` position, and the last position is the
/// run's end.
const MAX_POSITIONS: u64 = 1 << 32;

/// The distinct schedules of `segments`, by address and in first-use
/// order, each with the number of segments that run it.
fn distinct<'a>(segments: &[&'a Schedule]) -> Vec<(&'a Schedule, usize)> {
    let mut distinct: Vec<(&Schedule, usize)> = Vec::new();
    for &seg in segments {
        match distinct.iter_mut().find(|(s, _)| std::ptr::eq(*s, seg)) {
            Some((_, repeats)) => *repeats += 1,
            None => distinct.push((seg, 1)),
        }
    }
    distinct
}

/// Rank `r`'s run positions over the sequence `distinct` describes: each
/// segment's entry, the rank's steps in it, and its end.
fn positions(distinct: &[(&Schedule, usize)], r: usize) -> u64 {
    distinct
        .iter()
        .map(|&(seg, repeats)| (seg.steps_of(Rank(r)) as u64 + 2).saturating_mul(repeats as u64))
        .fold(0, u64::saturating_add)
}

/// Upper bounds, counted from the schedules before the run, on what an
/// execution logs. Each run position posts at most this many events and
/// emits at most this many spans (the handlers below are the rules):
///
/// | position | events | spans |
/// |---|---|---|
/// | start of the run | 1 resume | 0 |
/// | segment entry | 1 resume | 1 entry |
/// | `Send` | the deferred step, its delivery and the CPU release | send overhead and copy |
/// | `Recv` | 1 resume | wait and receive overhead |
/// | `Compute` | 1 resume | 1 compute |
/// | `HwBarrier` | 1 release resume | 1 wait |
/// | segment end | 0 | 0 |
///
/// Every posted event fires in a run that completes, so `events` bounds
/// both the fired-event log and the provenance log (one record per
/// post); `messages` bounds the trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LogBounds {
    events: usize,
    spans: usize,
    messages: usize,
}

impl LogBounds {
    /// The bounds of a `p`-rank run of `distinct`'s schedules, each
    /// counted once and scaled by its repeats.
    fn of(distinct: &[(&Schedule, usize)], p: usize) -> Self {
        let mut b = LogBounds {
            events: p,
            ..LogBounds::default()
        };
        for &(seg, repeats) in distinct {
            // One entry per rank, then the steps.
            b.events += p * repeats;
            b.spans += p * repeats;
            for step in seg.iter().flat_map(|(_, prog)| prog) {
                let (events, spans, messages) = match step {
                    Step::Send { .. } => (3, 2, 1),
                    Step::Recv { .. } => (1, 2, 0),
                    Step::Compute { .. } | Step::HwBarrier => (1, 1, 0),
                };
                b.events += events * repeats;
                b.spans += spans * repeats;
                b.messages += messages * repeats;
            }
        }
        b
    }
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

/// Advances rank `r` through its programs at the current instant until
/// it blocks, schedules a continuation, or finishes the last segment.
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
        let RankState { prog, class, k, .. } = w.ranks[r];
        if k == 0 {
            w.ranks[r].k = 1;
            let d = cpu_charge(w, r, w.spec.entry_overhead(class));
            if !d.is_zero() {
                w.ranks[r].sw += d;
                push_span(w, r, PhaseKind::Entry, now, now + d);
                s.post_in(d, resume(r));
                return;
            }
            continue;
        }
        let Some(&step) = prog.get(k - 1) else {
            // The segment's end: record it and enter the next segment.
            let rs = &mut w.ranks[r];
            w.finish[rs.seg][r] = now;
            rs.base += prog.len() + 2;
            rs.k = 0;
            rs.seg += 1;
            let Some(next) = w.segments.get(rs.seg) else {
                return; // every segment run
            };
            rs.prog = next.program(Rank(r));
            rs.class = next.class();
            continue;
        };
        match step {
            Step::Send { .. } => {
                let position = w.ranks[r].base + k;
                w.ranks[r].k += 1;
                let o = cpu_charge(w, r, w.spec.send_overhead(class));
                w.ranks[r].sw += o;
                push_span(w, r, PhaseKind::SendOverhead, now, now + o);
                // Perform the network send at exactly now + o so that
                // link resources are acquired in true time order. The
                // event carries only the run position; `post_send`
                // re-reads the step — the rank is parked until its
                // CPU-release event, so neither its segment nor `base`
                // can move underneath the deferred event.
                s.post_in(
                    o,
                    TypedEvent::ScheduleStep {
                        rank: r as u32,
                        step: u32::try_from(position).expect("execute bounds run positions"),
                    },
                );
                return;
            }
            Step::Recv { from, bytes } => {
                let channel = r * w.ranks.len() + from.0;
                if w.arrivals[channel] > 0 {
                    w.arrivals[channel] -= 1;
                    w.ranks[r].k += 1;
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
                w.ranks[r].k += 1;
                let d = cpu_charge(w, r, w.spec.compute_cost(bytes));
                if !d.is_zero() {
                    w.ranks[r].sw += d;
                    push_span(w, r, PhaseKind::Compute, now, now + d);
                    s.post_in(d, resume(r));
                    return;
                }
            }
            Step::HwBarrier => {
                w.ranks[r].k += 1;
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
        }
    }
}

/// Executes the deferred network send at run position `step` on rank
/// `r` — the [`TypedEvent::ScheduleStep`] handler, firing exactly
/// `o_send` after the rank charged its send overhead.
fn post_send(s: &mut Scheduler<World>, w: &mut World, r: usize, step: usize) {
    let RankState { prog, base, .. } = w.ranks[r];
    let Some(&Step::Send { to, bytes }) = prog.get(step - base - 1) else {
        unreachable!("ScheduleStep must point at a Send step");
    };
    let class = w.ranks[r].class;
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
    fn finish_times_are_rows_of_p() {
        let t = SimTime::from_nanos;
        let mut f = FinishTimes::new(2, vec![t(1), t(2), t(3), t(4), t(5), t(6)]);
        assert_eq!(f.len(), 3);
        assert_eq!(f[1], [t(3), t(4)]);
        f[2][0] = t(9);
        assert_eq!(f.last(), Some(&[t(9), t(6)][..]));
        let rows: Vec<&[SimTime]> = f.iter().collect();
        assert_eq!(rows, [&[t(1), t(2)][..], &[t(3), t(4)], &[t(9), t(6)]]);
        assert!(!f.is_empty());
        assert!(FinishTimes::new(3, Vec::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "3 finish times do not make rows of 2")]
    fn finish_times_refuse_a_partial_row() {
        FinishTimes::new(2, vec![SimTime::ZERO; 3]);
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

    /// One item of the reference tape: rank `r`'s tape concatenates,
    /// per segment, an entry, the rank's steps under the segment's class
    /// and the segment's end, so item `i` is run position `i`. The
    /// executor walks the programs in place; this decoder is what its
    /// positions must mean.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Tape {
        Entry(OpClass),
        Op(Step, OpClass),
        SegEnd(usize),
    }

    /// The reference tapes of `segments`, one per rank.
    fn tapes(segments: &[&Schedule], p: usize) -> Vec<Vec<Tape>> {
        let mut tapes = vec![Vec::new(); p];
        for (si, seg) in segments.iter().enumerate() {
            for (rank, prog) in seg.iter() {
                let tape = &mut tapes[rank.0];
                tape.push(Tape::Entry(seg.class()));
                tape.extend(prog.iter().map(|&st| Tape::Op(st, seg.class())));
                tape.push(Tape::SegEnd(si));
            }
        }
        tapes
    }

    /// [`LogBounds`] counted item by item over the reference tapes.
    fn tape_bounds(tapes: &[Vec<Tape>]) -> LogBounds {
        let mut b = LogBounds {
            events: tapes.len(),
            ..LogBounds::default()
        };
        for item in tapes.iter().flatten() {
            let (events, spans, messages) = match item {
                Tape::Op(Step::Send { .. }, _) => (3, 2, 1),
                Tape::Op(Step::Recv { .. }, _) => (1, 2, 0),
                Tape::Entry(_) | Tape::Op(Step::Compute { .. } | Step::HwBarrier, _) => (1, 1, 0),
                Tape::SegEnd(_) => (0, 0, 0),
            };
            b.events += events;
            b.spans += spans;
            b.messages += messages;
        }
        b
    }

    /// Runs `segments` plain and observed with every log on, checks that
    /// the logs stay within [`LogBounds`] (which must equal the
    /// reference tapes' item-by-item count) and that observing changes
    /// nothing, and returns the observed run.
    fn observe_within_bounds(
        comm: &crate::Communicator,
        segments: &[&Schedule],
        start_times: Option<Vec<SimTime>>,
        cpu_noise: Option<CpuNoise>,
        what: &str,
    ) -> (ExecOutcome, Observed) {
        let p = comm.size();
        let plain = comm
            .run_with(
                segments,
                RunOptions {
                    start_times: start_times.clone(),
                    cpu_noise,
                    ..RunOptions::default()
                },
            )
            .expect("plain run");
        let options = RunOptions {
            start_times,
            cpu_noise,
            record_trace: true,
            provenance: true,
            event_log: true,
            ..RunOptions::default()
        };
        let (out, obs) = comm.run_observed(segments, options).expect("observed run");
        let bound = LogBounds::of(&distinct(segments), p);
        assert_eq!(bound, tape_bounds(&tapes(segments, p)), "{what}: bounds");
        let log = obs.event_log.as_ref().expect("event log");
        let prov = obs.provenance.as_ref().expect("provenance");
        assert!(log.len() <= bound.events, "{what}: events");
        assert!(prov.len() <= bound.events, "{what}: provenance");
        assert!(obs.spans.len() <= bound.spans, "{what}: spans");
        assert!(out.trace.len() <= bound.messages, "{what}: trace");
        assert_eq!(out.start, plain.start, "{what}");
        assert_eq!(out.finish, plain.finish, "{what}");
        assert_eq!(out.phases, plain.phases, "{what}");
        assert_eq!(
            (out.events, out.messages, out.bytes, out.dropped_messages),
            (
                plain.events,
                plain.messages,
                plain.bytes,
                plain.dropped_messages
            ),
            "{what}"
        );
        (out, obs)
    }

    #[test]
    fn logs_stay_within_their_bounds_and_observing_changes_nothing() {
        let machines = [Machine::sp2(), Machine::t3d(), Machine::paragon()];
        desim::check::forall("exec_log_bounds", 64, |g| {
            let machine = g.pick(&machines);
            let op = *g.pick(&OpClass::COLLECTIVES);
            let p = *g.pick(&[2, 3, 17, 64]);
            let m = g.u32(0, 70_000);
            let comm = machine.communicator(p).expect("size in range");
            let s = comm.schedule(op, Rank(0), m).expect("schedule");
            let b = barrier::dissemination(p);
            let segments: Vec<&Schedule> = match g.usize(0, 2) {
                0 => vec![&s],
                1 => vec![&b, &s],
                _ => vec![&s, &b, &s],
            };
            let start_times = g.bool().then(|| {
                (0..p)
                    .map(|_| SimTime::from_nanos(g.u64(0, 5_000)))
                    .collect()
            });
            let what = format!("{} {op:?} p={p} m={m}", machine.name());
            observe_within_bounds(&comm, &segments, start_times, None, &what);
        });
    }

    #[test]
    fn in_place_walk_matches_the_reference_tape() {
        let machines = [Machine::sp2(), Machine::t3d(), Machine::paragon()];
        desim::check::forall("exec_reference_tape", 48, |g| {
            let machine = g.pick(&machines);
            let p = *g.pick(&[2, 3, 5, 8]);
            let comm = machine.communicator(p).expect("size in range");
            // Two collectives of different classes, whose programs differ
            // in length from rank to rank, and a point-to-point schedule
            // in which every rank but two has an empty program.
            let a = *g.pick(&OpClass::COLLECTIVES);
            let b = loop {
                let b = *g.pick(&OpClass::COLLECTIVES);
                if b != a {
                    break b;
                }
            };
            let root = Rank(g.usize(0, p - 1));
            let mut sparse = Schedule::new(OpClass::PointToPoint, p);
            let (from, to) = (Rank(g.usize(0, p - 1)), Rank(g.usize(0, p - 1)));
            if from != to {
                let bytes = g.u32(0, 9_000);
                sparse.push(from, Step::Send { to, bytes });
                sparse.push(to, Step::Recv { from, bytes });
            }
            let pool = [
                comm.schedule(a, root, g.u32(0, 20_000)).expect("schedule"),
                comm.schedule(b, root, g.u32(0, 20_000)).expect("schedule"),
                sparse,
            ];
            let kinds = g.usize(2, 3);
            let mut segments: Vec<&Schedule> = (0..kinds).map(|i| &pool[i]).collect();
            for _ in 0..g.usize(1, 4) {
                let at = g.usize(0, segments.len());
                segments.insert(at, &pool[g.usize(0, kinds - 1)]);
            }
            let start_times = g.bool().then(|| {
                (0..p)
                    .map(|_| SimTime::from_nanos(g.u64(0, 5_000)))
                    .collect()
            });
            let cpu_noise = g.bool().then(|| CpuNoise {
                amplitude: 0.2,
                seed: g.u64(0, 1 << 20),
            });
            let what = format!(
                "{} {a:?} {b:?} p={p} {} segments",
                machine.name(),
                segments.len()
            );
            let (out, obs) = observe_within_bounds(&comm, &segments, start_times, cpu_noise, &what);

            // The k-th deferred send decodes through the reference tape
            // to the k-th traced message.
            let reference = tapes(&segments, p);
            let log = obs.event_log.expect("event log");
            let steps: Vec<(usize, usize)> = log
                .iter()
                .filter(|e| e.kind == desim::EventKind::ScheduleStep)
                .map(|e| (e.a as usize, e.b as usize))
                .collect();
            assert_eq!(steps.len(), out.trace.len(), "{what}: one step per message");
            for (k, (&(rank, step), row)) in steps.iter().zip(&out.trace).enumerate() {
                let Tape::Op(Step::Send { to, bytes }, class) = reference[rank][step] else {
                    panic!(
                        "{what}: step {k} at {rank}:{step} is {:?}",
                        reference[rank][step]
                    );
                };
                assert_eq!(
                    (row.src, row.dst, row.bytes, row.class),
                    (rank, to.0, bytes, class),
                    "{what}: message {k}"
                );
            }

            // A deadlock in a later segment stalls rank 0 at its receive
            // there, at the reference tape's position.
            let mut deadlock = Schedule::new(OpClass::PointToPoint, p);
            deadlock.push(
                Rank(0),
                Step::Recv {
                    from: Rank(1),
                    bytes: 8,
                },
            );
            deadlock.push(
                Rank(1),
                Step::Recv {
                    from: Rank(0),
                    bytes: 8,
                },
            );
            let at = g.usize(1, segments.len());
            segments.insert(at, &deadlock);
            let e = comm
                .run_with(
                    &segments,
                    RunOptions {
                        skip_validation: true,
                        ..RunOptions::default()
                    },
                )
                .expect_err("deadlock");
            let tape = &tapes(&segments, p)[0];
            let entry = tape
                .iter()
                .enumerate()
                .filter(|(_, item)| matches!(item, Tape::Entry(_)))
                .nth(at)
                .map(|(i, _)| i)
                .expect("the deadlocked segment's entry");
            assert_eq!(
                tape[entry + 1],
                Tape::Op(
                    Step::Recv {
                        from: Rank(1),
                        bytes: 8
                    },
                    OpClass::PointToPoint
                )
            );
            let want = SimMpiError::RankStalled {
                rank: 0,
                step: entry + 1,
                of: tape.len(),
            };
            assert_eq!(e, want, "{what}: deadlock at segment {at}");
        });
    }

    #[test]
    fn sequences_past_u32_positions_are_refused_before_running() {
        // 65,536 steps + entry + end, 65,537 times: 2^32 + 196,610
        // positions on rank 0. Running it would take hours.
        let mut long = Schedule::new(OpClass::PointToPoint, 2);
        for _ in 0..65_536 {
            long.push(Rank(0), Step::Compute { bytes: 0 });
        }
        let segments = vec![&long; 65_537];
        let comm = Machine::sp2().communicator(2).expect("size in range");
        let e = comm
            .run_with(&segments, RunOptions::default())
            .expect_err("refused");
        assert_eq!(
            e,
            SimMpiError::SequenceTooLong {
                rank: 0,
                positions: 65_538 * 65_537,
            }
        );
        assert!(e.to_string().contains("rank 0"));
        // Exactly 2^32 positions is the most a run may address.
        let mut fits = Schedule::new(OpClass::PointToPoint, 2);
        for _ in 0..65_534 {
            fits.push(Rank(0), Step::Compute { bytes: 0 });
        }
        let at_limit = distinct(&vec![&fits; 65_536]);
        assert_eq!(positions(&at_limit, 0), MAX_POSITIONS);
        assert_eq!(positions(&at_limit, 1), 2 * 65_536);
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
