//! Causal critical-path reconstruction with latency blame decomposition.
//!
//! The input is a plain-data description of one run: per-track
//! (per-rank) activity [`Span`]s, each labelled with a [`Blame`]
//! category and a [`Cause`] edge saying *whose* action ended it, plus
//! one [`Transfer`] record per network message carrying its measured
//! FIFO-occupancy and link-contention waits. [`walk`] then traces
//! backward from the final completion instant, hopping tracks along the
//! causal edges, and tiles the whole elapsed interval
//! `[start_ns, end_ns]` with contiguous [`PathSegment`]s — so the
//! per-category totals sum *exactly* to end-to-end elapsed time (the
//! conservation invariant the property suite checks).
//!
//! Like the rest of this crate, the module is dependency-free plain
//! data: times are integer nanoseconds, tracks are small integers. The
//! semantic construction of spans and causes from a simulation lives
//! upstream (in `mpisim::critpath`), keeping this walker reusable and
//! unit-testable on hand-built graphs.

use crate::registry::MetricsRegistry;

/// Where one stretch of the critical path's time is charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Blame {
    /// Collective-entry software overhead.
    Entry,
    /// Send-side software overhead (`o_send`).
    SendSw,
    /// Payload copy / send-engine setup holding the CPU.
    Copy,
    /// Receive-side software overhead plus receive copy (`o_recv`).
    RecvSw,
    /// Reduction arithmetic.
    Compute,
    /// Payload in flight on idle wire: hop latency + serialization.
    Wire,
    /// Queued behind the sending node's injection engine (FIFO
    /// occupancy).
    FifoWait,
    /// Queued behind busy links (contention).
    LinkWait,
    /// Hardware/logical barrier synchronization latency.
    BarrierSync,
    /// Time the walker could not attribute (gaps before a track's first
    /// span, truncated traces). Nonzero idle means lost observability,
    /// not lost time — it still counts toward conservation.
    Idle,
}

impl Blame {
    /// Every category, in display order.
    pub const ALL: [Blame; 10] = [
        Blame::Entry,
        Blame::SendSw,
        Blame::Copy,
        Blame::RecvSw,
        Blame::Compute,
        Blame::Wire,
        Blame::FifoWait,
        Blame::LinkWait,
        Blame::BarrierSync,
        Blame::Idle,
    ];

    /// Number of categories (the length of a totals array).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable metric-key fragment: `critpath.<key>.ns`.
    pub fn key(self) -> &'static str {
        match self {
            Blame::Entry => "entry",
            Blame::SendSw => "send_sw",
            Blame::Copy => "copy",
            Blame::RecvSw => "recv_sw",
            Blame::Compute => "compute",
            Blame::Wire => "wire",
            Blame::FifoWait => "fifo_wait",
            Blame::LinkWait => "link_wait",
            Blame::BarrierSync => "barrier_sync",
            Blame::Idle => "idle",
        }
    }

    /// Index into a `[u64; Blame::COUNT]` totals array.
    pub fn index(self) -> usize {
        match self {
            Blame::Entry => 0,
            Blame::SendSw => 1,
            Blame::Copy => 2,
            Blame::RecvSw => 3,
            Blame::Compute => 4,
            Blame::Wire => 5,
            Blame::FifoWait => 6,
            Blame::LinkWait => 7,
            Blame::BarrierSync => 8,
            Blame::Idle => 9,
        }
    }
}

/// The causal edge out of a span's *end*: what the walker does after
/// charging the span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// The track's own earlier activity: keep walking this track.
    Local,
    /// The span ended because message `transfers[msg]` arrived: tile the
    /// wire journey, then continue on the sender's track at the instant
    /// the message entered the wire.
    Message {
        /// Index into the `transfers` slice passed to [`walk`].
        msg: u32,
    },
    /// The span ended because a barrier released: continue on the
    /// triggering (last-arriving) track. The trigger's own wait span is
    /// charged as [`Blame::BarrierSync`].
    Barrier {
        /// The triggering track.
        track: u32,
    },
}

/// One attributed stretch of one track's timeline. Spans on a track must
/// be non-overlapping with `end_ns > start_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which timeline (rank) this span belongs to.
    pub track: u32,
    /// Where its time is charged if it lands on the critical path.
    pub blame: Blame,
    /// Start instant, nanoseconds.
    pub start_ns: u64,
    /// End instant, nanoseconds (strictly after `start_ns`).
    pub end_ns: u64,
    /// The causal edge the walker follows out of this span's end.
    pub cause: Cause,
}

/// One network message's wire journey, with its measured waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The sending track.
    pub src_track: u32,
    /// When the payload entered the network (sender CPU released).
    pub wire_start_ns: u64,
    /// When the payload fully arrived at the destination.
    pub delivered_ns: u64,
    /// Time queued behind the injection engine.
    pub fifo_wait_ns: u64,
    /// Time queued behind busy links.
    pub link_wait_ns: u64,
}

impl Transfer {
    /// True when the message never queued: provably contention-free.
    pub fn uncontended(&self) -> bool {
        self.fifo_wait_ns == 0 && self.link_wait_ns == 0
    }
}

/// One tile of the reconstructed critical path. Segments are emitted in
/// walk order — newest first — and tile `[start_ns, end_ns]` exactly:
/// each segment's start is the next (older) segment's end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// The track the path ran on during this tile.
    pub track: u32,
    /// The charged category.
    pub blame: Blame,
    /// Tile start, nanoseconds.
    pub start_ns: u64,
    /// Tile end, nanoseconds.
    pub end_ns: u64,
}

/// The critical path's blame decomposition: per-category totals that sum
/// exactly to `end_ns - start_ns`, plus the path tiles themselves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Interval start (the earliest rank start).
    pub start_ns: u64,
    /// Interval end (the completion instant walked back from).
    pub end_ns: u64,
    /// Nanoseconds charged to each category, indexed by
    /// [`Blame::index`].
    pub totals: [u64; Blame::COUNT],
    /// The path tiles, newest first.
    pub segments: Vec<PathSegment>,
}

impl Decomposition {
    /// Nanoseconds charged to `blame`.
    pub fn get(&self, blame: Blame) -> u64 {
        self.totals[blame.index()]
    }

    /// Sum of all category totals; equals [`Decomposition::elapsed_ns`]
    /// by construction.
    pub fn total_ns(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// The decomposed interval's length.
    pub fn elapsed_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Fraction of the elapsed interval charged to `blame` (0 when the
    /// interval is empty).
    pub fn fraction(&self, blame: Blame) -> f64 {
        if self.elapsed_ns() == 0 {
            0.0
        } else {
            self.get(blame) as f64 / self.elapsed_ns() as f64
        }
    }

    /// Exports `critpath.<category>.ns` counters, `.frac` gauges, and
    /// the `critpath.total_ns` counter into `reg`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter("critpath.total_ns", self.total_ns());
        for blame in Blame::ALL {
            let ns = self.get(blame);
            if ns > 0 {
                reg.counter(format!("critpath.{}.ns", blame.key()), ns);
                reg.gauge(
                    format!("critpath.{}.frac", blame.key()),
                    self.fraction(blame),
                );
            }
        }
    }
}

/// The contention census over a run's transfers: how many never waited
/// for a busy injection engine or link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Remote transfers examined.
    pub transfers: u64,
    /// Transfers whose links and injection engine were provably idle for
    /// their whole duration.
    pub uncontended: u64,
}

impl Census {
    /// Tallies every remote transfer in `transfers`.
    pub fn of<'a>(transfers: impl IntoIterator<Item = &'a Transfer>) -> Census {
        let mut census = Census::default();
        for t in transfers {
            census.transfers += 1;
            census.uncontended += u64::from(t.uncontended());
        }
        census
    }

    /// Fraction of transfers that were uncontended (0 when none ran).
    pub fn fraction(&self) -> f64 {
        if self.transfers == 0 {
            0.0
        } else {
            self.uncontended as f64 / self.transfers as f64
        }
    }

    /// Exports `critpath.census.*` counters and the fraction gauge.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.counter("critpath.census.transfers", self.transfers);
        reg.counter("critpath.census.uncontended", self.uncontended);
        reg.gauge("critpath.census.frac", self.fraction());
    }
}

/// Per-track span index: indices into the span slice, sorted by
/// `(end_ns, start_ns)` so the walker can binary-search for "the span
/// ending at or latest before `t`".
fn index_tracks(spans: &[Span]) -> Vec<Vec<usize>> {
    let tracks = spans
        .iter()
        .map(|s| s.track as usize + 1)
        .max()
        .unwrap_or(0);
    let mut by_track: Vec<Vec<usize>> = vec![Vec::new(); tracks];
    for (i, s) in spans.iter().enumerate() {
        debug_assert!(s.end_ns > s.start_ns, "zero-length span {i}");
        by_track[s.track as usize].push(i);
    }
    for list in &mut by_track {
        list.sort_by_key(|&i| (spans[i].end_ns, spans[i].start_ns));
    }
    by_track
}

/// The rightmost span on `track` with `end_ns <= t`, or `None`.
fn latest_ending_at_or_before(
    spans: &[Span],
    by_track: &[Vec<usize>],
    track: u32,
    t: u64,
) -> Option<usize> {
    let list = by_track.get(track as usize)?;
    let pos = list.partition_point(|&i| spans[i].end_ns <= t);
    pos.checked_sub(1).map(|p| list[p])
}

/// Walks backward from `(end_track, end_ns)` and tiles `[start_ns,
/// end_ns]` with blame-charged path segments. `end_ns >= start_ns` is
/// required; transfers referenced by [`Cause::Message`] edges must be in
/// range.
///
/// The walker is total: unattributable stretches (before a track's first
/// span, or if the causal graph is malformed) become [`Blame::Idle`]
/// tiles rather than holes, so conservation holds unconditionally.
///
/// # Panics
///
/// Panics if `end_ns < start_ns` or a [`Cause::Message`] index is out of
/// range of `transfers`.
pub fn walk(
    spans: &[Span],
    transfers: &[Transfer],
    end_track: u32,
    start_ns: u64,
    end_ns: u64,
) -> Decomposition {
    assert!(end_ns >= start_ns, "interval runs backward");
    let by_track = index_tracks(spans);
    let mut out = Decomposition {
        start_ns,
        end_ns,
        totals: [0; Blame::COUNT],
        segments: Vec::new(),
    };
    let charge = |out: &mut Decomposition, track: u32, blame: Blame, s: u64, e: u64| {
        if e > s {
            out.totals[blame.index()] += e - s;
            out.segments.push(PathSegment {
                track,
                blame,
                start_ns: s,
                end_ns: e,
            });
        }
    };

    let mut track = end_track;
    let mut t = end_ns;
    // Backstop: each iteration either consumes a span, a transfer edge,
    // or a one-time track switch, so a well-formed graph terminates well
    // inside this budget. A malformed one degrades to Idle, not a hang.
    let mut fuel = spans.len() + 2 * transfers.len() + by_track.len() + 16;
    while t > start_ns {
        if fuel == 0 {
            charge(&mut out, track, Blame::Idle, start_ns, t);
            break;
        }
        fuel -= 1;
        let Some(si) = latest_ending_at_or_before(spans, &by_track, track, t) else {
            // Nothing recorded on this track before t: the stretch back
            // to the interval start is unattributed.
            charge(&mut out, track, Blame::Idle, start_ns, t);
            t = start_ns;
            continue;
        };
        let span = spans[si];
        if span.end_ns < t {
            // Gap between this track's latest activity and the frontier.
            let gap_start = span.end_ns.max(start_ns);
            charge(&mut out, track, Blame::Idle, gap_start, t);
            t = gap_start;
            continue;
        }
        // span.end_ns == t: charge it and follow its causal edge.
        match span.cause {
            Cause::Local => {
                let s = span.start_ns.max(start_ns);
                charge(&mut out, track, span.blame, s, t);
                t = s;
            }
            Cause::Message { msg } => {
                let tr = transfers[msg as usize];
                // Tile the wire journey [wire_start, t] in forward order
                // fifo -> link -> wire, clamping each component to the
                // interval (the components are aggregates over the
                // message's segments, so clamped ordered tiling keeps
                // the tiles exact while preserving the totals whenever
                // they fit — they always do for whole-message sends).
                let w0 = tr.wire_start_ns.min(t).max(start_ns);
                let len = t - w0;
                let fifo = tr.fifo_wait_ns.min(len);
                let link = tr.link_wait_ns.min(len - fifo);
                charge(&mut out, track, Blame::Wire, w0 + fifo + link, t);
                charge(
                    &mut out,
                    track,
                    Blame::LinkWait,
                    w0 + fifo,
                    w0 + fifo + link,
                );
                charge(&mut out, track, Blame::FifoWait, w0, w0 + fifo);
                track = tr.src_track;
                t = w0;
            }
            Cause::Barrier { track: trigger } => {
                if trigger == track {
                    // The trigger's own wait is the synchronization
                    // latency itself.
                    let s = span.start_ns.max(start_ns);
                    charge(&mut out, track, Blame::BarrierSync, s, t);
                    t = s;
                } else {
                    // Hop to the last-arriving track at the same
                    // instant; its own spans explain the release time.
                    track = trigger;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: u32, blame: Blame, start_ns: u64, end_ns: u64, cause: Cause) -> Span {
        Span {
            track,
            blame,
            start_ns,
            end_ns,
            cause,
        }
    }

    #[test]
    fn single_track_local_chain() {
        let spans = [
            span(0, Blame::Entry, 0, 10, Cause::Local),
            span(0, Blame::Compute, 10, 30, Cause::Local),
            span(0, Blame::RecvSw, 30, 45, Cause::Local),
        ];
        let d = walk(&spans, &[], 0, 0, 45);
        assert_eq!(d.total_ns(), 45);
        assert_eq!(d.get(Blame::Entry), 10);
        assert_eq!(d.get(Blame::Compute), 20);
        assert_eq!(d.get(Blame::RecvSw), 15);
        assert_eq!(d.get(Blame::Idle), 0);
        assert_eq!(d.segments.len(), 3);
        // Newest-first contiguous tiling.
        assert_eq!(d.segments[0].end_ns, 45);
        assert_eq!(d.segments[2].start_ns, 0);
        for w in d.segments.windows(2) {
            assert_eq!(w[0].start_ns, w[1].end_ns);
        }
    }

    #[test]
    fn message_jump_tiles_wire_and_switches_track() {
        // Track 1 waits for a message from track 0: copy ends at 20
        // (wire start), delivery at 100, with 15ns fifo + 25ns link wait.
        let spans = [
            span(0, Blame::SendSw, 0, 10, Cause::Local),
            span(0, Blame::Copy, 10, 20, Cause::Local),
            span(1, Blame::Idle, 0, 5, Cause::Local),
            span(1, Blame::Idle, 5, 100, Cause::Message { msg: 0 }),
            span(1, Blame::RecvSw, 100, 120, Cause::Local),
        ];
        let transfers = [Transfer {
            src_track: 0,
            wire_start_ns: 20,
            delivered_ns: 100,
            fifo_wait_ns: 15,
            link_wait_ns: 25,
        }];
        let d = walk(&spans, &transfers, 1, 0, 120);
        assert_eq!(d.total_ns(), 120, "conservation");
        assert_eq!(d.get(Blame::RecvSw), 20);
        assert_eq!(d.get(Blame::FifoWait), 15);
        assert_eq!(d.get(Blame::LinkWait), 25);
        assert_eq!(d.get(Blame::Wire), 80 - 15 - 25);
        // Continues on the sender before the wire: send + copy.
        assert_eq!(d.get(Blame::SendSw), 10);
        assert_eq!(d.get(Blame::Copy), 10);
        assert_eq!(d.get(Blame::Idle), 0);
    }

    #[test]
    fn barrier_jump_follows_trigger() {
        // Tracks 0,1 wait; track 2 arrives last at t=50 and the barrier
        // releases at t=60 (10ns hardware latency).
        let spans = [
            span(0, Blame::Compute, 0, 5, Cause::Local),
            span(0, Blame::Idle, 5, 60, Cause::Barrier { track: 2 }),
            span(1, Blame::Compute, 0, 8, Cause::Local),
            span(1, Blame::Idle, 8, 60, Cause::Barrier { track: 2 }),
            span(2, Blame::Compute, 0, 50, Cause::Local),
            span(2, Blame::Idle, 50, 60, Cause::Barrier { track: 2 }),
            span(0, Blame::RecvSw, 60, 70, Cause::Local),
        ];
        let d = walk(&spans, &[], 0, 0, 70);
        assert_eq!(d.total_ns(), 70);
        assert_eq!(d.get(Blame::RecvSw), 10);
        assert_eq!(d.get(Blame::BarrierSync), 10, "trigger's own wait");
        assert_eq!(d.get(Blame::Compute), 50, "trigger's pre-barrier work");
        assert_eq!(d.get(Blame::Idle), 0);
    }

    #[test]
    fn zero_latency_barrier_switches_without_advancing() {
        // The trigger arrives at t=50 and the release is the same
        // instant; the trigger has no wait span at all (zero-length
        // spans are never recorded).
        let spans = [
            span(0, Blame::Idle, 0, 50, Cause::Barrier { track: 1 }),
            span(1, Blame::Compute, 0, 50, Cause::Local),
            span(0, Blame::RecvSw, 50, 55, Cause::Local),
        ];
        let d = walk(&spans, &[], 0, 0, 55);
        assert_eq!(d.total_ns(), 55);
        assert_eq!(d.get(Blame::Compute), 50);
        assert_eq!(d.get(Blame::RecvSw), 5);
    }

    #[test]
    fn gaps_and_missing_history_become_idle() {
        // Track 0's record starts at 30 and has a 10ns hole at [40, 50].
        let spans = [
            span(0, Blame::Compute, 30, 40, Cause::Local),
            span(0, Blame::RecvSw, 50, 60, Cause::Local),
        ];
        let d = walk(&spans, &[], 0, 0, 60);
        assert_eq!(d.total_ns(), 60, "conservation even with holes");
        assert_eq!(d.get(Blame::Idle), 30 + 10);
        assert_eq!(d.get(Blame::Compute), 10);
        assert_eq!(d.get(Blame::RecvSw), 10);
    }

    #[test]
    fn empty_interval_and_empty_graph() {
        let d = walk(&[], &[], 0, 7, 7);
        assert_eq!(d.total_ns(), 0);
        assert!(d.segments.is_empty());
        let d = walk(&[], &[], 3, 0, 100);
        assert_eq!(d.get(Blame::Idle), 100, "no data, all idle");
    }

    #[test]
    fn wire_tiling_clamps_to_interval() {
        // Delivery at 100 but the walk interval starts at 90: the
        // transfer's 30ns of waits cannot all fit; the tiling clamps.
        let spans = [span(1, Blame::Idle, 0, 100, Cause::Message { msg: 0 })];
        let transfers = [Transfer {
            src_track: 0,
            wire_start_ns: 20,
            delivered_ns: 100,
            fifo_wait_ns: 20,
            link_wait_ns: 10,
        }];
        let d = walk(&spans, &transfers, 1, 90, 100);
        assert_eq!(d.total_ns(), 10);
        assert_eq!(d.get(Blame::FifoWait), 10, "fifo clamps first");
        assert_eq!(d.get(Blame::LinkWait), 0);
        assert_eq!(d.get(Blame::Wire), 0);
    }

    #[test]
    fn census_counts_uncontended() {
        let transfers = [
            Transfer {
                src_track: 0,
                wire_start_ns: 0,
                delivered_ns: 10,
                fifo_wait_ns: 0,
                link_wait_ns: 0,
            },
            Transfer {
                src_track: 1,
                wire_start_ns: 0,
                delivered_ns: 10,
                fifo_wait_ns: 5,
                link_wait_ns: 0,
            },
        ];
        let c = Census::of(&transfers);
        assert_eq!(c.transfers, 2);
        assert_eq!(c.uncontended, 1);
        assert!((c.fraction() - 0.5).abs() < 1e-12);
        let mut reg = MetricsRegistry::new();
        c.export_metrics(&mut reg);
        assert_eq!(
            reg.get("critpath.census.transfers").unwrap().as_f64(),
            Some(2.0)
        );
        assert_eq!(reg.get("critpath.census.frac").unwrap().as_f64(), Some(0.5));
    }

    #[test]
    fn decomposition_exports_metrics() {
        let spans = [
            span(0, Blame::Entry, 0, 25, Cause::Local),
            span(0, Blame::Wire, 25, 100, Cause::Local),
        ];
        let d = walk(&spans, &[], 0, 0, 100);
        let mut reg = MetricsRegistry::new();
        d.export_metrics(&mut reg);
        assert_eq!(reg.get("critpath.total_ns").unwrap().as_f64(), Some(100.0));
        assert_eq!(reg.get("critpath.entry.ns").unwrap().as_f64(), Some(25.0));
        assert_eq!(reg.get("critpath.wire.frac").unwrap().as_f64(), Some(0.75));
        assert!(reg.get("critpath.compute.ns").is_none(), "zero omitted");
    }

    #[test]
    fn blame_index_round_trips() {
        for (i, b) in Blame::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        let keys: std::collections::BTreeSet<_> = Blame::ALL.iter().map(|b| b.key()).collect();
        assert_eq!(keys.len(), Blame::COUNT, "keys unique");
    }
}
