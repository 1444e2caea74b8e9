//! Communication schedules.
//!
//! A collective algorithm compiles to a [`Schedule`]: one step program per
//! rank, each a totally ordered list of [`Step`]s. The executor in
//! `mpisim` advances every rank's program on the discrete-event engine;
//! sends are eager (buffered), receives block, and messages between a
//! given (sender, receiver) pair match in FIFO order — the semantics of
//! the MPI collectives being modeled, which never rely on tag reordering
//! within an operation.

use netmodel::OpClass;

/// A process rank within the collective (identical to the node index —
/// the paper runs exactly one process per node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rank(pub usize);

impl std::fmt::Display for Rank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One step of a rank's program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Send `bytes` to `to` (eager: the program continues once the local
    /// send path completes).
    Send {
        /// Destination rank.
        to: Rank,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Block until `bytes` arrive from `from` (FIFO per sender pair).
    Recv {
        /// Source rank.
        from: Rank,
        /// Expected payload size in bytes.
        bytes: u32,
    },
    /// Local reduction arithmetic over `bytes` of operand data.
    Compute {
        /// Operand volume in bytes.
        bytes: u32,
    },
    /// Enter the hardware barrier network and block until release.
    HwBarrier,
}

/// A complete collective schedule: one program per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    class: OpClass,
    programs: Vec<Vec<Step>>,
}

/// Why a schedule failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A step names a rank outside `0..p`.
    RankOutOfRange {
        /// The offending rank.
        rank: Rank,
        /// The program the step belongs to.
        in_program: Rank,
    },
    /// Execution stalled: the listed ranks wait on messages never sent
    /// (or sent in a different order than expected). Returned only when
    /// the stall has no wait-for cycle — the blocked ranks wait on
    /// senders that already finished; a cyclic stall is reported as the
    /// more precise [`ScheduleError::DeadlockCycle`].
    Stuck {
        /// Ranks blocked at a `Recv` when no progress is possible.
        waiting: Vec<Rank>,
    },
    /// Execution deadlocked on a wait-for cycle: each listed rank is
    /// blocked at the given `Recv` step waiting on the *next* rank in
    /// the list (the last waits on the first). The cycle is rotated so
    /// the smallest rank leads, making diagnostics deterministic.
    DeadlockCycle {
        /// The blocked `(rank, step)` pairs, in wait-for order.
        cycle: Vec<(Rank, Step)>,
    },
    /// Two messages with different sizes on the same (sender, receiver)
    /// channel are not ordered by happens-before: under another
    /// interleaving (e.g. network overtaking between messages in flight
    /// concurrently) the receiver's `Recv`s could match either message.
    /// The single-interleaving dynamic check cannot see this; it is
    /// produced by the static analyzer in the `schedcheck` crate.
    AmbiguousMatch {
        /// Sender of the raced channel.
        from: Rank,
        /// Receiver of the raced channel.
        to: Rank,
        /// Bytes of the earlier-posted message.
        earlier: u32,
        /// Bytes of the later-posted message racing with it.
        later: u32,
    },
    /// A message arrived whose size differs from the matching `Recv`.
    SizeMismatch {
        /// Sender of the mismatched message.
        from: Rank,
        /// Receiver expecting a different size.
        to: Rank,
        /// Bytes sent.
        sent: u32,
        /// Bytes expected.
        expected: u32,
    },
    /// Some sent messages were never received.
    UnconsumedMessages {
        /// Total messages left in flight.
        count: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::RankOutOfRange { rank, in_program } => {
                write!(f, "step in {in_program} names out-of-range {rank}")
            }
            ScheduleError::Stuck { waiting } => {
                write!(f, "schedule deadlocks; waiting ranks: {waiting:?}")
            }
            ScheduleError::DeadlockCycle { cycle } => {
                write!(f, "schedule deadlocks on wait-for cycle:")?;
                for (rank, step) in cycle {
                    write!(f, " {rank} blocked at {step:?};")?;
                }
                Ok(())
            }
            ScheduleError::AmbiguousMatch {
                from,
                to,
                earlier,
                later,
            } => write!(
                f,
                "ambiguous match on channel {from}->{to}: {earlier}-byte and \
                 {later}-byte messages can be in flight concurrently and could \
                 match either Recv under reordering"
            ),
            ScheduleError::SizeMismatch {
                from,
                to,
                sent,
                expected,
            } => write!(f, "{from} sent {sent} bytes but {to} expected {expected}"),
            ScheduleError::UnconsumedMessages { count } => {
                write!(f, "{count} sent messages were never received")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Every message of a schedule resolved to a *slot*, one per `Send`
/// (see [`Schedule::resolve_slots`]).
struct Slots {
    /// `step_base[r]` is the flat index of rank `r`'s first step; the
    /// last entry is the total step count.
    step_base: Vec<usize>,
    /// Per flat step: a `Send`'s slot, the slot a `Recv` matches, or
    /// [`Slots::NONE`] for an unmatched `Recv` and a non-message step.
    step_slot: Vec<u32>,
    /// Payload bytes of each slot's send, one entry per slot.
    slot_bytes: Vec<u32>,
}

impl Slots {
    /// A `Recv` no send matches, or a step that is not a message.
    const NONE: u32 = u32::MAX;
}

impl Schedule {
    /// Creates a schedule for `p` ranks of the given class, with empty
    /// programs.
    pub fn new(class: OpClass, p: usize) -> Self {
        Schedule {
            class,
            programs: vec![Vec::new(); p],
        }
    }

    /// The operation class this schedule implements.
    pub fn class(&self) -> OpClass {
        self.class
    }

    /// Number of participating ranks.
    pub fn ranks(&self) -> usize {
        self.programs.len()
    }

    /// Appends a step to `rank`'s program.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn push(&mut self, rank: Rank, step: Step) {
        self.programs[rank.0].push(step);
    }

    /// The program of one rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn program(&self, rank: Rank) -> &[Step] {
        &self.programs[rank.0]
    }

    /// Iterates over `(rank, program)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Rank, &[Step])> {
        self.programs
            .iter()
            .enumerate()
            .map(|(i, p)| (Rank(i), p.as_slice()))
    }

    /// Number of steps in `rank`'s program — the executor's stepping
    /// hook for pre-sizing its per-rank event tape (each step becomes
    /// one tape entry addressed by `TypedEvent::ScheduleStep`).
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn steps_of(&self, rank: Rank) -> usize {
        self.programs[rank.0].len()
    }

    /// Total number of steps across all rank programs.
    pub fn total_steps(&self) -> usize {
        self.programs.iter().map(Vec::len).sum()
    }

    /// Total number of `Send` steps.
    pub fn total_messages(&self) -> usize {
        self.programs
            .iter()
            .flatten()
            .filter(|s| matches!(s, Step::Send { .. }))
            .count()
    }

    /// Total payload bytes across all `Send` steps.
    pub fn total_bytes(&self) -> u64 {
        self.programs
            .iter()
            .flatten()
            .map(|s| match s {
                Step::Send { bytes, .. } => u64::from(*bytes),
                _ => 0,
            })
            .sum()
    }

    /// The message-dependency depth: the longest chain of messages where
    /// each send happens after the previous receive. A binomial broadcast
    /// over `p` ranks has depth `ceil(log2 p)`; a linear scatter has
    /// depth 1 (all messages leave the root directly).
    ///
    /// Computed by abstract execution with zero-cost local steps and
    /// unit-cost messages. A schedule that fails [`Schedule::check`]
    /// has depth 0.
    pub fn message_depth(&self) -> usize {
        self.abstract_run().unwrap_or(0)
    }

    /// Validates the schedule by abstract execution: checks rank ranges,
    /// FIFO matching, size agreement, deadlock freedom (reporting the
    /// exact wait-for cycle when one exists), and that no sent message
    /// goes unreceived.
    ///
    /// This is the single pre-check implementation shared by the dynamic
    /// executor (`mpisim::exec`) and the static analyzer (`schedcheck`),
    /// so the two passes cannot drift: `schedcheck::verify` delegates
    /// here before layering on its interleaving-independent analyses
    /// (match ambiguity, volume conservation, depth bounds).
    ///
    /// Memory is O(p + steps) in a fixed number of flat arrays, never one
    /// allocation per channel. Time is O(p + steps) plus, per round of
    /// the abstract execution, a scan of the 64-rank bitset words between
    /// the lowest and the highest runnable rank.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScheduleError`] encountered.
    pub fn check(&self) -> Result<(), ScheduleError> {
        self.abstract_run().map(|_| ())
    }

    /// Data-influence closure: `influence()[r]` is the set of ranks whose
    /// initial data can have reached rank `r` through the schedule's
    /// messages (every rank trivially influences itself).
    ///
    /// This is the *semantic* counterpart to [`Schedule::check`]: a
    /// broadcast is only correct if the root influences everyone, a
    /// gather/reduce only if everyone influences the root, a total
    /// exchange only if the influence relation is complete, an inclusive
    /// scan only if ranks `0..=r` influence rank `r`. The algorithm tests
    /// assert these properties for every generator.
    ///
    /// Computed by abstract eager execution: a message carries the
    /// sender's influence set *at posting time*; a receive unions it in.
    /// Message sizes are not compared. Returns `None` if the schedule
    /// deadlocks or names an out-of-range peer (run [`Schedule::check`]
    /// first for a diagnosis).
    ///
    /// Receives are resolved to their sends as in `check`. Each rank's
    /// set, and each in-flight message's snapshot, is a row of
    /// `p.div_ceil(64)` words; a received message's row is reused by the
    /// next send, so memory stays O(p² / 64 + in-flight messages × p / 64)
    /// words.
    pub fn influence(&self) -> Option<Vec<Vec<bool>>> {
        let p = self.ranks();
        let slots = self.resolve_slots().ok()?;
        let words = p.div_ceil(64);
        let mut sets = vec![0u64; p * words];
        for r in 0..p {
            sets[r * words + r / 64] |= 1 << (r % 64);
        }
        // `slot_row[slot]` is the arena row holding the message's
        // snapshot once it is sent, `Slots::NONE` before.
        let mut slot_row = vec![Slots::NONE; slots.slot_bytes.len()];
        let mut arena: Vec<u64> = Vec::new();
        let mut free_rows: Vec<u32> = Vec::new();
        let mut pc = vec![0usize; p];
        let mut unfinished = self.programs.iter().filter(|prog| !prog.is_empty()).count();
        // Each rank runs as far as it can; a send that fills the slot its
        // receiver is blocked on makes the receiver runnable again. A
        // blocked rank waits on one slot, which is sent once, so no rank
        // is on the stack twice.
        let mut runnable = Vec::with_capacity(p);
        for first in 0..p {
            runnable.push(first);
            while let Some(r) = runnable.pop() {
                let prog = &self.programs[r];
                let was = pc[r];
                while let Some(&step) = prog.get(pc[r]) {
                    let slot = slots.step_slot[slots.step_base[r] + pc[r]];
                    match step {
                        Step::Send { to, .. } => {
                            let row = free_rows.pop().unwrap_or_else(|| {
                                arena.resize(arena.len() + words, 0);
                                (arena.len() / words - 1) as u32
                            });
                            let at = row as usize * words;
                            arena[at..at + words].copy_from_slice(&sets[r * words..][..words]);
                            slot_row[slot as usize] = row;
                            let t = to.0;
                            if pc[t] < self.programs[t].len()
                                && slots.step_slot[slots.step_base[t] + pc[t]] == slot
                                && t != r
                            {
                                runnable.push(t);
                            }
                        }
                        Step::Recv { .. } => {
                            let Some(&row) = slot_row
                                .get(slot as usize)
                                .filter(|&&row| row != Slots::NONE)
                            else {
                                break; // blocked
                            };
                            let at = row as usize * words;
                            for (dst, src) in
                                sets[r * words..][..words].iter_mut().zip(&arena[at..])
                            {
                                *dst |= *src;
                            }
                            free_rows.push(row);
                        }
                        Step::Compute { .. } | Step::HwBarrier => {}
                    }
                    pc[r] += 1;
                }
                if pc[r] > was && pc[r] == prog.len() {
                    unfinished -= 1;
                }
            }
        }
        (unfinished == 0).then(|| {
            (0..p)
                .map(|r| {
                    let row = &sets[r * words..][..words];
                    (0..p).map(|i| (row[i / 64] >> (i % 64)) & 1 == 1).collect()
                })
                .collect()
        })
    }

    /// Range-checks every named peer, in program order, then resolves
    /// each `Recv` to the send it matches. Messages get *slots*, one per
    /// `Send`, laid out channel by channel: a stable counting sort of the
    /// sends (numbered in program order) by destination, which groups
    /// each destination's sends by source. Under FIFO matching the k-th
    /// `Recv` on a channel takes the channel's k-th send.
    fn resolve_slots(&self) -> Result<Slots, ScheduleError> {
        let p = self.ranks();
        let total = self.total_steps();
        // Slot and step indices are u32: a schedule with 2^32 steps would
        // need over 64 GiB for its steps alone.
        assert!(
            u32::try_from(total).is_ok_and(|n| n < Slots::NONE),
            "schedule of {total} steps exceeds the u32 slot space"
        );

        // Range check, and sends per destination (shifted by one, so the
        // prefix sum below leaves each destination's first slot).
        let mut dst_start = vec![0u32; p + 1];
        for (r, prog) in self.programs.iter().enumerate() {
            for step in prog {
                let named = match *step {
                    Step::Send { to, .. } => to,
                    Step::Recv { from, .. } => from,
                    Step::Compute { .. } | Step::HwBarrier => continue,
                };
                if named.0 >= p {
                    return Err(ScheduleError::RankOutOfRange {
                        rank: named,
                        in_program: Rank(r),
                    });
                }
                if let Step::Send { to, .. } = *step {
                    dst_start[to.0 + 1] += 1;
                }
            }
        }
        for d in 0..p {
            dst_start[d + 1] += dst_start[d];
        }
        let sends = dst_start[p] as usize;

        // Place each send in its destination's bucket, in program order,
        // so each bucket is sorted by source.
        let mut fill = dst_start.clone();
        let mut step_base = Vec::with_capacity(p + 1);
        let mut step_slot = vec![Slots::NONE; total];
        let mut slot_src = vec![0usize; sends];
        let mut slot_bytes = vec![0u32; sends];
        let mut flat = 0usize;
        for (r, prog) in self.programs.iter().enumerate() {
            step_base.push(flat);
            for step in prog {
                if let Step::Send { to, bytes } = *step {
                    let slot = fill[to.0];
                    fill[to.0] += 1;
                    step_slot[flat] = slot;
                    slot_src[slot as usize] = r;
                    slot_bytes[slot as usize] = bytes;
                }
                flat += 1;
            }
        }
        step_base.push(flat);

        // Resolve every Recv to its slot, one destination at a time:
        // `chan[2s]` and `chan[2s + 1]` are the next unclaimed and the end
        // slot of channel s -> d. The entries are reset after each
        // destination, so one 2p-entry array serves all p of them.
        let mut chan = vec![0u32; 2 * p];
        for d in 0..p {
            let bucket = dst_start[d]..dst_start[d + 1];
            for slot in bucket.clone() {
                let s = slot_src[slot as usize];
                if chan[2 * s + 1] == 0 {
                    chan[2 * s] = slot;
                }
                chan[2 * s + 1] = slot + 1;
            }
            for (i, step) in self.programs[d].iter().enumerate() {
                if let Step::Recv { from, .. } = *step {
                    let (next, end) = (chan[2 * from.0], chan[2 * from.0 + 1]);
                    if next < end {
                        step_slot[step_base[d] + i] = next;
                        chan[2 * from.0] = next + 1;
                    }
                }
            }
            for slot in bucket {
                let s = slot_src[slot as usize];
                chan[2 * s] = 0;
                chan[2 * s + 1] = 0;
            }
        }
        Ok(Slots {
            step_base,
            step_slot,
            slot_bytes,
        })
    }

    /// Abstract eager execution; returns the message depth.
    ///
    /// Every `Recv` is resolved to its slot before the run starts
    /// ([`Schedule::resolve_slots`]), so the run only asks whether that
    /// slot was sent.
    ///
    /// Ranks run in rounds, each in ascending rank order and as far as
    /// it can, so the first error found is the same one a round-robin
    /// over all ranks would find. Only runnable ranks are visited: a send
    /// that fills the slot its receiver waits on wakes the receiver later
    /// in the same round when its rank is higher, else in the next round.
    fn abstract_run(&self) -> Result<usize, ScheduleError> {
        let p = self.ranks();
        let Slots {
            step_base,
            step_slot,
            slot_bytes,
        } = self.resolve_slots()?;
        let sends = slot_bytes.len();

        // The run. `sent_depth[slot]` is the message's depth once sent
        // (at least 1), 0 before.
        let mut sent_depth = vec![0u32; sends];
        let mut rank_depth = vec![0u32; p];
        let mut max_depth = 0u32;
        let mut received = 0usize;
        let mut pc = vec![0usize; p];
        let mut unfinished = self.programs.iter().filter(|prog| !prog.is_empty()).count();
        // Runnable ranks of this round and of the next, as bitsets, with
        // the word range that may hold set bits.
        let words = p.div_ceil(64);
        let mut now = vec![u64::MAX; words];
        let mut next = vec![0u64; words];
        let (mut lo, mut hi) = (0, words);
        loop {
            let (mut next_lo, mut next_hi) = (words, 0);
            let mut progressed = false;
            let mut wi = lo;
            while wi < hi {
                let w = now[wi];
                if w == 0 {
                    wi += 1;
                    continue;
                }
                now[wi] = w & (w - 1);
                let r = wi * 64 + w.trailing_zeros() as usize;
                if r >= p {
                    continue;
                }
                let prog = &self.programs[r];
                let was = pc[r];
                while let Some(&step) = prog.get(pc[r]) {
                    let slot = step_slot[step_base[r] + pc[r]];
                    match step {
                        Step::Send { to, .. } => {
                            let d = rank_depth[r] + 1;
                            sent_depth[slot as usize] = d;
                            max_depth = max_depth.max(d);
                            let t = to.0;
                            let waiting = pc[t] < self.programs[t].len()
                                && step_slot[step_base[t] + pc[t]] == slot;
                            if t != r && waiting {
                                let bit = 1u64 << (t % 64);
                                if t > r {
                                    now[t / 64] |= bit;
                                    hi = hi.max(t / 64 + 1);
                                } else {
                                    next[t / 64] |= bit;
                                    next_lo = next_lo.min(t / 64);
                                    next_hi = next_hi.max(t / 64 + 1);
                                }
                            }
                        }
                        Step::Recv { from, bytes } => {
                            let Some(&d) = sent_depth.get(slot as usize).filter(|&&d| d > 0) else {
                                break; // blocked
                            };
                            let sent = slot_bytes[slot as usize];
                            if sent != bytes {
                                return Err(ScheduleError::SizeMismatch {
                                    from,
                                    to: Rank(r),
                                    sent,
                                    expected: bytes,
                                });
                            }
                            rank_depth[r] = rank_depth[r].max(d);
                            received += 1;
                        }
                        Step::Compute { .. } | Step::HwBarrier => {}
                    }
                    pc[r] += 1;
                }
                if pc[r] > was {
                    progressed = true;
                    if pc[r] == prog.len() {
                        unfinished -= 1;
                    }
                }
            }
            if unfinished == 0 {
                if received < sends {
                    return Err(ScheduleError::UnconsumedMessages {
                        count: sends - received,
                    });
                }
                return Ok(max_depth as usize);
            }
            if !progressed {
                if let Some(cycle) = self.wait_cycle(&pc) {
                    return Err(ScheduleError::DeadlockCycle { cycle });
                }
                let waiting = (0..p)
                    .filter(|&r| pc[r] < self.programs[r].len())
                    .map(Rank)
                    .collect();
                return Err(ScheduleError::Stuck { waiting });
            }
            std::mem::swap(&mut now, &mut next);
            (lo, hi) = (next_lo, next_hi);
        }
    }

    /// Extracts a wait-for cycle from a stalled abstract execution, if
    /// one exists. `pc` is the per-rank program counter at the stall;
    /// every unfinished rank is necessarily blocked at a `Recv` (the
    /// other step kinds always progress under eager abstract execution),
    /// so each blocked rank waits on exactly one other rank and the
    /// wait-for graph is functional — a single pointer walk per
    /// component finds any cycle.
    fn wait_cycle(&self, pc: &[usize]) -> Option<Vec<(Rank, Step)>> {
        let p = self.ranks();
        let waits_on = |r: usize| -> Option<usize> {
            match self.programs[r].get(pc[r]) {
                Some(Step::Recv { from, .. }) => Some(from.0),
                _ => None,
            }
        };
        // 0 = unvisited, 1 = on the current walk, 2 = known cycle-free.
        let mut state = vec![0u8; p];
        for start in 0..p {
            if state[start] != 0 {
                continue;
            }
            let mut path = Vec::new();
            let mut cur = start;
            loop {
                if state[cur] == 1 {
                    // `cur` reappeared on this walk: the tail of `path`
                    // from its first occurrence is the cycle.
                    let pos = path.iter().position(|&r| r == cur)?;
                    let mut cycle: Vec<usize> = path[pos..].to_vec();
                    let lead = cycle
                        .iter()
                        .enumerate()
                        .min_by_key(|&(_, &r)| r)
                        .map(|(i, _)| i)?;
                    cycle.rotate_left(lead);
                    return Some(
                        cycle
                            .into_iter()
                            .map(|r| (Rank(r), self.programs[r][pc[r]]))
                            .collect(),
                    );
                }
                if state[cur] == 2 {
                    break;
                }
                state[cur] = 1;
                path.push(cur);
                match waits_on(cur) {
                    // Follow the edge only into a rank that is itself
                    // blocked; a finished sender ends the chain (orphan
                    // wait, reported as `Stuck`).
                    Some(next) if pc[next] < self.programs[next].len() => cur = next,
                    _ => break,
                }
            }
            for r in path {
                state[r] = 2;
            }
        }
        None
    }
}

/// Smallest exponent `l` with `2^l >= p`.
pub fn ceil_log2(p: usize) -> u32 {
    assert!(p > 0, "ceil_log2 of zero");
    (p as u64).next_power_of_two().trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(to: usize, bytes: u32) -> Step {
        Step::Send {
            to: Rank(to),
            bytes,
        }
    }
    fn recv(from: usize, bytes: u32) -> Step {
        Step::Recv {
            from: Rank(from),
            bytes,
        }
    }

    #[test]
    fn simple_pingpong_checks() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(1), recv(0, 8));
        s.push(Rank(1), send(0, 8));
        s.push(Rank(0), recv(1, 8));
        assert!(s.check().is_ok());
        assert_eq!(s.total_messages(), 2);
        assert_eq!(s.total_bytes(), 16);
        assert_eq!(s.message_depth(), 2, "reply depends on request");
        assert_eq!(s.steps_of(Rank(0)), 2);
        assert_eq!(s.steps_of(Rank(1)), 2);
        assert_eq!(s.total_steps(), 4);
    }

    #[test]
    fn deadlock_reports_exact_cycle() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), recv(1, 8));
        s.push(Rank(1), recv(0, 8));
        match s.check() {
            Err(ScheduleError::DeadlockCycle { cycle }) => {
                assert_eq!(cycle, vec![(Rank(0), recv(1, 8)), (Rank(1), recv(0, 8))]);
            }
            other => panic!("expected DeadlockCycle, got {other:?}"),
        }
    }

    #[test]
    fn three_cycle_rotates_to_smallest_rank() {
        // 1 waits on 2, 2 waits on 0, 0 waits on 1 — plus sends that
        // would run after the recvs, proving the cycle is the blocker.
        let mut s = Schedule::new(OpClass::PointToPoint, 3);
        s.push(Rank(0), recv(1, 8));
        s.push(Rank(0), send(2, 8));
        s.push(Rank(1), recv(2, 8));
        s.push(Rank(1), send(0, 8));
        s.push(Rank(2), recv(0, 8));
        s.push(Rank(2), send(1, 8));
        match s.check() {
            Err(ScheduleError::DeadlockCycle { cycle }) => {
                assert_eq!(
                    cycle,
                    vec![
                        (Rank(0), recv(1, 8)),
                        (Rank(1), recv(2, 8)),
                        (Rank(2), recv(0, 8)),
                    ]
                );
            }
            other => panic!("expected DeadlockCycle, got {other:?}"),
        }
    }

    #[test]
    fn orphan_wait_is_stuck_not_cycle() {
        // Rank 0 waits on a rank whose program finished without sending:
        // no wait-for cycle exists, so the plain Stuck diagnosis stands.
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), recv(1, 8));
        match s.check() {
            Err(ScheduleError::Stuck { waiting }) => assert_eq!(waiting, vec![Rank(0)]),
            other => panic!("expected Stuck, got {other:?}"),
        }
    }

    #[test]
    fn cycle_found_behind_orphan_chain() {
        // Rank 0 waits on the 1<->2 cycle; the cycle — not rank 0 — is
        // the root cause and must be what gets reported.
        let mut s = Schedule::new(OpClass::PointToPoint, 3);
        s.push(Rank(0), recv(1, 8));
        s.push(Rank(1), recv(2, 8));
        s.push(Rank(1), send(0, 8));
        s.push(Rank(2), recv(1, 8));
        match s.check() {
            Err(ScheduleError::DeadlockCycle { cycle }) => {
                assert_eq!(cycle, vec![(Rank(1), recv(2, 8)), (Rank(2), recv(1, 8))]);
            }
            other => panic!("expected DeadlockCycle, got {other:?}"),
        }
    }

    #[test]
    fn size_mismatch_detected() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        s.push(Rank(1), recv(0, 16));
        assert!(matches!(
            s.check(),
            Err(ScheduleError::SizeMismatch {
                sent: 8,
                expected: 16,
                ..
            })
        ));
    }

    #[test]
    fn unconsumed_message_detected() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(1, 8));
        assert_eq!(
            s.check(),
            Err(ScheduleError::UnconsumedMessages { count: 1 })
        );
    }

    #[test]
    fn out_of_range_detected() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), send(5, 8));
        assert!(matches!(
            s.check(),
            Err(ScheduleError::RankOutOfRange { rank: Rank(5), .. })
        ));
    }

    #[test]
    fn out_of_range_peer_has_depth_zero() {
        // A receive from a rank that does not exist is rejected before
        // the abstract run, so the wait-for walk never indexes it.
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), recv(5, 4));
        assert_eq!(s.message_depth(), 0);
        assert_eq!(
            s.check(),
            Err(ScheduleError::RankOutOfRange {
                rank: Rank(5),
                in_program: Rank(0),
            })
        );
    }

    #[test]
    fn fifo_matching_is_order_sensitive() {
        // Two messages 0->1 with different sizes must be received in
        // sending order.
        let mut ok = Schedule::new(OpClass::PointToPoint, 2);
        ok.push(Rank(0), send(1, 8));
        ok.push(Rank(0), send(1, 16));
        ok.push(Rank(1), recv(0, 8));
        ok.push(Rank(1), recv(0, 16));
        assert!(ok.check().is_ok());

        let mut bad = Schedule::new(OpClass::PointToPoint, 2);
        bad.push(Rank(0), send(1, 8));
        bad.push(Rank(0), send(1, 16));
        bad.push(Rank(1), recv(0, 16));
        bad.push(Rank(1), recv(0, 8));
        assert!(matches!(
            bad.check(),
            Err(ScheduleError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn fan_out_has_depth_one() {
        let mut s = Schedule::new(OpClass::Scatter, 4);
        for i in 1..4 {
            s.push(Rank(0), send(i, 32));
            s.push(Rank(i), recv(0, 32));
        }
        assert!(s.check().is_ok());
        assert_eq!(s.message_depth(), 1);
    }

    #[test]
    fn chain_depth_counts_hops() {
        let mut s = Schedule::new(OpClass::Scan, 4);
        for i in 0..3usize {
            s.push(Rank(i), send(i + 1, 4));
            s.push(Rank(i + 1), recv(i, 4));
        }
        assert!(s.check().is_ok());
        assert_eq!(s.message_depth(), 3);
    }

    #[test]
    fn influence_tracks_data_flow() {
        // 0 -> 1 -> 2 chain: 2 is influenced by everyone upstream.
        let mut s = Schedule::new(OpClass::Scan, 3);
        s.push(Rank(0), send(1, 4));
        s.push(Rank(1), recv(0, 4));
        s.push(Rank(1), send(2, 4));
        s.push(Rank(2), recv(1, 4));
        let inf = s.influence().unwrap();
        assert_eq!(inf[0], vec![true, false, false]);
        assert_eq!(inf[1], vec![true, true, false]);
        assert_eq!(inf[2], vec![true, true, true]);
    }

    #[test]
    fn influence_respects_posting_time() {
        // Rank 0 sends to 2 *before* hearing from 1: the message cannot
        // carry 1's data even though 0 later learns it.
        let mut s = Schedule::new(OpClass::PointToPoint, 3);
        s.push(Rank(0), send(2, 4));
        s.push(Rank(0), recv(1, 4));
        s.push(Rank(1), send(0, 4));
        s.push(Rank(2), recv(0, 4));
        let inf = s.influence().unwrap();
        assert_eq!(inf[2], vec![true, false, true], "no transitive leak");
        assert_eq!(inf[0], vec![true, true, false]);
    }

    #[test]
    fn influence_detects_deadlock_as_none() {
        let mut s = Schedule::new(OpClass::PointToPoint, 2);
        s.push(Rank(0), recv(1, 8));
        s.push(Rank(1), recv(0, 8));
        assert!(s.influence().is_none());
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    #[should_panic(expected = "ceil_log2 of zero")]
    fn ceil_log2_zero_panics() {
        ceil_log2(0);
    }

    #[test]
    fn display_of_errors() {
        let e = ScheduleError::Stuck {
            waiting: vec![Rank(1)],
        };
        assert!(e.to_string().contains("deadlock"));

        let e = ScheduleError::DeadlockCycle {
            cycle: vec![(Rank(0), recv(1, 8)), (Rank(1), recv(0, 8))],
        };
        let msg = e.to_string();
        assert!(msg.contains("wait-for cycle"), "got: {msg}");
        assert!(msg.contains("r0") && msg.contains("r1"), "got: {msg}");

        let e = ScheduleError::AmbiguousMatch {
            from: Rank(2),
            to: Rank(3),
            earlier: 8,
            later: 16,
        };
        let msg = e.to_string();
        assert!(msg.contains("ambiguous"), "got: {msg}");
        assert!(msg.contains("r2->r3"), "got: {msg}");
    }
}
