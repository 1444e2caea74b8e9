//! The [`Communicator`]: MPI-style collective entry points over a
//! simulated partition.

use crate::datatype::Datatype;
use crate::error::SimMpiError;
use crate::exec::{execute, CpuNoise, ExecOutcome, Observed, TieBreakPolicy};
use crate::machine::Machine;
use crate::placement::explicit_table;
use collectives::{build, extra, Rank, Schedule, Step};
use desim::{SimDuration, SimTime};
use netmodel::OpClass;
use topo::NodeId;

/// Per-run execution settings for [`Communicator::run_with`] and
/// [`Communicator::run_observed`]. The machine spec, wire config and
/// rank-to-node table come from the communicator; everything else an
/// execution can vary is here.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Per-rank start instants (models unsynchronized node clocks /
    /// skewed arrival). Default: everyone starts at time zero.
    pub start_times: Option<Vec<SimTime>>,
    /// Multiplicative per-rank CPU slowdown modeling interference from
    /// other users and OS daemons (§9 accuracy factor). Each rank draws
    /// a factor uniformly from `[1, 1 + amplitude]`.
    pub cpu_noise: Option<CpuNoise>,
    /// Record a per-message trace ([`crate::exec::MessageTrace`]) and
    /// the link-load distribution. Off by default: tracing a 128-node
    /// alltoall allocates one record per message. Observed runs always
    /// trace.
    pub record_trace: bool,
    /// Maximum [`crate::exec::MessageTrace`] entries kept when tracing
    /// (the `--trace-cap` CLI flag); further messages are counted in
    /// [`ExecOutcome::dropped_messages`] instead of allocated. `None`
    /// uses [`crate::exec::DEFAULT_TRACE_LIMIT`].
    pub trace_limit: Option<usize>,
    /// Record causal event provenance
    /// ([`desim::Engine::with_provenance`]): one compact parent edge per
    /// event, surfaced via [`crate::exec::Observed::provenance`] on
    /// observed runs. Zero cost when off.
    pub provenance: bool,
    /// Record the canonical fired-event stream
    /// ([`desim::Engine::with_event_log`]), surfaced via
    /// [`crate::exec::Observed::event_log`] on observed runs — the input
    /// to run-record serialization and `obs::diff`. Zero cost when off.
    pub event_log: bool,
    /// How same-instant event ties are broken. The default
    /// ([`TieBreakPolicy::InsertionOrder`]) is the committed
    /// deterministic order; the other policies exist solely so
    /// differential tests, `tracediff --perturb` and the `ordercheck`
    /// commutativity explorer can produce controlled perturbations.
    pub tie_break: TieBreakPolicy,
    /// Run without checking the schedules first. Only the tests that
    /// compare the executor with the static analyzer set this
    /// (`crates/schedcheck/tests/proptest_schedcheck.rs` and the
    /// executor's `unvalidated_deadlock_returns_typed_stall`): a
    /// schedule that deadlocks then surfaces as
    /// [`SimMpiError::RankStalled`] instead of a
    /// [`SimMpiError::BadSchedule`].
    pub skip_validation: bool,
}

/// The outcome of one collective operation: per-rank elapsed times plus
/// traffic counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectiveOutcome {
    per_rank: Vec<SimDuration>,
    messages: u64,
    bytes: u64,
}

impl CollectiveOutcome {
    /// The paper's headline number: the **maximum** elapsed time over all
    /// ranks ("it reflects the condition that all processes involved …
    /// have finished the operation", §2).
    pub fn time(&self) -> SimDuration {
        self.per_rank
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The minimum per-rank elapsed time.
    pub fn min_time(&self) -> SimDuration {
        self.per_rank
            .iter()
            .copied()
            .min()
            .unwrap_or(SimDuration::ZERO)
    }

    /// The mean per-rank elapsed time, microseconds.
    pub fn mean_time_us(&self) -> f64 {
        if self.per_rank.is_empty() {
            return 0.0;
        }
        self.per_rank.iter().map(|d| d.as_micros_f64()).sum::<f64>() / self.per_rank.len() as f64
    }

    /// Per-rank elapsed times.
    pub fn per_rank(&self) -> &[SimDuration] {
        &self.per_rank
    }

    /// Messages injected into the network.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Payload bytes injected into the network.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// A group of `p` simulated processes, one per node, on one machine.
///
/// Each collective call executes the machine's algorithm for that
/// operation on *fresh* occupancy watermarks (a quiet machine in
/// dedicated mode, as the paper's runs were), returning per-rank
/// timings. The topology and route table are not rebuilt: every
/// execution shares the one built per process for the machine's
/// topology and partition size. Rank stepping runs entirely on the
/// engine's typed-event path ([`desim::TypedEvent`]) — no per-event
/// allocation in the execution hot loop.
///
/// [`Communicator::run`], [`Communicator::run_with`] and
/// [`Communicator::run_observed`] are the only way to execute a
/// schedule, and each refuses one whose rank count is not
/// [`Communicator::size`]. For the paper's full measurement methodology
/// (warm-up, k-iteration loops, max-reduction) use the `harness` crate,
/// which drives [`Communicator::run_with`].
#[derive(Debug, Clone)]
pub struct Communicator {
    machine: Machine,
    /// Rank `r` runs on node `nodes[r]` of the machine partition,
    /// resolved once when the communicator is built.
    nodes: Vec<NodeId>,
    /// Nodes in the machine partition: the size of a communicator from
    /// [`Machine::communicator`], the parent's partition for a group.
    machine_nodes: usize,
}

impl Communicator {
    pub(crate) fn new(machine: Machine, nodes: Vec<NodeId>, machine_nodes: usize) -> Self {
        Communicator {
            machine,
            nodes,
            machine_nodes,
        }
    }

    /// Derives a subgroup communicator over the named member ranks (the
    /// `MPI_Comm_split`/group mechanism): member `i` of the new group
    /// keeps running on the physical node member `ranks[i]` occupies in
    /// this communicator, while the machine partition — and therefore
    /// the network the subgroup shares — stays the full size.
    ///
    /// # Errors
    ///
    /// Rejects empty, duplicate, or out-of-range member lists.
    pub fn group(&self, ranks: &[usize]) -> Result<Communicator, SimMpiError> {
        if ranks.is_empty() {
            return Err(SimMpiError::InvalidSize {
                requested: 0,
                max: self.size(),
            });
        }
        // Resolve each member through this communicator's own mapping.
        let nodes = ranks
            .iter()
            .map(|&r| self.nodes.get(r).copied())
            .collect::<Option<Vec<NodeId>>>()
            .ok_or(SimMpiError::InvalidRank {
                rank: *ranks.iter().max().expect("non-empty"),
                size: self.size(),
            })?;
        let nodes = explicit_table(nodes, self.machine_nodes).map_err(SimMpiError::InvalidSpec)?;
        Ok(Communicator::new(
            self.machine.clone(),
            nodes,
            self.machine_nodes,
        ))
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The machine this communicator lives on.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    fn check_rank(&self, r: Rank) -> Result<(), SimMpiError> {
        if r.0 >= self.size() {
            return Err(SimMpiError::InvalidRank {
                rank: r.0,
                size: self.size(),
            });
        }
        Ok(())
    }

    /// Builds this machine's schedule for `class` (vendor or generic per
    /// the machine policy).
    ///
    /// # Errors
    ///
    /// Propagates rank validation and algorithm-selection failures.
    pub fn schedule(
        &self,
        class: OpClass,
        root: Rank,
        bytes: u32,
    ) -> Result<Schedule, SimMpiError> {
        self.check_rank(root)?;
        let alg = self.machine.algorithm_for(class);
        Ok(build(alg, class, self.size(), root, bytes)?)
    }

    /// Runs one schedule from a cold start and returns per-rank timings.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Communicator::run_with`].
    pub fn run(&self, schedule: &Schedule) -> Result<CollectiveOutcome, SimMpiError> {
        let out = self.run_with(&[schedule], RunOptions::default())?;
        Ok(self.outcome_from(&out, 0))
    }

    /// Runs `segments` back to back (no implicit sync between them) under
    /// per-run options: skewed start times, interference noise, tracing,
    /// a tie-break perturbation.
    ///
    /// # Errors
    ///
    /// Returns [`SimMpiError::EmptySequence`] for no segments,
    /// [`SimMpiError::SizeMismatch`] when a segment's rank count is not
    /// this communicator's size, [`SimMpiError::SequenceTooLong`] when a
    /// rank would step through more than 2³² positions, and propagates
    /// validation failures from the executor.
    pub fn run_with(
        &self,
        segments: &[&Schedule],
        options: RunOptions,
    ) -> Result<ExecOutcome, SimMpiError> {
        self.execute(segments, options, false).map(|(out, _)| out)
    }

    /// Runs segments like [`Communicator::run_with`] under full
    /// observability: message trace, per-rank phase spans,
    /// per-link/per-class network instrumentation, and engine queue
    /// statistics. Costs one allocation per span and message.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Communicator::run_with`].
    pub fn run_observed(
        &self,
        segments: &[&Schedule],
        options: RunOptions,
    ) -> Result<(ExecOutcome, Observed), SimMpiError> {
        self.execute(segments, options, true)
            .map(|(out, obs)| (out, obs.expect("observed run collects instrumentation")))
    }

    /// Checks the call's shape, then hands the segments and this
    /// communicator's node table to the executor.
    fn execute(
        &self,
        segments: &[&Schedule],
        options: RunOptions,
        observe: bool,
    ) -> Result<(ExecOutcome, Option<Observed>), SimMpiError> {
        if segments.is_empty() {
            return Err(SimMpiError::EmptySequence);
        }
        if let Some(seg) = segments.iter().find(|seg| seg.ranks() != self.size()) {
            return Err(SimMpiError::SizeMismatch {
                schedule: seg.ranks(),
                communicator: self.size(),
            });
        }
        execute(
            &self.machine,
            &self.nodes,
            self.machine_nodes,
            segments,
            options,
            observe,
        )
    }

    fn outcome_from(&self, out: &ExecOutcome, seg: usize) -> CollectiveOutcome {
        CollectiveOutcome {
            per_rank: (0..self.size())
                .map(|r| out.rank_segment_time(seg, r))
                .collect(),
            messages: out.messages,
            bytes: out.bytes,
        }
    }

    fn collective(
        &self,
        class: OpClass,
        root: Rank,
        bytes: u32,
    ) -> Result<CollectiveOutcome, SimMpiError> {
        let s = self.schedule(class, root, bytes)?;
        self.run(&s)
    }

    /// `MPI_Bcast`: `bytes` from `root` to every rank.
    ///
    /// # Errors
    ///
    /// Fails if `root` is out of range.
    pub fn bcast(&self, root: Rank, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(OpClass::Bcast, root, bytes)
    }

    /// `MPI_Scatter`: a distinct `bytes` block from `root` to each rank.
    ///
    /// # Errors
    ///
    /// Fails if `root` is out of range.
    pub fn scatter(&self, root: Rank, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(OpClass::Scatter, root, bytes)
    }

    /// `MPI_Gather`: a `bytes` block from each rank to `root`.
    ///
    /// # Errors
    ///
    /// Fails if `root` is out of range.
    pub fn gather(&self, root: Rank, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(OpClass::Gather, root, bytes)
    }

    /// `MPI_Reduce`: combine `bytes`-sized vectors onto `root`.
    ///
    /// # Errors
    ///
    /// Fails if `root` is out of range.
    pub fn reduce(&self, root: Rank, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(OpClass::Reduce, root, bytes)
    }

    /// `MPI_Scan`: inclusive prefix combination of `bytes`-sized vectors.
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn scan(&self, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(OpClass::Scan, Rank(0), bytes)
    }

    /// `MPI_Alltoall` (total exchange): `bytes` between every rank pair.
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn alltoall(&self, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(OpClass::Alltoall, Rank(0), bytes)
    }

    /// `MPI_Barrier`.
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn barrier(&self) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(OpClass::Barrier, Rank(0), 0)
    }

    /// `MPI_Allgather` via the ring schedule (extension operation).
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn allgather(&self, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.run(&extra::allgather_ring(self.size(), bytes))
    }

    /// `MPI_Allreduce` via recursive doubling (extension operation).
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn allreduce(&self, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.run(&extra::allreduce_recursive_doubling(self.size(), bytes))
    }

    /// `MPI_Allreduce` via Rabenseifner's reduce-scatter + allgather
    /// (extension operation; bandwidth-optimal for long vectors).
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn allreduce_rabenseifner(&self, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.run(&extra::allreduce_rabenseifner(self.size(), bytes))
    }

    /// `MPI_Reduce_scatter` via pairwise exchange (extension operation).
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn reduce_scatter(&self, bytes: u32) -> Result<CollectiveOutcome, SimMpiError> {
        self.run(&extra::reduce_scatter_pairwise(self.size(), bytes))
    }

    /// Typed collective entry point: `count` elements of `datatype` per
    /// pairwise message, the way the paper states its parameters
    /// ("the data type of the message elements is always MPI_FLOAT").
    ///
    /// # Errors
    ///
    /// Fails if `root` is out of range for rooted operations.
    ///
    /// # Examples
    ///
    /// ```
    /// use mpisim::{Datatype, Machine, OpClass, Rank};
    ///
    /// let comm = Machine::t3d().communicator(16)?;
    /// // Broadcast 256 floats = 1 KB, the paper's mid-size point.
    /// let out = comm.collective_typed(OpClass::Bcast, Rank(0), 256, Datatype::Float)?;
    /// assert!(out.time().as_micros_f64() > 0.0);
    /// # Ok::<(), mpisim::SimMpiError>(())
    /// ```
    pub fn collective_typed(
        &self,
        class: OpClass,
        root: Rank,
        count: u32,
        datatype: Datatype,
    ) -> Result<CollectiveOutcome, SimMpiError> {
        self.collective(class, root, datatype.message_bytes(count))
    }

    /// A single point-to-point message `src → dst`, returning the
    /// end-to-end latency.
    ///
    /// # Errors
    ///
    /// Fails if either rank is out of range.
    pub fn ping(&self, src: Rank, dst: Rank, bytes: u32) -> Result<SimDuration, SimMpiError> {
        self.check_rank(src)?;
        self.check_rank(dst)?;
        let mut s = Schedule::new(OpClass::PointToPoint, self.size());
        s.push(src, Step::Send { to: dst, bytes });
        s.push(dst, Step::Recv { from: src, bytes });
        let out = self.run(&s)?;
        Ok(out.per_rank()[dst.0])
    }
}

/// The harness's parallel sweep executor shards `(machine, op, p, m)`
/// points across worker threads, each building its own [`Communicator`]
/// and running independent simulations. That only holds if the types it
/// moves across threads stay plain data; this compile-time assertion
/// turns an accidental `Rc`/`RefCell`/raw-pointer addition into a build
/// error instead of a distant trait-bound failure in `harness::par`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<Communicator>();
    assert_send_sync::<RunOptions>();
    assert_send_sync::<SimMpiError>();
};

#[cfg(test)]
mod tests {
    //! These tests return `Result<(), SimMpiError>` and propagate
    //! failures with `?` instead of unwrapping, so a failing collective
    //! reports the typed error (the same vocabulary `schedcheck` emits)
    //! rather than a bare panic site.
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn all_collectives_run_on_all_machines() -> Result<(), SimMpiError> {
        for machine in Machine::all() {
            let comm = machine.communicator(16)?;
            for out in [
                comm.bcast(Rank(0), 1024)?,
                comm.scatter(Rank(0), 1024)?,
                comm.gather(Rank(0), 1024)?,
                comm.reduce(Rank(0), 1024)?,
                comm.scan(1024)?,
                comm.alltoall(1024)?,
                comm.barrier()?,
                comm.allgather(1024)?,
                comm.allreduce(1024)?,
                comm.reduce_scatter(1024)?,
            ] {
                assert!(out.time() > SimDuration::ZERO, "{}", machine.name());
                assert!(out.time() >= out.min_time());
                assert!(out.mean_time_us() <= out.time().as_micros_f64() + 1e-9);
            }
        }
        Ok(())
    }

    #[test]
    fn t3d_barrier_is_microseconds_not_hundreds() -> Result<(), SimMpiError> {
        let t3d = Machine::t3d();
        let sp2 = Machine::sp2();
        let tb = t3d.communicator(64)?.barrier()?.time();
        let sb = sp2.communicator(64)?.barrier()?.time();
        assert!(tb.as_micros_f64() < 5.0, "T3D barrier {tb}");
        assert!(
            sb.as_micros_f64() > 30.0 * tb.as_micros_f64(),
            "paper: at least 30x faster; SP2 {sb} vs T3D {tb}"
        );
        Ok(())
    }

    #[test]
    fn alltoall_dominates_other_collectives() -> Result<(), SimMpiError> {
        // Fig. 4: total exchange demands the longest time.
        let comm = Machine::sp2().communicator(32)?;
        let a2a = comm.alltoall(1024)?.time();
        for other in [
            comm.bcast(Rank(0), 1024)?.time(),
            comm.gather(Rank(0), 1024)?.time(),
            comm.scan(1024)?.time(),
        ] {
            assert!(a2a > other);
        }
        Ok(())
    }

    #[test]
    fn rank_validation() -> Result<(), SimMpiError> {
        let comm = Machine::sp2().communicator(8)?;
        assert!(matches!(
            comm.bcast(Rank(8), 4),
            Err(SimMpiError::InvalidRank { rank: 8, size: 8 })
        ));
        assert!(comm.ping(Rank(0), Rank(9), 4).is_err());
        Ok(())
    }

    #[test]
    fn wrong_size_schedules_are_refused() -> Result<(), SimMpiError> {
        // Unchecked, a larger schedule would run on a partition of its
        // own size and a smaller one would index past its rank table.
        let refused = |comm: &Communicator, s: &Schedule| {
            let want = Some(SimMpiError::SizeMismatch {
                schedule: s.ranks(),
                communicator: comm.size(),
            });
            let options = RunOptions::default;
            assert_eq!(comm.run(s).err(), want, "run");
            assert_eq!(comm.run_with(&[s], options()).err(), want, "run_with");
            assert_eq!(comm.run_observed(&[s], options()).err(), want);
        };
        for machine in Machine::all() {
            let bcast = |p: usize| {
                machine
                    .communicator(p)?
                    .schedule(OpClass::Bcast, Rank(0), 1024)
            };
            let comm = machine.communicator(8)?;
            refused(&comm, &bcast(4)?);
            refused(&comm, &bcast(16)?);
            let group = comm.group(&[1, 3, 5, 7])?;
            refused(&group, &bcast(2)?);
            refused(&group, &bcast(8)?);
        }
        Ok(())
    }

    #[test]
    fn ping_scales_with_bytes() -> Result<(), SimMpiError> {
        let comm = Machine::paragon().communicator(16)?;
        let small = comm.ping(Rank(0), Rank(15), 16)?;
        let large = comm.ping(Rank(0), Rank(15), 65_536)?;
        assert!(large > small * 10);
        Ok(())
    }

    #[test]
    fn self_ping_is_local() -> Result<(), SimMpiError> {
        let comm = Machine::t3d().communicator(4)?;
        let t = comm.ping(Rank(1), Rank(1), 1024)?;
        let remote = comm.ping(Rank(1), Rank(2), 1024)?;
        assert!(t < remote);
        Ok(())
    }

    #[test]
    fn bigger_messages_take_longer() -> Result<(), SimMpiError> {
        let comm = Machine::sp2().communicator(32)?;
        let t1 = comm.alltoall(64)?.time();
        let t2 = comm.alltoall(65_536)?.time();
        assert!(t2 > t1 * 5);
        Ok(())
    }

    #[test]
    fn subgroup_collectives_run() -> Result<(), SimMpiError> {
        let comm = Machine::t3d().communicator(16)?;
        // The even ranks form a group of 8 spread across the partition.
        let group = comm.group(&[0, 2, 4, 6, 8, 10, 12, 14])?;
        assert_eq!(group.size(), 8);
        let out = group.bcast(Rank(0), 4_096)?;
        assert!(out.time() > SimDuration::ZERO);
        assert_eq!(out.messages(), 7);
        // A group of a group resolves through both mappings.
        let inner = group.group(&[0, 1, 2, 3])?;
        assert_eq!(inner.size(), 4);
        assert!(inner.barrier()?.time() > SimDuration::ZERO);
        Ok(())
    }

    #[test]
    fn subgroup_validation() -> Result<(), SimMpiError> {
        let comm = Machine::sp2().communicator(8)?;
        assert!(comm.group(&[]).is_err(), "empty");
        assert!(comm.group(&[0, 0]).is_err(), "duplicate");
        assert!(comm.group(&[0, 9]).is_err(), "out of range");
        Ok(())
    }

    #[test]
    fn outcome_traffic_counts() -> Result<(), SimMpiError> {
        let comm = Machine::t3d().communicator(8)?;
        let out = comm.alltoall(100)?;
        assert_eq!(out.messages(), 8 * 7);
        assert_eq!(out.bytes(), 8 * 7 * 100);
        Ok(())
    }
}
