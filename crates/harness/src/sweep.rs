//! Parameter sweeps over (machine, operation, message length, nodes).
//!
//! The paper's grid: `m ∈ {4, 16, …, 64K}` bytes (powers of four) and
//! `p ∈ {2, 4, …, 128}` (powers of two), with the T3D capped at 64
//! nodes (§2). [`SweepBuilder`] produces that grid or any sub-grid, runs
//! the [`measure()`](crate::measure::measure) procedure at every point,
//! and collects a [`Dataset`].
//!
//! Every grid point is a self-contained deterministic simulation, so
//! sweeps shard across threads ([`SweepBuilder::threads`]): workers
//! pull whole `(machine, op, p, m)` points from a shared work index and
//! results are merged back in canonical point order, making the output
//! byte-identical to a serial run for any thread count.

use crate::dataset::Dataset;
use crate::measure::measure;
use crate::par;
use crate::protocol::Protocol;
use mpisim::{Machine, OpClass, SimMpiError};

/// The paper's message-length grid: 4 B to 64 KB in powers of four.
pub const PAPER_MESSAGE_SIZES: [u32; 8] = [4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536];

/// The paper's machine-size grid: 2 to 128 nodes in powers of two.
pub const PAPER_NODE_COUNTS: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// One grid point in canonical sweep order.
#[derive(Debug, Clone)]
struct PointSpec {
    machine: Machine,
    op: OpClass,
    bytes: u32,
    nodes: usize,
}

/// Builds and runs measurement sweeps.
///
/// # Examples
///
/// ```
/// use harness::{Protocol, SweepBuilder};
/// use mpisim::{Machine, OpClass};
///
/// let data = SweepBuilder::new()
///     .machines([Machine::t3d()])
///     .ops([OpClass::Bcast])
///     .message_sizes([16])
///     .node_counts([2, 4])
///     .protocol(Protocol::quick())
///     .run()?;
/// assert_eq!(data.len(), 2);
/// # Ok::<(), mpisim::SimMpiError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SweepBuilder {
    machines: Vec<Machine>,
    ops: Vec<OpClass>,
    sizes: Vec<u32>,
    nodes: Vec<usize>,
    protocol: Protocol,
    threads: usize,
}

impl Default for SweepBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepBuilder {
    /// A sweep over the paper's full grid: all three machines, all seven
    /// collectives, all message sizes and node counts.
    pub fn new() -> Self {
        SweepBuilder {
            machines: Machine::all().to_vec(),
            ops: OpClass::COLLECTIVES.to_vec(),
            sizes: PAPER_MESSAGE_SIZES.to_vec(),
            nodes: PAPER_NODE_COUNTS.to_vec(),
            protocol: Protocol::paper(),
            threads: 1,
        }
    }

    /// Restricts the machines.
    pub fn machines(mut self, machines: impl IntoIterator<Item = Machine>) -> Self {
        self.machines = machines.into_iter().collect();
        self
    }

    /// Restricts the operations.
    pub fn ops(mut self, ops: impl IntoIterator<Item = OpClass>) -> Self {
        self.ops = ops.into_iter().collect();
        self
    }

    /// Restricts the message lengths (bytes).
    pub fn message_sizes(mut self, sizes: impl IntoIterator<Item = u32>) -> Self {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Restricts the machine sizes (node counts).
    pub fn node_counts(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.nodes = nodes.into_iter().collect();
        self
    }

    /// Replaces the measurement protocol.
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Sets the worker-thread count: `1` (the default) runs serially on
    /// the calling thread, `0` auto-detects the host's parallelism, any
    /// other value spawns exactly that many workers. The resulting
    /// [`Dataset`] is byte-identical for every setting — points merge
    /// in canonical grid order regardless of scheduling.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The grid in canonical order: machine → nodes → op → size, with
    /// barrier measured once per `(machine, p)` and node counts beyond
    /// a machine's maximum skipped.
    fn point_specs(&self) -> Vec<PointSpec> {
        let mut specs = Vec::new();
        for machine in &self.machines {
            for &p in &self.nodes {
                if p > machine.spec().max_nodes {
                    continue;
                }
                for &op in &self.ops {
                    // Barrier ignores the message length: measure it once
                    // per (machine, p), regardless of the size grid.
                    let mut barrier_done = false;
                    for &m in &self.sizes {
                        if op == OpClass::Barrier {
                            if barrier_done {
                                continue;
                            }
                            barrier_done = true;
                        }
                        specs.push(PointSpec {
                            machine: machine.clone(),
                            op,
                            bytes: if op == OpClass::Barrier { 0 } else { m },
                            nodes: p,
                        });
                    }
                }
            }
        }
        specs
    }

    /// Number of grid points this sweep will measure (after per-machine
    /// node caps).
    pub fn points(&self) -> usize {
        self.point_specs().len()
    }

    /// Runs the sweep, invoking `progress(done, total)` once per
    /// completed `(machine, op, p, m)` point — per-point granularity,
    /// so long points (e.g. a 64-node alltoall) advance the count as
    /// soon as they finish instead of only at `(machine, p)` group
    /// boundaries. Under threads, delivery is serialized and `done` is
    /// strictly monotonic; completion order may differ from canonical
    /// order, but the returned [`Dataset`] never does.
    ///
    /// Node counts beyond a machine's measured maximum are skipped (the
    /// paper reports the T3D only to 64 nodes for the same reason).
    ///
    /// # Errors
    ///
    /// Propagates the measurement failure with the smallest canonical
    /// point index (serial runs stop at the first failure).
    pub fn run_with_progress(
        &self,
        progress: impl Fn(usize, usize) + Send + Sync,
    ) -> Result<Dataset, SimMpiError> {
        let specs = self.point_specs();
        let points = par::run_indexed(
            specs.len(),
            self.threads,
            |i| {
                let s = &specs[i];
                let comm = s.machine.communicator(s.nodes)?;
                measure(&comm, s.op, s.bytes, &self.protocol)
            },
            &progress,
        )?;
        Ok(points.into_iter().collect())
    }

    /// Runs the sweep silently.
    ///
    /// # Errors
    ///
    /// Propagates the first measurement failure.
    pub fn run(&self) -> Result<Dataset, SimMpiError> {
        self.run_with_progress(|_, _| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn small_sweep_produces_grid() {
        let data = SweepBuilder::new()
            .machines([Machine::t3d(), Machine::sp2()])
            .ops([OpClass::Bcast, OpClass::Gather])
            .message_sizes([16, 1024])
            .node_counts([2, 8])
            .protocol(Protocol::quick())
            .run()
            .unwrap();
        assert_eq!(data.len(), 2 * 2 * 2 * 2);
    }

    #[test]
    fn t3d_capped_at_64_nodes() {
        let b = SweepBuilder::new()
            .machines([Machine::t3d()])
            .ops([OpClass::Bcast])
            .message_sizes([16])
            .node_counts([64, 128]);
        assert_eq!(b.points(), 1);
        let data = b.protocol(Protocol::quick()).run().unwrap();
        assert_eq!(data.len(), 1);
        assert_eq!(data.iter().next().unwrap().nodes, 64);
    }

    #[test]
    fn barrier_measured_once_per_size_grid() {
        let data = SweepBuilder::new()
            .machines([Machine::sp2()])
            .ops([OpClass::Barrier])
            .message_sizes([4, 16, 64])
            .node_counts([4])
            .protocol(Protocol::quick())
            .run()
            .unwrap();
        assert_eq!(data.len(), 1, "barrier has no message length");
        assert_eq!(data.iter().next().unwrap().bytes, 0);
    }

    #[test]
    fn duplicate_sizes_measure_barrier_once() {
        let b = SweepBuilder::new()
            .machines([Machine::t3d()])
            .ops([OpClass::Barrier])
            .message_sizes([4, 4, 16])
            .node_counts([2]);
        assert_eq!(b.points(), 1);
        let calls = AtomicUsize::new(0);
        let data = b
            .protocol(Protocol::quick())
            .run_with_progress(|done, total| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert!(done <= total, "{done} > {total}");
            })
            .unwrap();
        assert_eq!(data.len(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn progress_reported() {
        let calls = AtomicUsize::new(0);
        SweepBuilder::new()
            .machines([Machine::t3d()])
            .ops([OpClass::Scan])
            .message_sizes([4])
            .node_counts([2, 4])
            .protocol(Protocol::quick())
            .run_with_progress(|done, total| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert!(done <= total);
            })
            .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn parallel_sweep_equals_serial_byte_for_byte() {
        let base = SweepBuilder::new()
            .machines([Machine::sp2(), Machine::t3d()])
            .ops([OpClass::Bcast, OpClass::Alltoall, OpClass::Barrier])
            .message_sizes([64, 1024])
            .node_counts([2, 8])
            .protocol(Protocol::quick());
        let serial = base.clone().threads(1).run().unwrap();
        for threads in [0, 2, 4, 8] {
            let par = base.clone().threads(threads).run().unwrap();
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(par.to_csv(), serial.to_csv(), "threads={threads}");
        }
    }

    #[test]
    fn parallel_progress_per_point_and_monotonic() {
        let b = SweepBuilder::new()
            .machines([Machine::t3d()])
            .ops([OpClass::Bcast, OpClass::Reduce])
            .message_sizes([16, 256])
            .node_counts([2, 4])
            .protocol(Protocol::quick())
            .threads(4);
        let total = b.points();
        assert_eq!(total, 8);
        let seen = Mutex::new(Vec::new());
        b.run_with_progress(|done, t| seen.lock().unwrap().push((done, t)))
            .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), total, "one callback per point");
        for (k, &(done, t)) in seen.iter().enumerate() {
            assert_eq!(done, k + 1, "strictly monotonic completed-count");
            assert_eq!(t, total);
        }
    }
}
