//! Work-distributing parallel execution with deterministic merge.
//!
//! Every pipeline in this repository — sweeps, the 21-point suite, the
//! schedlint vendor sweep — is a grid of *independent* deterministic
//! simulation points, exactly like the paper's own methodology (one
//! timed run per machine/operation/size, §3). This module shards such
//! grids across OS threads with the repo's dependency-free convention:
//! [`std::thread::scope`] plus one shared atomic work index. Workers
//! pull whole items; results are merged back **in canonical input
//! order**, so the output is byte-identical to a serial run regardless
//! of thread count or scheduling.
//!
//! Determinism contract: given the same `work` closure (itself a pure
//! function of the item index), [`run_indexed`] returns the same
//! `Vec<T>` for every `threads` value. Only the [`ParStats`] wall-clock
//! numbers differ run to run.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// An error type with no values: lets infallible workloads reuse
/// [`run_indexed`] via [`map_indexed`] without inventing a dummy error.
#[derive(Debug, Clone, Copy)]
pub enum Never {}

/// Resolves a requested worker count: `0` means auto-detect from
/// [`std::thread::available_parallelism`] (falling back to 1 when the
/// host does not report it), any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Per-worker accounting from one parallel run.
#[derive(Debug, Clone, Default)]
pub struct WorkerStats {
    /// Items this worker completed.
    pub points: usize,
    /// Wall-clock spent inside `work` calls, nanoseconds.
    pub busy_ns: u64,
}

/// Timing and utilization statistics of one [`run_indexed`] call.
#[derive(Debug, Clone)]
pub struct ParStats {
    /// Worker count actually used (after [`resolve_threads`] and
    /// clamping to the item count).
    pub threads: usize,
    /// End-to-end wall-clock of the whole run, nanoseconds.
    pub wall_ns: u64,
    /// Per-item wall-clock in canonical item order, nanoseconds
    /// (0 for items never run because of an abort).
    pub point_ns: Vec<u64>,
    /// Per-worker accounting, one entry per spawned worker.
    pub workers: Vec<WorkerStats>,
}

impl ParStats {
    /// Fraction of total worker capacity spent inside `work`:
    /// `sum(busy) / (threads * wall)`. 1.0 means perfectly
    /// work-bound; low values mean workers starved (too few items) or
    /// the host had fewer cores than workers.
    pub fn utilization(&self) -> f64 {
        let capacity = self.threads as f64 * self.wall_ns as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        self.workers.iter().map(|w| w.busy_ns as f64).sum::<f64>() / capacity
    }

    /// Exports the `sweep.par.*` worker-utilization metrics.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.gauge("sweep.par.threads", self.threads as f64);
        reg.gauge("sweep.par.wall_ns", self.wall_ns as f64);
        reg.gauge(
            "sweep.par.busy_ns",
            self.workers.iter().map(|w| w.busy_ns as f64).sum(),
        );
        reg.gauge("sweep.par.utilization", self.utilization());
        for w in &self.workers {
            reg.observe("sweep.par.worker_busy_ns", w.busy_ns);
            reg.observe("sweep.par.worker_points", w.points as u64);
        }
    }
}

/// Runs `work(0..n)` on `threads` workers pulling items from a shared
/// atomic index, and merges the results **in item order**.
///
/// * `progress(done, n)` is invoked exactly once per completed item
///   with a monotonically increasing completed-count (delivery is
///   serialized, so a later call always carries a larger `done`).
/// * The first error **in canonical item order** among those observed
///   wins, matching a serial loop's error; remaining workers stop
///   pulling new items as soon as any error is seen.
/// * `threads <= 1` (after [`resolve_threads`]) runs the items inline
///   on the calling thread, in order, stopping at the first error —
///   the exact serial semantics, with no thread spawned.
pub fn run_indexed<T, E, F, P>(
    n: usize,
    threads: usize,
    work: F,
    progress: &P,
) -> (Result<Vec<T>, E>, ParStats)
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
    P: Fn(usize, usize) + Sync + ?Sized,
{
    let threads = resolve_threads(threads).clamp(1, n.max(1));
    let t0 = Instant::now();
    let mut stats = ParStats {
        threads,
        wall_ns: 0,
        point_ns: vec![0; n],
        workers: vec![WorkerStats::default(); threads],
    };

    if threads == 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let p0 = Instant::now();
            match work(i) {
                Ok(v) => {
                    let dt = elapsed_ns(p0);
                    stats.point_ns[i] = dt;
                    stats.workers[0].points += 1;
                    stats.workers[0].busy_ns += dt;
                    out.push(v);
                    progress(i + 1, n);
                }
                Err(e) => {
                    stats.wall_ns = elapsed_ns(t0);
                    return (Err(e), stats);
                }
            }
        }
        stats.wall_ns = elapsed_ns(t0);
        return (Ok(out), stats);
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    // Progress delivery is serialized under this lock so the completed
    // count each observer sees is strictly increasing.
    let completed: Mutex<usize> = Mutex::new(0);

    // Per worker: its stats plus the `(canonical index, value,
    // duration)` triples it produced, merged into order below.
    type WorkerOut<T> = (WorkerStats, Vec<(usize, T, u64)>);
    let per_worker: Vec<WorkerOut<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ws = WorkerStats::default();
                    let mut items: Vec<(usize, T, u64)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let p0 = Instant::now();
                        match work(i) {
                            Ok(v) => {
                                let dt = elapsed_ns(p0);
                                ws.points += 1;
                                ws.busy_ns += dt;
                                items.push((i, v, dt));
                                let mut done = completed.lock().expect("progress lock poisoned");
                                *done += 1;
                                progress(*done, n);
                            }
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                let mut slot = first_err.lock().expect("error lock poisoned");
                                if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                                    *slot = Some((i, e));
                                }
                            }
                        }
                    }
                    (ws, items)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (w, (ws, items)) in per_worker.into_iter().enumerate() {
        stats.workers[w] = ws;
        for (i, v, dt) in items {
            stats.point_ns[i] = dt;
            slots[i] = Some(v);
        }
    }
    stats.wall_ns = elapsed_ns(t0);

    if let Some((_, e)) = first_err.into_inner().expect("error lock poisoned") {
        return (Err(e), stats);
    }
    let out: Vec<T> = slots
        .into_iter()
        .map(|s| s.expect("every item completed without error"))
        .collect();
    (Ok(out), stats)
}

/// [`run_indexed`] for infallible work: merges `work(0..n)` in item
/// order with no error channel.
pub fn map_indexed<T, F, P>(n: usize, threads: usize, work: F, progress: &P) -> (Vec<T>, ParStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize, usize) + Sync + ?Sized,
{
    let (res, stats) = run_indexed::<T, Never, _, _>(n, threads, |i| Ok(work(i)), progress);
    match res {
        Ok(v) => (v, stats),
        Err(never) => match never {},
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn merge_preserves_canonical_order_for_any_thread_count() {
        for threads in 1..=8 {
            let (out, stats) = map_indexed(100, threads, |i| i * i, &|_, _| {});
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.workers.iter().map(|w| w.points).sum::<usize>(), 100);
        }
    }

    #[test]
    fn zero_items_and_auto_detect() {
        let (out, stats) = map_indexed(0, 0, |i| i, &|_, _| {});
        assert!(out.is_empty());
        assert_eq!(stats.threads, 1, "clamped to item count");
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn first_canonical_error_wins() {
        // Items 30 and 60 fail; the canonical winner is 30 no matter
        // which worker hits which item first.
        for threads in [1, 2, 4, 8] {
            let (res, _) = run_indexed::<usize, usize, _, _>(
                100,
                threads,
                |i| if i == 30 || i == 60 { Err(i) } else { Ok(i) },
                &|_, _| {},
            );
            let err = res.expect_err("must fail");
            // Parallel schedules may reach 60 before 30 is *pulled*, but
            // never report 60 when 30 also failed; with an abort in
            // between, 30 may be the only error seen. Either way the
            // reported error index is <= 60 and == an actual failure.
            assert!(err == 30 || err == 60, "unexpected error {err}");
            if threads == 1 {
                assert_eq!(err, 30, "serial reports the first error");
            }
        }
    }

    #[test]
    fn serial_error_stops_later_work() {
        let ran = AtomicU32::new(0);
        let (res, _) = run_indexed::<(), &str, _, _>(
            10,
            1,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 3 {
                    Err("boom")
                } else {
                    Ok(())
                }
            },
            &|_, _| {},
        );
        assert!(res.is_err());
        assert_eq!(
            ran.load(Ordering::Relaxed),
            4,
            "items after the error never run"
        );
    }

    #[test]
    fn progress_is_exactly_once_and_monotonic() {
        for threads in [1, 2, 4, 7] {
            let seen = Mutex::new(Vec::new());
            let (_, _) = map_indexed(50, threads, |i| i, &|done, total| {
                seen.lock().expect("lock").push((done, total));
            });
            let seen = seen.into_inner().expect("lock");
            assert_eq!(seen.len(), 50, "threads={threads}");
            for (k, &(done, total)) in seen.iter().enumerate() {
                assert_eq!(done, k + 1, "monotonic completed-count, threads={threads}");
                assert_eq!(total, 50);
            }
        }
    }

    #[test]
    fn utilization_and_point_timings_recorded() {
        let (_, stats) = map_indexed(16, 2, |i| std::hint::black_box(i * 3), &|_, _| {});
        assert_eq!(stats.point_ns.len(), 16);
        assert!(stats.wall_ns > 0);
        let u = stats.utilization();
        assert!((0.0..=1.5).contains(&u), "utilization {u}");
        let mut reg = obs::MetricsRegistry::new();
        stats.export_metrics(&mut reg);
        assert!(reg.get("sweep.par.threads").is_some());
        assert!(reg.get("sweep.par.utilization").is_some());
        assert!(reg.get("sweep.par.worker_points").is_some());
    }
}
