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
//! `Vec<T>` for every `threads` value.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

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
pub fn run_indexed<T, E, F, P>(n: usize, threads: usize, work: F, progress: &P) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
    P: Fn(usize, usize) + Sync + ?Sized,
{
    let threads = resolve_threads(threads).clamp(1, n.max(1));

    if threads == 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(work(i)?);
            progress(i + 1, n);
        }
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    // Progress delivery is serialized under this lock so the completed
    // count each observer sees is strictly increasing.
    let completed: Mutex<usize> = Mutex::new(0);

    // Per worker: the `(canonical index, value)` pairs it produced,
    // merged into order below.
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut items: Vec<(usize, T)> = Vec::new();
                    loop {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match work(i) {
                            Ok(v) => {
                                items.push((i, v));
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
                    items
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
    for (i, v) in per_worker.into_iter().flatten() {
        slots[i] = Some(v);
    }

    if let Some((_, e)) = first_err.into_inner().expect("error lock poisoned") {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.expect("every item completed without error"))
        .collect())
}

/// [`run_indexed`] for infallible work: merges `work(0..n)` in item
/// order with no error channel.
pub fn map_indexed<T, F, P>(n: usize, threads: usize, work: F, progress: &P) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    P: Fn(usize, usize) + Sync + ?Sized,
{
    match run_indexed::<T, Never, _, _>(n, threads, |i| Ok(work(i)), progress) {
        Ok(v) => v,
        Err(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn merge_preserves_canonical_order_for_any_thread_count() {
        for threads in 1..=8 {
            let out = map_indexed(100, threads, |i| i * i, &|_, _| {});
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_items_and_auto_detect() {
        let out = map_indexed(0, 0, |i| i, &|_, _| {});
        assert!(out.is_empty());
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn first_canonical_error_wins() {
        // Items 30 and 60 fail; the canonical winner is 30 no matter
        // which worker hits which item first.
        for threads in [1, 2, 4, 8] {
            let res = run_indexed::<usize, usize, _, _>(
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
        let res = run_indexed::<(), &str, _, _>(
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
            map_indexed(50, threads, |i| i, &|done, total| {
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
}
