//! # plateau-par
//!
//! Minimal scoped fork-join parallelism for the plateau stack, replacing
//! the `rayon` dependency with `std::thread::scope`.
//!
//! The workspace has exactly one parallelism shape: embarrassingly
//! parallel fan-out over an ensemble (e.g. 200 gradient samples per
//! variance-scan cell), where every task derives its own RNG seed so the
//! result is independent of scheduling. [`par_map_collect`] covers that
//! shape: an ordered parallel map with dynamic (atomic-counter) load
//! balancing.
//!
//! Design notes:
//!
//! - **Scoped, not pooled.** Each call spawns its workers inside a
//!   `std::thread::scope` and joins them before returning. There is no
//!   global pool, hence no shared queue — nested calls simply spawn their
//!   own scope and cannot deadlock.
//! - **Ordered.** Results come back in input order regardless of which
//!   worker ran which item, so seeded experiments stay reproducible.
//! - **Dynamic scheduling.** Workers claim items one at a time from an
//!   atomic counter; uneven per-item cost (larger circuits are slower)
//!   balances automatically.
//!
//! The worker count defaults to the machine's available parallelism and
//! can be capped with the `PLATEAU_THREADS` environment variable
//! (`PLATEAU_THREADS=1` forces sequential execution, useful when
//! profiling or bisecting).
//!
//! # Examples
//!
//! ```
//! use plateau_par::par_map_collect;
//!
//! let squares = par_map_collect(0..8u64, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of worker threads a parallel call will use for `n_items`:
/// `min(available_parallelism, PLATEAU_THREADS, n_items)`, at least 1.
///
/// The hardware count is read once per process: asking the OS reads
/// cgroup files, tens of microseconds per call, and the per-gate kernels
/// of `plateau-sim` ask on every call. `PLATEAU_THREADS` is re-read on
/// every call (a fraction of a microsecond), so a change to it takes
/// effect at the next call.
pub fn worker_count(n_items: usize) -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    let hw = *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let cap = std::env::var("PLATEAU_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(usize::MAX);
    hw.min(cap).min(n_items).max(1)
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Spawns up to [`worker_count`] scoped threads; each claims items from a
/// shared atomic counter, computes `f`, and stashes `(index, result)`
/// locally. After the join, results are reassembled in input order. With
/// one worker (or one item) no thread is spawned at all and `f` runs on
/// the caller's thread.
///
/// `f` may itself call `par_map_collect`: nested calls open their own
/// scope, so there is no pool to exhaust and no deadlock.
///
/// # Panics
///
/// If `f` panics on any item, the panic is propagated to the caller after
/// all workers have stopped.
pub fn par_map_collect<I, T, U, F>(items: I, f: F) -> Vec<U>
where
    I: IntoIterator<Item = T>,
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let items: Vec<T> = items.into_iter().collect();
    let n = items.len();
    let workers = worker_count(n);
    plateau_obs::counter!("par.batches").inc();
    plateau_obs::gauge!("par.workers").set(workers as f64);
    if workers <= 1 {
        return items.into_iter().map(|item| run_task(&f, item)).collect();
    }

    // Hand items out through a Mutex<Vec<Option<T>>>: the atomic counter
    // assigns indices, the mutex slot transfers ownership of the item.
    // Contention is negligible against the per-item work this crate is
    // used for (circuit simulation, not arithmetic).
    let slots: Vec<Option<T>> = items.into_iter().map(Some).collect();
    let slots = Mutex::new(slots);
    let next = AtomicUsize::new(0);

    let mut buckets: Vec<Vec<(usize, U)>> = Vec::with_capacity(workers);
    let mut first_panic = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return local;
                    }
                    plateau_obs::gauge!("par.queue_depth").set((n - (i + 1).min(n)) as f64);
                    let item = slots
                        .lock()
                        .expect("plateau-par: a sibling worker panicked")[i]
                        .take()
                        .expect("plateau-par: item claimed twice");
                    local.push((i, run_task(&f, item)));
                }
            }));
        }
        // Join every worker before propagating, so the scope never has to
        // re-raise a second panic while the first is unwinding.
        for h in handles {
            match h.join() {
                Ok(local) => buckets.push(local),
                Err(payload) if first_panic.is_none() => first_panic = Some(payload),
                Err(_) => {}
            }
        }
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }

    reassemble(buckets, n)
}

/// Puts the workers' `(index, result)` buckets back in input order.
///
/// The pair vector is sized for all `n` results up front: collecting the
/// flattened buckets would size it from the first bucket and grow it from
/// there, so the caller thread's allocations would depend on how the
/// workers happened to split the items.
fn reassemble<U>(buckets: Vec<Vec<(usize, U)>>, n: usize) -> Vec<U> {
    let mut pairs: Vec<(usize, U)> = Vec::with_capacity(n);
    for bucket in buckets {
        pairs.extend(bucket);
    }
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, u)| u).collect()
}

/// Runs one task, bumping `par.tasks` and (when metrics are on) timing it
/// into the `par.task_ns` histogram. The clock is only read while metrics
/// are enabled, so the disabled path adds a single load + branch per item.
#[inline]
fn run_task<T, U>(f: &impl Fn(T) -> U, item: T) -> U {
    plateau_obs::counter!("par.tasks").inc();
    if plateau_obs::metrics_enabled() {
        let t0 = std::time::Instant::now();
        let out = f(item);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        plateau_obs::histogram!("par.task_ns").record(ns);
        out
    } else {
        f(item)
    }
}

/// Runs `f` over `0..n` in parallel — the index-based convenience form
/// used by the ensemble harnesses.
///
/// # Examples
///
/// ```
/// let doubled = plateau_par::par_map_indexed(4, |i| 2 * i);
/// assert_eq!(doubled, vec![0, 2, 4, 6]);
/// ```
pub fn par_map_indexed<U: Send, F: Fn(usize) -> U + Sync>(n: usize, f: F) -> Vec<U> {
    par_map_collect(0..n, f)
}

/// Like [`par_map_indexed`], but each worker owns a reusable **scratch
/// value** built once by `init` and threaded through every item that
/// worker claims — the allocation shape batched circuit evaluation needs
/// (one statevector per worker, not one per ensemble member).
///
/// `init` runs on the worker's own thread (at most [`worker_count`]
/// times; exactly once on the serial path), so the scratch value never
/// crosses threads and needs no `Send` bound. Results come back in input
/// order, and the same counters/gauges as [`par_map_collect`] are
/// emitted (`par.batches`, `par.tasks`, `par.workers`,
/// `par.queue_depth`).
///
/// **Determinism contract:** `f` must fully determine its output from
/// `(scratch-after-init-or-any-prior-item, index)` by overwriting — not
/// accumulating into — the scratch; then the output is independent of
/// which worker ran which item and of the worker count.
///
/// # Panics
///
/// If `init` or `f` panics, the panic is propagated to the caller after
/// all workers have stopped.
///
/// # Examples
///
/// ```
/// // One reusable buffer per worker instead of one per item.
/// let sums = plateau_par::par_map_scratch(
///     4,
///     || vec![0u64; 8],
///     |buf, i| {
///         for (k, slot) in buf.iter_mut().enumerate() {
///             *slot = (i as u64) * k as u64;
///         }
///         buf.iter().sum::<u64>()
///     },
/// );
/// assert_eq!(sums, vec![0, 28, 56, 84]);
/// ```
pub fn par_map_scratch<S, U, FI, F>(n: usize, init: FI, f: F) -> Vec<U>
where
    U: Send,
    FI: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> U + Sync,
{
    let workers = worker_count(n);
    plateau_obs::counter!("par.batches").inc();
    plateau_obs::gauge!("par.workers").set(workers as f64);
    if workers <= 1 {
        let mut scratch = init();
        return (0..n).map(|i| run_task_scratch(&f, &mut scratch, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, U)>> = Vec::with_capacity(workers);
    let mut first_panic = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(|| {
                let mut scratch = init();
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return local;
                    }
                    plateau_obs::gauge!("par.queue_depth").set((n - (i + 1).min(n)) as f64);
                    local.push((i, run_task_scratch(&f, &mut scratch, i)));
                }
            }));
        }
        // Join every worker before propagating, so the scope never has to
        // re-raise a second panic while the first is unwinding.
        for h in handles {
            match h.join() {
                Ok(local) => buckets.push(local),
                Err(payload) if first_panic.is_none() => first_panic = Some(payload),
                Err(_) => {}
            }
        }
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }

    reassemble(buckets, n)
}

/// [`run_task`] for the scratch-threading form: same `par.tasks` counter
/// and optional `par.task_ns` timing, with the worker's scratch passed
/// through.
#[inline]
fn run_task_scratch<S, U>(f: &impl Fn(&mut S, usize) -> U, scratch: &mut S, i: usize) -> U {
    plateau_obs::counter!("par.tasks").inc();
    if plateau_obs::metrics_enabled() {
        let t0 = std::time::Instant::now();
        let out = f(scratch, i);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        plateau_obs::histogram!("par.task_ns").record(ns);
        out
    } else {
        f(scratch, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn matches_sequential_map_over_1000_items() {
        let items: Vec<u64> = (0..1_000).collect();
        let expected: Vec<u64> = items.iter().map(|&i| i.wrapping_mul(i) ^ 0xabcd).collect();
        let got = par_map_collect(items, |i| i.wrapping_mul(i) ^ 0xabcd);
        assert_eq!(got, expected);
    }

    #[test]
    fn results_are_in_input_order_under_skewed_workloads() {
        // Early items sleep, late items return instantly: completion order
        // is the reverse of input order, output order must not be.
        let got = par_map_indexed(32, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn nested_invocation_does_not_deadlock() {
        let table = par_map_indexed(8, |i| par_map_indexed(8, move |j| i * 8 + j));
        for (i, row) in table.iter().enumerate() {
            assert_eq!(*row, (i * 8..i * 8 + 8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = par_map_collect(Vec::<u32>::new(), |x| x + 1);
        assert!(empty.is_empty());
        assert_eq!(par_map_collect(vec![41u32], |x| x + 1), vec![42]);
    }

    #[test]
    fn non_copy_items_are_moved_into_the_closure() {
        let items: Vec<String> = (0..100).map(|i| format!("item-{i}")).collect();
        let got = par_map_collect(items, |s| s.len());
        assert_eq!(got.len(), 100);
        assert_eq!(got[7], "item-7".len());
    }

    #[test]
    fn result_collection_short_circuits_errors_like_the_harness_does() {
        // The variance harness maps to Result and collects afterward; make
        // sure the pattern composes.
        let out: Result<Vec<usize>, String> =
            par_map_indexed(100, |i| if i == 63 { Err(format!("boom at {i}")) } else { Ok(i) })
                .into_iter()
                .collect();
        assert_eq!(out.unwrap_err(), "boom at 63");
    }

    #[test]
    fn actually_runs_on_multiple_threads_when_available() {
        if worker_count(64) < 2 {
            return; // single-core CI — nothing to assert
        }
        let seen_other_thread = AtomicBool::new(false);
        let caller = std::thread::current().id();
        par_map_indexed(64, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            if std::thread::current().id() != caller {
                seen_other_thread.store(true, Ordering::Relaxed);
            }
        });
        assert!(seen_other_thread.load(Ordering::Relaxed));
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        par_map_indexed(16, |i| {
            if i == 5 {
                panic!("worker boom");
            }
            i
        });
    }

    #[test]
    fn scratch_map_matches_indexed_map() {
        let expected = par_map_indexed(257, |i| (i as u64).wrapping_mul(31) ^ 7);
        let got = par_map_scratch(
            257,
            || 0u64,
            |scratch, i| {
                *scratch = (i as u64).wrapping_mul(31) ^ 7;
                *scratch
            },
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn scratch_is_initialized_at_most_once_per_worker() {
        use std::sync::atomic::AtomicUsize;
        let inits = AtomicUsize::new(0);
        let out = par_map_scratch(
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                Vec::<usize>::with_capacity(4)
            },
            |buf, i| {
                buf.clear();
                buf.push(i);
                buf[0]
            },
        );
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        let n_inits = inits.load(Ordering::Relaxed);
        assert!(n_inits >= 1, "at least one scratch");
        assert!(
            n_inits <= worker_count(64),
            "{n_inits} inits exceeds the worker count {}",
            worker_count(64)
        );
    }

    #[test]
    fn scratch_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = par_map_scratch(0, || (), |(), i| i as u32);
        assert!(empty.is_empty());
        assert_eq!(par_map_scratch(1, || 5u32, |s, i| *s + i as u32), vec![5]);
    }

    #[test]
    #[should_panic(expected = "scratch boom")]
    fn scratch_worker_panic_propagates() {
        par_map_scratch(
            16,
            || (),
            |(), i| {
                if i == 3 {
                    panic!("scratch boom");
                }
                i
            },
        );
    }

    #[test]
    fn worker_count_respects_item_count() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000) >= 1);
    }
}
