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
//! can be capped for the whole process with the `PLATEAU_THREADS`
//! environment variable (`PLATEAU_THREADS=1` forces sequential execution,
//! useful when profiling or bisecting), read once per process. Code that
//! wants another count for one call runs it inside [`with_threads`].
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

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// This thread's [`with_threads`] cap, if a scope is open.
    static SCOPE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads a parallel call will use for `n_items`:
/// `min(available_parallelism, cap, n_items)`, at least 1, where `cap` is
/// the innermost [`with_threads`] scope on this thread, or else
/// `PLATEAU_THREADS`.
///
/// The hardware count and `PLATEAU_THREADS` are read once per process:
/// asking the OS reads cgroup files, tens of microseconds per call, and
/// the per-gate kernels of `plateau-sim` ask on every call.
pub fn worker_count(n_items: usize) -> usize {
    static LIMITS: OnceLock<(usize, usize)> = OnceLock::new();
    let (hw, env) = *LIMITS.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let env = std::env::var("PLATEAU_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(usize::MAX);
        (hw, env)
    });
    hw.min(SCOPE.get().unwrap_or(env)).min(n_items).max(1)
}

/// Runs `f` with [`worker_count`] capped at `n` (at least 1) on this
/// thread, in place of `PLATEAU_THREADS`. The workers a parallel call
/// spawns inside `f` inherit the cap, so nested calls keep it too. The
/// previous cap comes back when `f` returns or unwinds, so scopes nest.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    /// Puts the enclosing cap back, on return and on unwind alike.
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPE.set(self.0);
        }
    }
    let _restore = Restore(SCOPE.replace(Some(n.max(1))));
    f()
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Spawns up to [`worker_count`] scoped threads; each claims items from a
/// shared atomic counter, computes `f`, and writes the result into that
/// index's slot of one pre-sized result vector, so results come back in
/// input order. With one worker (or one item) no thread is spawned at all
/// and `f` runs on the caller's thread.
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
    let slots: Mutex<Vec<Option<T>>> = Mutex::new(items.into_iter().map(Some).collect());
    fork_join(n, workers, || {
        |i| {
            let item = lock(&slots)[i].take().expect("plateau-par: item claimed twice");
            run_task(&f, item)
        }
    })
}

/// Locks one of the slot vectors. A panicking task never holds the lock
/// (each update under it is one `take` or one assignment), so a poisoned
/// guard still guards valid data; the task's panic propagates from the
/// join instead.
fn lock<V>(m: &Mutex<V>) -> std::sync::MutexGuard<'_, V> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `workers` scoped threads that claim indices `0..n` from one
/// atomic counter. Each worker takes the caller's [`with_threads`] cap,
/// builds its task once with `worker()` (on its own thread) and runs it
/// on every index it claims.
///
/// Results land in one slot vector sized for all `n` up front, so no
/// allocation depends on how the workers happened to split the items,
/// and they come back in input order with no sort. Every worker is
/// joined before a panic propagates, so the scope never has to re-raise
/// a second panic while the first is unwinding.
fn fork_join<U, W, G>(n: usize, workers: usize, worker: W) -> Vec<U>
where
    U: Send,
    W: Fn() -> G + Sync,
    G: FnMut(usize) -> U,
{
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<U>>> = Mutex::new((0..n).map(|_| None).collect());
    let mut first_panic = None;
    let cap = SCOPE.get();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    SCOPE.set(cap);
                    let mut task = worker();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return;
                        }
                        plateau_obs::gauge!("par.queue_depth").set((n - (i + 1).min(n)) as f64);
                        let out = task(i);
                        lock(&results)[i] = Some(out);
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join() {
                first_panic.get_or_insert(payload);
            }
        }
    });
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    let results = results.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    results.into_iter().map(|u| u.expect("plateau-par: item never computed")).collect()
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

    fork_join(n, workers, || {
        let mut scratch = init();
        let f = &f;
        move |i| run_task_scratch(f, &mut scratch, i)
    })
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
