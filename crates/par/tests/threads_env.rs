//! The worker count: `PLATEAU_THREADS` as the process default, and
//! `with_threads` scopes over it. Nothing here writes the environment;
//! the expected default is computed from the variable as this process
//! inherited it, so the checks hold under any `PLATEAU_THREADS`.

use plateau_par::{par_map_collect, par_map_indexed, with_threads, worker_count};
use std::thread::ThreadId;

fn hw() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `min(hw, PLATEAU_THREADS)`, parsing the variable as the crate does.
fn process_default() -> usize {
    let cap = std::env::var("PLATEAU_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(usize::MAX);
    hw().min(cap)
}

fn thread_ids(n: usize) -> Vec<ThreadId> {
    par_map_collect(0..n, |_| std::thread::current().id())
}

#[test]
fn worker_count_is_min_of_hardware_and_plateau_threads() {
    assert_eq!(worker_count(usize::MAX), process_default());
    assert_eq!(worker_count(2), process_default().min(2));
    assert_eq!(worker_count(0), 1);
}

#[test]
fn scopes_nest_and_are_restored_after_a_panic() {
    let outer = with_threads(1, || {
        assert_eq!(worker_count(usize::MAX), 1);
        with_threads(3, || assert_eq!(worker_count(usize::MAX), hw().min(3)));
        assert_eq!(worker_count(usize::MAX), 1, "the inner scope restored 1");
        with_threads(0, || assert_eq!(worker_count(usize::MAX), 1, "0 clamps to 1"));
        worker_count(usize::MAX)
    });
    assert_eq!(outer, 1);
    assert_eq!(worker_count(usize::MAX), process_default());

    let unwound = std::panic::catch_unwind(|| {
        with_threads(2, || panic!("scope boom"));
    });
    assert!(unwound.is_err());
    assert_eq!(
        worker_count(usize::MAX),
        process_default(),
        "an unwinding scope left its cap behind"
    );
}

#[test]
fn workers_inherit_the_cap() {
    let seen = with_threads(2, || par_map_indexed(8, |_| worker_count(usize::MAX)));
    assert!(seen.iter().all(|&w| w == hw().min(2)), "{seen:?}");
    // A nested call inside a worker stays under the cap too.
    let nested = with_threads(1, || par_map_indexed(4, |_| thread_ids(4)));
    let me = std::thread::current().id();
    assert!(nested.iter().flatten().all(|&id| id == me));
}

#[test]
fn a_cap_of_one_spawns_no_thread() {
    let me = std::thread::current().id();
    let ids = with_threads(1, || thread_ids(16));
    assert!(ids.iter().all(|&id| id == me), "with_threads(1) spawned workers");
    let scratch_ids = with_threads(1, || {
        plateau_par::par_map_scratch(16, || (), |(), _| std::thread::current().id())
    });
    assert!(scratch_ids.iter().all(|&id| id == me));
}
