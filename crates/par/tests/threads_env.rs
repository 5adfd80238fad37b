//! `worker_count` caches the hardware count but not `PLATEAU_THREADS`.
//! The test sets the variable, so it lives in a binary of its own where
//! no other test reads it meanwhile.

use plateau_par::{par_map_collect, worker_count};

#[test]
fn a_plateau_threads_change_after_the_first_call_takes_effect() {
    std::env::remove_var("PLATEAU_THREADS");
    let hw = worker_count(usize::MAX);
    assert!(hw >= 1);

    std::env::set_var("PLATEAU_THREADS", "1");
    assert_eq!(worker_count(usize::MAX), 1);
    // One worker: every item runs on the calling thread.
    let me = std::thread::current().id();
    let ids = par_map_collect(0..16, |_| std::thread::current().id());
    assert!(
        ids.iter().all(|&id| id == me),
        "PLATEAU_THREADS=1 still spawned workers"
    );

    std::env::set_var("PLATEAU_THREADS", "3");
    assert_eq!(worker_count(usize::MAX), hw.min(3));
    assert_eq!(worker_count(2), hw.min(2));

    std::env::remove_var("PLATEAU_THREADS");
    assert_eq!(worker_count(usize::MAX), hw);
}
