//! Allocation pinning for the batch evaluation path, with a
//! [`CountingAllocator`] installed in this test binary:
//!
//! - a warm batched sweep allocates **no** statevectors — its byte cost is
//!   deterministic, measured-twice-equal, and its peak-memory window stays
//!   `O(workers · 2^n)` instead of the pre-executor `O(batch · 2^n)`;
//! - the per-circuit loop it replaced really does pay one full
//!   statevector per member (the contrast that makes the bound meaningful);
//! - a full [`ParameterShift`] gradient allocates `O(k)` bytes of job
//!   bookkeeping plus two statevectors per worker (prefix and work), not
//!   the `O(k²)` of materializing one parameter-vector copy per shifted
//!   evaluation.
//!
//! Everything shares the process-global allocator high-water mark, so it
//! runs as one sequential test function, like `alloc_profile.rs`.

use plateau_grad::{expectation, BatchExecutor, GradientEngine, ParameterShift};
use plateau_obs::alloc::{set_profiling, stats, thread_allocated, CountingAllocator};
use plateau_sim::{Circuit, Observable};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The paper's training ansatz shape: RX·RY per qubit per layer plus a CZ
/// entangling chain (built locally — this crate must not depend on
/// `plateau-core`).
fn training_shape(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n).unwrap();
    for _ in 0..layers {
        for q in 0..n {
            c.rx(q).unwrap();
            c.ry(q).unwrap();
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1).unwrap();
        }
    }
    c
}

#[test]
fn batch_path_allocation_is_flat_and_parameter_shift_is_linear() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_log_level(plateau_obs::Level::Off);
    plateau_obs::set_metrics_enabled(false);
    // Deterministic allocation stream: serial kernels, gate-by-gate
    // execution (fusion would add compile-time buffers to the window).
    plateau_sim::set_par_threshold(usize::MAX);
    plateau_sim::set_fuse(false);
    assert!(
        set_profiling(true),
        "counting allocator is installed in this binary; profiling must engage"
    );

    // The paper's ensemble shape: 10 qubits / 5 layers, 100 params,
    // 200 members. One statevector is 2^10 complex amplitudes.
    let circuit = training_shape(10, 5);
    let n_params = circuit.n_params();
    let state_bytes = (16usize << 10) as u64;
    let obs = Observable::global_cost(10);
    let members = 200usize;
    let sets: Vec<Vec<f64>> = (0..members)
        .map(|m| (0..n_params).map(|p| 0.01 * m as f64 + 0.001 * p as f64).collect())
        .collect();
    let workers = plateau_par::worker_count(members) as u64;

    let delta = |f: &mut dyn FnMut()| {
        let (b0, c0) = thread_allocated();
        f();
        let (b1, c1) = thread_allocated();
        (b1 - b0, c1 - c0)
    };

    // Warm everything once: executor scratch, knob caches, obs registry.
    let mut ex = BatchExecutor::new(&circuit);
    ex.expectation_many(&sets, &obs).unwrap();
    for set in sets.iter().take(2) {
        expectation(&circuit, set, &obs).unwrap();
    }

    // ── Satellite pin: warm batched sweeps are statevector-free. ──
    // Exactness: the identical sweep must cost identical (bytes, count)
    // and identical peak growth, twice in a row.
    let measure_batched = |ex: &mut BatchExecutor| {
        plateau_obs::alloc::reset_peak();
        let live0 = stats().live_bytes;
        let (b0, c0) = thread_allocated();
        ex.expectation_many(&sets, &obs).unwrap();
        let (b1, c1) = thread_allocated();
        (b1 - b0, c1 - c0, stats().peak_bytes.saturating_sub(live0))
    };
    let first = measure_batched(&mut ex);
    let second = measure_batched(&mut ex);
    assert_eq!(first, second, "warm batched sweep must allocate deterministically");
    let (batched_bytes, _, batched_peak) = first;

    // Peak window is O(workers · 2^n), nowhere near O(batch · 2^n).
    // Serially the sweep re-fills the one existing scratch, so its window
    // holds zero new statevectors — just the returned Vec<f64> and
    // transient observable bookkeeping, comfortably under one state.
    let peak_bound = if workers <= 1 {
        state_bytes
    } else {
        // Parallel sweeps allocate one fresh scratch per worker.
        (workers + 1) * (state_bytes + 8 * n_params as u64 + 4096)
    };
    assert!(
        batched_peak < peak_bound,
        "batched peak {batched_peak} B must stay O(workers·2^n) (< {peak_bound} B), \
         not O(batch·2^n) (= {} B)",
        members as u64 * state_bytes
    );
    assert!(
        batched_bytes < members as u64 * state_bytes / 10,
        "batched sweep allocated {batched_bytes} B — a fixed statevector pool, \
         not one state per member"
    );

    // ── Contrast: the per-circuit loop pays a full state per member. ──
    let (loop_bytes, _) = delta(&mut || {
        for set in &sets {
            expectation(&circuit, set, &obs).unwrap();
        }
    });
    assert!(
        loop_bytes >= members as u64 * state_bytes,
        "per-circuit loop allocated {loop_bytes} B; expected at least one \
         2^10 statevector per member ({} B)",
        members as u64 * state_bytes
    );

    // ── Satellite pin: ParameterShift::gradient is O(k), not O(k²). ──
    // k = 100 params → 200 shifted evaluations. Materializing a params
    // copy per evaluation (the fixed bug) costs ≥ 2k·8k = 160 kB; the
    // (index, shift)-pair representation plus two states per worker (the
    // shared unshifted prefix and the shifted evaluation's work state)
    // stays well below that.
    let params: Vec<f64> = (0..n_params).map(|p| 0.1 + 0.002 * p as f64).collect();
    ParameterShift.gradient(&circuit, &params, &obs).unwrap(); // warm
    let mut grad_run = || {
        ParameterShift.gradient(&circuit, &params, &obs).unwrap();
    };
    let (grad_bytes, grad_count) = delta(&mut grad_run);
    assert_eq!(
        (grad_bytes, grad_count),
        delta(&mut grad_run),
        "parameter-shift gradient must allocate deterministically"
    );
    let quadratic = (2 * n_params * 8 * n_params) as u64;
    let linear_bound =
        workers * (2 * state_bytes + 8 * n_params as u64) + 64 * n_params as u64 + 8192;
    assert!(
        grad_bytes < linear_bound.min(quadratic / 2),
        "gradient allocated {grad_bytes} B; O(k) bound is {linear_bound} B \
         (the old per-job copies cost ≥ {quadratic} B)"
    );

    set_profiling(false);
    plateau_sim::reset_par_threshold();
    plateau_sim::reset_fuse();
}
