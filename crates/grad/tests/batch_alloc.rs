//! Allocation pinning for the batch evaluation path, with a
//! [`CountingAllocator`] installed in this test binary:
//!
//! - a warm batched sweep allocates **no** statevectors — its byte cost is
//!   deterministic, measured-twice-equal (on one worker, its peak too),
//!   and its peak-memory window stays `O(workers · 2^n)` instead of the
//!   pre-executor `O(batch · 2^n)`;
//! - the per-circuit loop it replaced really does pay one full
//!   statevector per member (the contrast that makes the bound meaningful);
//! - a full [`ParameterShift`] gradient allocates `O(k)` bytes of job
//!   bookkeeping and two statevectors per worker (prefix and work), not
//!   the `O(k²)` of materializing one parameter-vector copy per shifted
//!   evaluation;
//! - an adjoint sweep allocates the same bytes whatever the number of CZ
//!   layers it steps back through.
//!
//! Everything shares the process-global allocator high-water mark, so it
//! runs as one sequential test function, like `alloc_profile.rs`.

use plateau_grad::{expectation, Adjoint, BatchExecutor, GradientEngine, ParameterShift};
use plateau_obs::alloc::{set_profiling, stats, thread_allocated, CountingAllocator};
use plateau_par::with_threads;
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
    plateau_obs::set_log_level(plateau_obs::Level::Off);
    plateau_obs::set_metrics_enabled(false);
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
    let pooled_workers = with_threads(2, || plateau_par::worker_count(members)) as u64;

    let delta = |f: &mut dyn FnMut()| {
        let (b0, c0) = thread_allocated();
        f();
        let (b1, c1) = thread_allocated();
        (b1 - b0, c1 - c0)
    };

    // Warm everything once, on one worker and on two: executor scratch,
    // knob caches, obs registry.
    let mut ex = BatchExecutor::new(&circuit);
    for threads in [1, 2] {
        with_threads(threads, || ex.expectation_many(&sets, &obs)).unwrap();
    }
    for set in sets.iter().take(2) {
        expectation(&circuit, set, &obs).unwrap();
    }

    // ── Satellite pin: warm batched sweeps are statevector-free. ──
    // Each measurement is the calling thread's (bytes, count) and the
    // process-wide peak growth of one sweep.
    let measure_batched = |ex: &mut BatchExecutor| {
        plateau_obs::alloc::reset_peak();
        let live0 = stats().live_bytes;
        let (b0, c0) = thread_allocated();
        ex.expectation_many(&sets, &obs).unwrap();
        let (b1, c1) = thread_allocated();
        (b1 - b0, c1 - c0, stats().peak_bytes.saturating_sub(live0))
    };
    let twice = |ex: &mut BatchExecutor| [measure_batched(ex), measure_batched(ex)];
    // On one worker the identical sweep costs the identical (bytes,
    // count, peak), twice in a row.
    let [first, second] = with_threads(1, || twice(&mut ex));
    assert_eq!(
        first, second,
        "one-worker warm batched sweep (bytes, count, peak) must repeat exactly"
    );
    // On two the caller's (bytes, count) still repeats exactly. The peak
    // is process-wide: it depends on how the workers' scratch lifetimes
    // overlap, so it is only bounded below.
    let pooled = with_threads(2, || twice(&mut ex));
    assert_eq!(
        (pooled[0].0, pooled[0].1),
        (pooled[1].0, pooled[1].1),
        "two-worker warm batched sweep (bytes, count) must repeat exactly; \
         (bytes, count, peak) were {pooled:?}"
    );

    // Peak window is O(workers · 2^n), nowhere near O(batch · 2^n).
    // Serially the sweep re-fills the one existing scratch, so its window
    // holds zero new statevectors — just the returned Vec<f64> and
    // transient observable bookkeeping, comfortably under one state.
    // Parallel sweeps allocate one fresh scratch per worker.
    let pooled_bound = (pooled_workers + 1) * (state_bytes + 8 * n_params as u64 + 4096);
    let sweeps = [(first, state_bytes), (pooled[0], pooled_bound), (pooled[1], pooled_bound)];
    for ((bytes, _, peak), bound) in sweeps {
        assert!(
            peak < bound,
            "batched peak {peak} B must stay O(workers·2^n) (< {bound} B), \
             not O(batch·2^n) (= {} B)",
            members as u64 * state_bytes
        );
        assert!(
            bytes < members as u64 * state_bytes / 10,
            "batched sweep allocated {bytes} B — a fixed statevector pool, \
             not one state per member"
        );
    }

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
    // The whole gradient — job bookkeeping and the workers' states —
    // sits under the O(k) bound.
    let quadratic = (2 * n_params * 8 * n_params) as u64;
    let linear_bound =
        workers * (2 * state_bytes + 8 * n_params as u64) + 64 * n_params as u64 + 8192;
    assert!(
        grad_bytes < linear_bound.min(quadratic / 2),
        "gradient allocated {grad_bytes} B; O(k) bound is {linear_bound} B (the old \
         per-job copies cost ≥ {quadratic} B)"
    );

    // ── Satellite pin: an adjoint sweep steps back through each CZ layer
    // in place. Layer by layer the ansatz gains one CZ layer, and the
    // sweep gains only its O(k) bookkeeping (the layer's twenty gradient
    // entries).
    let adjoint_bytes = |layers: usize| {
        let c = training_shape(10, layers);
        let params: Vec<f64> = (0..c.n_params()).map(|p| 0.1 + 0.003 * p as f64).collect();
        Adjoint.gradient(&c, &params, &obs).unwrap(); // warm
        delta(&mut || {
            Adjoint.gradient(&c, &params, &obs).unwrap();
        })
        .0
    };
    let per_layer: Vec<u64> = (1..=5).map(adjoint_bytes).collect();
    let step = per_layer[1] - per_layer[0];
    for (l, pair) in per_layer.windows(2).enumerate() {
        assert_eq!(
            pair[1] - pair[0],
            step,
            "adjoint bytes by layer {per_layer:?}: layer {} adds a different amount",
            l + 2
        );
    }
    assert_eq!(
        step,
        20 * 8,
        "each layer adds {step} B to an adjoint sweep ({per_layer:?})"
    );
    // What no layer adds: the sweep's three statevectors (φ, λ and the
    // tangent μ) plus under 1 KB.
    let fixed = per_layer[0] - step;
    assert!(
        (3 * state_bytes..3 * state_bytes + 1024).contains(&fixed),
        "an adjoint sweep holds φ, λ and μ; by layer it allocated {per_layer:?}"
    );

    set_profiling(false);
}
