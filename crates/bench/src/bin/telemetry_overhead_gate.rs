//! CI gate for the gradient-dynamics telemetry in the training loop and
//! the allocation profiler's off-path: recording must be cheap when on
//! and invisible when off.
//!
//! Four checks, any failure exits non-zero:
//!
//! 1. **Allocation parity.** Counted through the shared
//!    [`plateau_obs::alloc::CountingAllocator`], `train_instrumented`
//!    with telemetry disabled performs exactly as many heap allocations
//!    as the plain `train` baseline — the disabled telemetry path is
//!    allocation-free.
//! 2. **Steady-state.** With telemetry disabled, the per-iteration
//!    allocation count is constant: growing the iteration budget adds a
//!    fixed number of allocations per extra step, so no per-step telemetry
//!    state accumulates behind the knob.
//! 3. **Wall overhead.** Interleaved repetitions of the same training run
//!    with series recording on and off; the on/off median ratio must stay
//!    below `PLATEAU_TELEMETRY_OVERHEAD_FACTOR` (default 1.02, i.e. < 2%).
//! 4. **Profiler off-path.** Disabled spans allocate exactly zero bytes
//!    even with the counting allocator live, and training with the
//!    profiler enabled vs disabled stays within
//!    `PLATEAU_ALLOC_OVERHEAD_FACTOR` (default 1.05) — the per-allocation
//!    bookkeeping is a handful of relaxed atomics, not a slowdown.

use plateau_core::ansatz::training_ansatz;
use plateau_core::cost::CostKind;
use plateau_core::init::InitStrategy;
use plateau_core::optim::Adam;
use plateau_core::train::{
    train, train_instrumented, BarrenPlateauAlarm, TrainRun, TrainTelemetry,
};
use plateau_grad::Adjoint;
use plateau_obs::alloc::{allocation_count, set_profiling, stats, CountingAllocator};
use plateau_rng::rngs::StdRng;
use plateau_rng::SeedableRng;
use std::time::Instant;

/// The bench *library* forbids `unsafe`; this standalone gate binary is
/// the one place the allocator seam is installed for CI.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Workload {
    circuit: plateau_sim::Circuit,
    observable: plateau_sim::Observable,
    theta0: Vec<f64>,
    params_per_layer: usize,
}

fn workload(qubits: usize, layers: usize) -> Workload {
    let ansatz = training_ansatz(qubits, layers).expect("ansatz");
    let mut rng = StdRng::seed_from_u64(7);
    let theta0 = InitStrategy::XavierNormal
        .sample_params(&ansatz.shape, plateau_core::init::FanMode::TensorShape, &mut rng)
        .expect("init");
    Workload {
        circuit: ansatz.circuit,
        observable: CostKind::Global.observable(qubits),
        theta0,
        params_per_layer: ansatz.shape.params_per_layer(),
    }
}

fn run_instrumented(w: &Workload, iterations: usize, record: bool) -> TrainRun {
    let mut adam = Adam::new(0.1).expect("adam");
    let telemetry = TrainTelemetry {
        params_per_layer: Some(w.params_per_layer),
        // No decimation in the measured window: capacity covers every row.
        series_capacity: iterations.max(2),
        record_series: record,
    };
    train_instrumented(
        &w.circuit,
        &w.observable,
        w.theta0.clone(),
        &mut adam,
        iterations,
        &Adjoint,
        &BarrenPlateauAlarm::default(),
        telemetry,
    )
    .expect("train")
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn factor_env(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    // The gate measures the telemetry seam itself: metrics registry off,
    // single-threaded so allocation counts are deterministic.
    std::env::remove_var("PLATEAU_METRICS");
    std::env::remove_var("PLATEAU_METRICS_OUT");
    plateau_obs::set_log_level(plateau_obs::Level::Off);
    plateau_obs::set_metrics_enabled(false);
    plateau_par::with_threads(1, gate);
}

/// The checks, run on one worker.
fn gate() {
    assert!(
        set_profiling(true),
        "the counting allocator is installed in this binary; profiling must engage"
    );

    let w = workload(6, 4);

    // Warm up every lazy path (pool, knob caches, allocator pools) at the
    // same iteration counts the checks below measure, so first-use state
    // isn't charged to whichever arm happens to run first.
    for n in [20usize, 40, 60] {
        run_instrumented(&w, n, false);
    }
    run_instrumented(&w, 20, true);
    train(&w.circuit, &w.observable, w.theta0.clone(), &mut Adam::new(0.1).unwrap(), 20)
        .expect("train");

    // Check 1: telemetry-off and the plain baseline allocate identically.
    let count = |f: &dyn Fn()| {
        let before = allocation_count();
        f();
        allocation_count() - before
    };
    let iters = 20usize;
    let plain = count(&|| {
        train(&w.circuit, &w.observable, w.theta0.clone(), &mut Adam::new(0.1).unwrap(), iters)
            .map(|_| ())
            .expect("train");
    });
    let disabled = count(&|| {
        run_instrumented(&w, iters, false);
    });
    println!("# allocations over {iters} iterations: plain {plain}, telemetry-off {disabled}");
    assert_eq!(
        disabled, plain,
        "telemetry-off training must be allocation-free relative to the baseline"
    );

    // Check 2: the disabled path's marginal allocations per iteration are
    // constant — nothing accumulates per step behind the telemetry knob.
    let at = |n: usize| count(&|| {
        run_instrumented(&w, n, false);
    });
    let (a20, a40, a60) = (at(20), at(40), at(60));
    println!("# telemetry-off allocations: 20 iters {a20}, 40 iters {a40}, 60 iters {a60}");
    assert_eq!(
        a40 - a20,
        a60 - a40,
        "per-iteration allocation count must be constant with telemetry off"
    );

    // Check 3: series recording costs < 2% wall time on the training step.
    // Profiling stays on in both arms, so its bookkeeping cancels out —
    // the same state the old always-counting allocator measured in.
    // Each repeat runs both arms back to back and contributes one paired
    // on/off ratio; the median of those ratios is immune to the slow
    // drift (CPU frequency, noisy neighbors) that contaminates a ratio
    // of independent medians on a shared host.
    let factor = factor_env("PLATEAU_TELEMETRY_OVERHEAD_FACTOR", 1.02);
    let (bench_iters, repeats) = (40usize, 21usize);
    let mut ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t = Instant::now();
        run_instrumented(&w, bench_iters, false);
        let off = t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        run_instrumented(&w, bench_iters, true);
        ratios.push(t.elapsed().as_nanos() as f64 / off);
    }
    let ratio = median(&mut ratios);
    let verdict = if ratio <= factor { "ok" } else { "REGRESSION" };
    println!(
        "# recording-on/off paired median over {repeats} repeats: x{ratio:.4} (limit x{factor:.2}) {verdict}"
    );
    if ratio > factor {
        eprintln!(
            "telemetry overhead gate FAILED: series recording costs {:.2}% (limit {:.2}%)",
            (ratio - 1.0) * 100.0,
            (factor - 1.0) * 100.0
        );
        std::process::exit(1);
    }

    // Check 4a: the span off-path is allocation-free. Metrics and the
    // JSONL sink are off, so these spans take the disabled early-return —
    // which must not touch the heap even while the profiler is counting.
    let before = allocation_count();
    for _ in 0..10_000 {
        let _s = plateau_obs::span!("gate.noop");
    }
    let span_allocs = allocation_count() - before;
    println!("# 10000 disabled spans allocated {span_allocs} time(s)");
    assert_eq!(span_allocs, 0, "disabled spans must not allocate");

    // Check 4b: counting itself (a few relaxed atomics per allocation)
    // must not measurably slow the training step: paired profiler-on /
    // profiler-off ratios, same protocol as check 3.
    let alloc_factor = factor_env("PLATEAU_ALLOC_OVERHEAD_FACTOR", 1.05);
    let mut prof_ratios = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        set_profiling(false);
        let t = Instant::now();
        run_instrumented(&w, bench_iters, false);
        let off = t.elapsed().as_nanos() as f64;
        set_profiling(true);
        let t = Instant::now();
        run_instrumented(&w, bench_iters, false);
        prof_ratios.push(t.elapsed().as_nanos() as f64 / off);
    }
    let prof_ratio = median(&mut prof_ratios);
    let verdict = if prof_ratio <= alloc_factor { "ok" } else { "REGRESSION" };
    println!(
        "# profiler-on/off paired median over {repeats} repeats: x{prof_ratio:.4} (limit x{alloc_factor:.2}) {verdict}"
    );
    if prof_ratio > alloc_factor {
        eprintln!(
            "alloc profiler overhead gate FAILED: counting costs {:.2}% (limit {:.2}%)",
            (prof_ratio - 1.0) * 100.0,
            (alloc_factor - 1.0) * 100.0
        );
        std::process::exit(1);
    }

    let s = stats();
    println!(
        "# profiler totals: {} allocation(s), {} byte(s) cumulative, peak footprint {}",
        s.count,
        s.bytes,
        plateau_obs::alloc::fmt_bytes(s.peak_bytes)
    );
    println!("# telemetry overhead gate passed");
}
