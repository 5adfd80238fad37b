//! CI gate for the gradient execution layer at the paper's training
//! workload: the parameter-shift gradient, whose shifted runs share each
//! parameter's unshifted prefix, must beat a per-job evaluation loop, and
//! the pooled gradient must not be slower than the single-worker one.
//!
//! The workload is the paper's training configuration — a 10-qubit,
//! 5-layer RX·RY + CZ-chain ansatz (100 parameters), whose full
//! parameter-shift gradient costs 200 independent shifted-circuit
//! evaluations — against the **local** cost: on the paper's global cost
//! the gradient takes the serial rank-one walk instead (one backward walk
//! shares every suffix), which has neither prefixes nor a pool to
//! measure. That walk is the `overlap` arm, on the global cost: recorded,
//! not gated.
//!
//! Three gated variants are measured by the shared harness: `raw` is the
//! textbook per-job loop over the public op-list API (one
//! `Circuit::run` plus one observable read-out per shifted evaluation,
//! on the caller's thread); `fused` is `ParameterShift::gradient` — which
//! shares each parameter's unshifted prefix, so every shifted run walks
//! only its suffix — inside `plateau_par::with_threads(1, …)`; and `parallel` is the same
//! gradient with the pool sized from the machine. Both arms run the same
//! op-list kernels (CZ layers, the `|0…0⟩` prologue), so the `fused` arm
//! measures prefix sharing alone; its name and `PLATEAU_SIM_FUSE_TOL` are
//! kept from when it also measured a circuit compiler. That gate runs on
//! any machine: the fused median must beat `raw / PLATEAU_SIM_FUSE_TOL`
//! (default 2.0). On a multi-core machine the
//! parallel gate fails (exit 1) when the parallel median exceeds `fused ×
//! PLATEAU_SIM_PAR_TOL` (default 1.10 — parallel must at least break
//! even, with a 10% jitter allowance); on a single-core machine that
//! comparison is vacuous and passes with a note.
//!
//! Run with `--record` to also write the measurement to
//! `benchmarks/BENCH_sim_parallel.json` (the committed baseline).

use plateau_bench::harness::{black_box, Harness};
use plateau_core::ansatz::training_ansatz;
use plateau_core::cost::CostKind;
use plateau_grad::{GradientEngine, ParameterShift};
use std::f64::consts::FRAC_PI_2;

fn main() {
    if std::env::args().any(|a| a == "--record") {
        std::env::set_var("PLATEAU_BENCH_JSON", "benchmarks/BENCH_sim_parallel.json");
    }

    let (n_qubits, layers) = (10usize, 5usize);
    let ansatz = training_ansatz(n_qubits, layers).expect("training ansatz");
    let obs = CostKind::Local.observable(n_qubits);
    let global = CostKind::Global.observable(n_qubits);
    // Fixed, structured parameters: values only move the amplitudes, not
    // the work, so any deterministic vector measures the same thing.
    let params: Vec<f64> = (0..ansatz.circuit.n_params())
        .map(|i| 0.1 + 0.01 * i as f64)
        .collect();

    println!(
        "# workload: {n_qubits} qubits, {layers} layers, {} params -> {} shifted evaluations",
        ansatz.circuit.n_params(),
        2 * ansatz.circuit.n_params()
    );

    let mut h = Harness::new("sim_parallel_gate");
    h.config("qubits", plateau_bench::json::Json::from(n_qubits));
    h.config("layers", plateau_bench::json::Json::from(layers));
    h.config(
        "workers",
        plateau_bench::json::Json::from(plateau_par::worker_count(usize::MAX)),
    );
    h.note(
        "per-gate threading crossover (par_crossover bin, three scans, 2 cores): \
         forced-parallel kernels ran at 0.01x serial at the paper's 10q, \
         0.36-0.46x at 16q, 0.46-0.71x at 17q and a median 0.86x at 18q, and \
         first won at 19q (median 1.25x) — DEFAULT_PAR_THRESHOLD=19 keeps \
         every paper size serial; the parallel arm here fans whole shifted \
         evaluations across the pool instead",
    );
    let mut group = h.group("training_step");
    group.sample_size(10);
    // Raw: the two-term rule as a per-job loop, every shifted evaluation
    // a gate-by-gate run from |0…0⟩ on the caller's thread.
    group.bench("raw", || {
        let circuit = black_box(&ansatz.circuit);
        let mut theta = black_box(&params).clone();
        let mut grad = vec![0.0; theta.len()];
        for i in 0..theta.len() {
            for (shift, coeff) in [(FRAC_PI_2, 0.5), (-FRAC_PI_2, -0.5)] {
                theta[i] += shift;
                let state = circuit.run(&theta).expect("run");
                grad[i] += coeff * obs.expectation(&state).expect("expectation");
                theta[i] = params[i];
            }
        }
        grad
    });
    // Prefix sharing, one worker: all 200 shifted evaluations resume
    // from their parameter's shared unshifted prefix.
    plateau_par::with_threads(1, || {
        group.bench("fused", || {
            ParameterShift
                .gradient(black_box(&ansatz.circuit), black_box(&params), &obs)
                .expect("gradient")
        })
    });
    group.bench("parallel", || {
        ParameterShift
            .gradient(black_box(&ansatz.circuit), black_box(&params), &obs)
            .expect("gradient")
    });
    // The paper's global cost: one backward walk per gradient, serial.
    group.bench("overlap", || {
        ParameterShift
            .gradient(black_box(&ansatz.circuit), black_box(&params), &global)
            .expect("gradient")
    });
    let reports = h.finish();

    let median_of = |id: &str| {
        reports
            .iter()
            .find(|r| r.name == format!("training_step/{id}"))
            .unwrap_or_else(|| panic!("missing report {id}"))
            .median_ns
    };
    let raw = median_of("raw");
    let fused = median_of("fused");
    let parallel = median_of("parallel");
    let overlap = median_of("overlap");
    let workers = plateau_par::worker_count(usize::MAX);
    println!(
        "# fused {:.0} ns (1 worker) vs parallel {:.0} ns on {workers} worker(s): speedup x{:.2}",
        fused,
        parallel,
        fused / parallel
    );
    println!(
        "# raw {:.0} ns vs fused {:.0} ns (1 worker): speedup x{:.2}",
        raw,
        fused,
        raw / fused
    );
    println!("# overlap (global cost, rank-one walk) {overlap:.0} ns, not gated");

    // Fusion gate: independent of worker count — both sides run on one
    // worker.
    let fuse_tol: f64 = std::env::var("PLATEAU_SIM_FUSE_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);
    if fused * fuse_tol > raw {
        eprintln!(
            "sim fusion gate FAILED: fused median {fused:.0} ns is less than \
             {fuse_tol}x faster than raw {raw:.0} ns"
        );
        std::process::exit(1);
    }
    println!("# sim fusion gate passed (required x{fuse_tol})");

    if workers < 2 {
        println!("# sim parallel gate skipped: single worker, nothing to compare");
        return;
    }
    let tol: f64 = std::env::var("PLATEAU_SIM_PAR_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.10);
    if parallel > fused * tol {
        eprintln!(
            "sim parallel gate FAILED: parallel median {parallel:.0} ns exceeds \
             fused one-worker {fused:.0} ns x tolerance {tol}"
        );
        std::process::exit(1);
    }
    println!("# sim parallel gate passed");
}
