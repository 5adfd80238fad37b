//! Exact pins on the process-global `sim.*` and `grad.*` counters. Any
//! other test running beside them would add to the counts, so they live
//! in this binary of their own and serialize on
//! [`plateau_obs::test_lock`] with each other.

use plateau_grad::{BatchExecutor, GradientEngine, ParameterShift};
use plateau_sim::{Circuit, Observable};

/// The paper's training ansatz shape (§IV-D): per layer RX·RY on every
/// wire, then a CZ chain.
fn training_shape(n: usize, layers: usize) -> Circuit {
    let mut c = Circuit::new(n).unwrap();
    for _ in 0..layers {
        for q in 0..n {
            c.rx(q).unwrap().ry(q).unwrap();
        }
        for q in 0..n - 1 {
            c.cz(q, q + 1).unwrap();
        }
    }
    c
}

fn count(name: &str) -> u64 {
    plateau_obs::snapshot().counter(name).unwrap_or(0)
}

/// The `sim.gate.*` forward applications, whichever kernel runs them:
/// the prologue's folded rotations and each CZ layer's CZs included.
fn gates() -> u64 {
    [
        "sim.gate.rotation",
        "sim.gate.fixed",
        "sim.gate.controlled_rotation",
        "sim.gate.two_qubit_rotation",
    ]
    .iter()
    .map(|name| count(name))
    .sum()
}

/// One parameter-shift gradient of the paper's §IV-D ansatz (10 qubits,
/// 5 layers: N = 145 gates, k = 100 parameters) on the local cost, which
/// takes the prefix path, counted through the `sim.gate.*` counters.
#[test]
fn raw_shift_gradient_gate_count_is_pinned() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    // Per layer, RX·RY on each wire (ops 29l … 29l + 19, one parameter
    // each) then a 9-gate CZ chain.
    let c = training_shape(10, 5);
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.0).collect();
    let obs = Observable::local_cost(10);
    let n = c.ops().len() as u64;
    // Each of θ_i's two shifted runs resumes at θ_i's cut — its gate p_i,
    // or 0 for layer 0, whose rotations are the prologue — and runs the
    // suffix: Σ 2·(N − cut_i) = 15,880 gates.
    let prologue = c.prologue_len();
    assert_eq!(prologue, 20);
    let suffixes: u64 = (0..c.n_params())
        .map(|i| c.op_of_param(i).unwrap())
        .map(|p| 2 * (n - if p < prologue { 0 } else { p as u64 }))
        .sum();
    assert_eq!(suffixes, 15_880);
    // The prefix walks: the sweep splits the 100 parameters into 8 chunks
    // of roughly equal suffix cost (≈ 15,880 / 8 each). The first holds
    // layer 0's 40 runs, which need no prefix; the last cuts of the other
    // seven fall at ops 29, 30, 38, 48, 69, 93 and 135. Each walks its own
    // prefix from |0…0⟩ up to its last cut, so the walks cost
    // 29 + 30 + 38 + 48 + 69 + 93 + 135 = 442 gates. The plan depends only
    // on the circuit, so the total holds for every thread count.
    let prefix_walks = 442u64;
    for threads in [1, 2, 4] {
        let (gates_before, execs_before) = (gates(), count("grad.executions.parameter_shift"));
        plateau_par::with_threads(threads, || ParameterShift.gradient(&c, &params, &obs))
            .unwrap();
        assert_eq!(gates() - gates_before, suffixes + prefix_walks, "threads={threads}");
        // Executions count evaluations, not gates: still 2k.
        assert_eq!(
            count("grad.executions.parameter_shift") - execs_before,
            2 * c.n_params() as u64,
            "threads={threads}"
        );
    }
    plateau_obs::set_metrics_enabled(false);
}

/// The same gradient on the paper's global cost, a rank-one observable:
/// one backward walk serves all 2k shifted evaluations.
#[test]
fn rank_one_shift_gradient_gate_count_is_pinned() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    let c = training_shape(10, 5);
    let params: Vec<f64> = (0..c.n_params()).map(|i| 0.05 * i as f64 - 1.0).collect();
    let n = c.ops().len() as u64;
    let k = c.n_params() as u64;
    // The walk runs φ forward to the last parameter's op, P = 135 (layer
    // 4's last RY), and steps it back through ops P − 1 … 0: P forward
    // and P inverse applications. The bra starts at |0…0⟩ and steps back
    // through every op but op 0, where the walk stops: N − 1 = 144
    // inverses. Each of the 2k = 200 shifted evaluations applies its own
    // op once to a copy of φ. So 135 + 200 = 335 forward applications
    // and 135 + 144 = 279 inverse ones, against 16,322 forward ones on
    // the prefix path.
    let last = c.ops().iter().rposition(|op| op.free_param().is_some()).unwrap() as u64;
    assert_eq!(last, 135);
    let (forward, inverse) = (last + 2 * k, last + (n - 1));
    assert_eq!((forward, inverse), (335, 279));
    for obs in [Observable::global_cost(10), Observable::zero_projector(10)] {
        for threads in [1, 2, 4] {
            let before = (
                gates(),
                count("sim.gate.inverse_applications"),
                count("grad.executions.parameter_shift"),
                count("grad.expectation_evals"),
            );
            plateau_par::with_threads(threads, || ParameterShift.gradient(&c, &params, &obs))
                .unwrap();
            let after = (
                gates(),
                count("sim.gate.inverse_applications"),
                count("grad.executions.parameter_shift"),
                count("grad.expectation_evals"),
            );
            assert_eq!(after.0 - before.0, forward, "{obs} threads={threads}");
            assert_eq!(after.1 - before.1, inverse, "{obs} threads={threads}");
            // Still 2k evaluations, each one cost read-out.
            assert_eq!(after.2 - before.2, 2 * k, "{obs} threads={threads}");
            assert_eq!(after.3 - before.3, 2 * k, "{obs} threads={threads}");
        }
    }
    plateau_obs::set_metrics_enabled(false);
}

/// A serial batch sweep allocates one scratch state and resets it in
/// place for every evaluation, also when the executor sweeps again.
#[test]
fn serial_batch_reuses_one_scratch_state() {
    let _guard = plateau_obs::test_lock();
    plateau_obs::set_metrics_enabled(true);
    let c = training_shape(3, 2);
    let obs = Observable::global_cost(3);
    let sets: Vec<Vec<f64>> = (0..20)
        .map(|m| (0..c.n_params()).map(|p| 0.1 * (m as f64 + 1.0) + 0.01 * p as f64).collect())
        .collect();
    let sweep = |threads: usize| {
        let before = count("sim.state.allocations");
        let reuses_before = count("sim.state.reuses");
        let mut ex = BatchExecutor::new(&c);
        plateau_par::with_threads(threads, || {
            ex.expectation_many(&sets, &obs).unwrap();
            ex.expectation_many(&sets, &obs).unwrap();
        });
        let reused = count("sim.state.reuses") - reuses_before;
        // Every evaluation resets a scratch in place rather than
        // allocating.
        assert_eq!(reused, 2 * sets.len() as u64, "threads={threads}");
        count("sim.state.allocations") - before
    };
    assert_eq!(sweep(1), 1, "a serial batch must allocate exactly one scratch state");
    // In parallel each sweep's workers own fresh scratch.
    let workers = plateau_par::with_threads(2, || plateau_par::worker_count(sets.len()));
    let allocated = sweep(2);
    assert!(
        allocated <= 2 * workers as u64,
        "{allocated} allocations: a parallel batch allocates at most one scratch per worker \
         per sweep"
    );
    plateau_obs::set_metrics_enabled(false);
}
