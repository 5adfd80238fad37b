//! Cross-crate oracle tests: the statevector kernels against the
//! independent full-unitary construction, on the exact ansätze the paper's
//! experiments use.

use plateau_core::ansatz::{training_ansatz, variance_ansatz};
use plateau_linalg::CMatrix;
use plateau_sim::{circuit_unitary, Observable, State};
use plateau_rng::rngs::StdRng;
use plateau_rng::{Rng, SeedableRng};

fn random_params(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect()
}

#[test]
fn training_ansatz_unitary_matches_kernels_across_sizes() {
    let mut rng = StdRng::seed_from_u64(1);
    for (q, layers) in [(2usize, 3usize), (3, 2), (4, 2), (5, 1)] {
        let ansatz = training_ansatz(q, layers).expect("ansatz");
        let params = random_params(ansatz.circuit.n_params(), &mut rng);

        let via_kernel = ansatz.circuit.run(&params).expect("kernel run");
        let u = circuit_unitary(&ansatz.circuit, &params).expect("unitary");
        assert!(u.is_unitary(1e-10), "q={q} unitary check");
        let mut via_matrix = State::zero(q);
        via_matrix.apply_matrix(&u).expect("matrix apply");

        let fid = via_kernel.fidelity(&via_matrix).expect("fidelity");
        assert!((fid - 1.0).abs() < 1e-10, "q={q}: fidelity {fid}");
    }
}

#[test]
fn variance_ansatz_unitary_matches_kernels() {
    let mut rng = StdRng::seed_from_u64(2);
    for seed in 0..5u64 {
        let mut circ_rng = StdRng::seed_from_u64(seed);
        let ansatz = variance_ansatz(4, 4, &mut circ_rng).expect("ansatz");
        let params = random_params(ansatz.circuit.n_params(), &mut rng);

        let via_kernel = ansatz.circuit.run(&params).expect("kernel run");
        let u = circuit_unitary(&ansatz.circuit, &params).expect("unitary");
        let mut via_matrix = State::zero(4);
        via_matrix.apply_matrix(&u).expect("matrix apply");
        let fid = via_kernel.fidelity(&via_matrix).expect("fidelity");
        assert!((fid - 1.0).abs() < 1e-10, "seed {seed}: fidelity {fid}");
    }
}

#[test]
fn expectation_matches_dense_quadratic_form() {
    // ⟨ψ|H|ψ⟩ computed by the simulator vs the dense matrix quadratic form.
    let mut rng = StdRng::seed_from_u64(3);
    let ansatz = training_ansatz(3, 2).expect("ansatz");
    let params = random_params(ansatz.circuit.n_params(), &mut rng);
    let state = ansatz.circuit.run(&params).expect("run");

    for obs in [
        Observable::global_cost(3),
        Observable::local_cost(3),
        Observable::zero_projector(3),
    ] {
        let fast = obs.expectation(&state).expect("expectation");
        let h: CMatrix = obs.matrix();
        let amps = state.to_amplitudes();
        let hv = h.matvec(&amps);
        let slow: f64 = amps
            .iter()
            .zip(hv.iter())
            .map(|(a, b)| (a.conj() * *b).re)
            .sum();
        assert!((fast - slow).abs() < 1e-10, "{obs}: {fast} vs {slow}");
    }
}

#[test]
fn inverse_circuit_gives_identity_unitary() {
    let mut rng = StdRng::seed_from_u64(4);
    let ansatz = training_ansatz(3, 2).expect("ansatz");
    let params = random_params(ansatz.circuit.n_params(), &mut rng);

    // Run forward then inverse on a random-ish state; must round-trip.
    let mut state = ansatz.circuit.run(&params).expect("forward");
    ansatz
        .circuit
        .run_inverse_on(&mut state, &params)
        .expect("inverse");
    assert!((state.probability_all_zeros() - 1.0).abs() < 1e-10);
}

#[test]
fn global_phase_invariance_of_costs() {
    // Multiplying the state by a phase cannot change any cost operator.
    let ansatz = training_ansatz(2, 1).expect("ansatz");
    let params = vec![0.4, -0.7, 1.1, 0.2];
    let state = ansatz.circuit.run(&params).expect("run");
    let phased = State::from_amplitudes(
        state
            .to_amplitudes()
            .iter()
            .map(|a| *a * plateau_linalg::C64::cis(0.83))
            .collect(),
    )
    .expect("phased state");
    for obs in [Observable::global_cost(2), Observable::local_cost(2)] {
        let a = obs.expectation(&state).expect("e1");
        let b = obs.expectation(&phased).expect("e2");
        assert!((a - b).abs() < 1e-12);
    }
}
