//! Property tests for the batched executor's determinism contract:
//! results are **bit-identical** to a serial one-evaluation-per-set loop
//! of one-shot calls across
//! random circuits, batch sizes straddling the parallel threshold, and
//! thread counts — the order-independence guarantee DESIGN.md §14
//! promises.
//!
//! Each thread count runs inside a `plateau_par::with_threads` scope, so
//! the tests need no lock and leave the process default alone.

use plateau_grad::{Adjoint, BatchExecutor, GradientEngine};
use plateau_rng::check::{cases, forall};
use plateau_rng::{Rng, StdRng};
use plateau_sim::{Circuit, Observable};

/// A generated sweep: one random layered circuit plus a parameter ensemble.
#[derive(Debug)]
struct SweepCase {
    n_qubits: usize,
    layers: usize,
    /// Gate choice per (layer, qubit): 0 = RX, 1 = RY, 2 = RZ.
    gates: Vec<u8>,
    param_sets: Vec<Vec<f64>>,
}

impl SweepCase {
    fn build(&self) -> Circuit {
        let mut c = Circuit::new(self.n_qubits).unwrap();
        for l in 0..self.layers {
            for q in 0..self.n_qubits {
                match self.gates[l * self.n_qubits + q] {
                    0 => c.rx(q).unwrap(),
                    1 => c.ry(q).unwrap(),
                    _ => c.rz(q).unwrap(),
                };
            }
            for q in 0..self.n_qubits.saturating_sub(1) {
                c.cz(q, q + 1).unwrap();
            }
        }
        c
    }
}

fn gen_case(rng: &mut StdRng) -> SweepCase {
    let n_qubits = rng.gen_range(1..5usize);
    let layers = rng.gen_range(1..4usize);
    let gates = (0..layers * n_qubits).map(|_| rng.gen_range(0..3usize) as u8).collect();
    // Straddle MIN_PAR_EVALS (8): sizes from trivially serial through
    // comfortably parallel-eligible.
    let members = rng.gen_range(1..21usize);
    let n_params = layers * n_qubits;
    let param_sets = (0..members)
        .map(|_| (0..n_params).map(|_| rng.gen_range(-3.2..3.2)).collect())
        .collect();
    SweepCase { n_qubits, layers, gates, param_sets }
}

/// Runs `body` once per thread count, each inside its own scope.
fn with_thread_counts(mut body: impl FnMut(usize)) {
    for threads in [1, 2, 4] {
        plateau_par::with_threads(threads, || body(threads));
    }
}

#[test]
fn batched_sweep_is_bit_identical_to_serial_loop_across_thread_counts() {
    forall(0xbafc4ed, cases(24), gen_case, |case| {
        let circuit = case.build();
        let obs = Observable::global_cost(case.n_qubits);
        // The oracle: one fresh run per set, serially.
        let oracle: Vec<f64> = case
            .param_sets
            .iter()
            .map(|set| obs.expectation(&circuit.run(set).unwrap()).unwrap())
            .collect();
        let mut failure = None;
        with_thread_counts(|threads| {
            let batched = BatchExecutor::new(&circuit)
                .expectation_many(&case.param_sets, &obs)
                .unwrap();
            for (i, (b, o)) in batched.iter().zip(&oracle).enumerate() {
                // Bit-identical, not approximately equal.
                if b.to_bits() != o.to_bits() && failure.is_none() {
                    failure = Some(format!(
                        "threads={threads}, member {i}: batched {b:?} != serial {o:?}"
                    ));
                }
            }
        });
        match failure {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    });
}

#[test]
fn shifted_gradient_is_bit_identical_across_thread_counts() {
    forall(0x51f7ed, cases(16), gen_case, |case| {
        let circuit = case.build();
        let obs = Observable::local_cost(case.n_qubits);
        let params = &case.param_sets[0];
        // Oracle computed at the current (inherited) thread setting…
        let oracle = plateau_grad::ParameterShift
            .gradient(&circuit, params, &obs)
            .unwrap();
        let mut failure = None;
        // …must match every other thread setting exactly.
        with_thread_counts(|threads| {
            let g = plateau_grad::ParameterShift
                .gradient(&circuit, params, &obs)
                .unwrap();
            for (i, (a, b)) in g.iter().zip(&oracle).enumerate() {
                if a.to_bits() != b.to_bits() && failure.is_none() {
                    failure = Some(format!(
                        "threads={threads}, param {i}: {a:?} != {b:?}"
                    ));
                }
            }
        });
        match failure {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    });
}

#[test]
fn adjoint_many_is_bit_identical_across_thread_counts() {
    forall(0xad10, cases(12), gen_case, |case| {
        let circuit = case.build();
        let obs = Observable::global_cost(case.n_qubits);
        let oracle: Vec<Vec<f64>> = case
            .param_sets
            .iter()
            .map(|set| Adjoint.gradient(&circuit, set, &obs).unwrap())
            .collect();
        let mut failure = None;
        with_thread_counts(|threads| {
            let many = BatchExecutor::new(&circuit)
                .adjoint_gradient_many(&case.param_sets, &obs)
                .unwrap();
            if many != oracle && failure.is_none() {
                failure = Some(format!("threads={threads}: batched adjoint diverged"));
            }
        });
        match failure {
            Some(msg) => Err(msg),
            None => Ok(()),
        }
    });
}
