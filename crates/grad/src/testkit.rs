//! Shared generators for the crate's property tests.

use plateau_sim::{Circuit, Observable, PauliString, RotationGate};

/// A random circuit mixing every parameterized op kind with fixed
/// gates (√X takes the `inverse_matrix` path) and bound rotations,
/// plus parameters and one of three observables.
#[derive(Debug)]
pub(crate) struct RandomCase {
    pub(crate) circuit: Circuit,
    pub(crate) params: Vec<f64>,
    pub(crate) obs: Observable,
}

pub(crate) fn random_case(rng: &mut plateau_rng::StdRng) -> RandomCase {
    use plateau_rng::Rng;
    use plateau_sim::{FixedGate, Pauli, TwoQubitRotationGate};
    const ROT: [RotationGate; 4] =
        [RotationGate::Rx, RotationGate::Ry, RotationGate::Rz, RotationGate::Phase];
    const TWO: [TwoQubitRotationGate; 3] =
        [TwoQubitRotationGate::Rxx, TwoQubitRotationGate::Ryy, TwoQubitRotationGate::Rzz];
    const ONE: [FixedGate; 4] = [FixedGate::H, FixedGate::Sx, FixedGate::T, FixedGate::S];
    const PAIR: [FixedGate; 2] = [FixedGate::Cz, FixedGate::Cx];
    let n = rng.gen_range(2..6usize);
    let mut c = Circuit::new(n).unwrap();
    for _ in 0..rng.gen_range(1..25usize) {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        let rot = ROT[rng.gen_range(0..ROT.len())];
        match rng.gen_range(0..6u32) {
            0 | 1 => c.push_rotation(rot, a),
            2 => c.push_controlled_rotation(rot, a, b),
            3 => c.push_two_qubit_rotation(TWO[rng.gen_range(0..TWO.len())], a, b),
            4 => c.push_rotation_const(rot, a, rng.gen_range(-3.2..3.2)),
            _ if rng.gen_range(0..2u32) == 0 => {
                c.push_fixed(ONE[rng.gen_range(0..ONE.len())], &[a])
            }
            _ => c.push_fixed(PAIR[rng.gen_range(0..PAIR.len())], &[a, b]),
        }
        .unwrap();
    }
    let params = (0..c.n_params()).map(|_| rng.gen_range(-3.2..3.2)).collect();
    let obs = match rng.gen_range(0..3u32) {
        0 => Observable::global_cost(n),
        1 => Observable::local_cost(n),
        _ => {
            const PAULIS: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];
            let terms = (0..rng.gen_range(1..4usize))
                .map(|_| {
                    let string = (0..n).map(|_| PAULIS[rng.gen_range(0..4usize)]).collect();
                    (rng.gen_range(-1.0..1.0), PauliString::new(string).unwrap())
                })
                .collect();
            Observable::pauli_sum(terms).unwrap()
        }
    };
    RandomCase { circuit: c, params, obs }
}

