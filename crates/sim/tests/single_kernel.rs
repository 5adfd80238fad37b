//! The single-qubit kernel (`State::apply_single`) against a dense
//! reference loop, serial against forced-parallel, and fixed-gate
//! application without heap allocation. A [`CountingAllocator`] is
//! installed in this test binary for the last check.

use plateau_linalg::{c64, C64};
use plateau_obs::alloc::{set_profiling, thread_allocated, CountingAllocator};
use plateau_rng::check::{cases, forall};
use plateau_rng::{prop_assert, Rng, StdRng};
use plateau_sim::{
    reset_par_threshold, set_par_threshold, Circuit, FixedGate, RotationGate, State,
};
use std::f64::consts::{FRAC_PI_2, PI};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Both tests set the process-wide parallel threshold.
static THRESHOLD: Mutex<()> = Mutex::new(());

const ROTATIONS: [RotationGate; 4] = [
    RotationGate::Rx,
    RotationGate::Ry,
    RotationGate::Rz,
    RotationGate::Phase,
];

const SINGLE_FIXED: [FixedGate; 9] = [
    FixedGate::X,
    FixedGate::Y,
    FixedGate::Z,
    FixedGate::H,
    FixedGate::S,
    FixedGate::Sdg,
    FixedGate::T,
    FixedGate::Tdg,
    FixedGate::Sx,
];

/// The dense formula every loop must reproduce, one pair at a time.
fn dense_reference(amps: &[C64], qubit: usize, m: &[C64; 4]) -> Vec<C64> {
    let stride = 1 << qubit;
    let mut out = amps.to_vec();
    for i in (0..amps.len()).filter(|i| i & stride == 0) {
        let (a0, a1) = (amps[i], amps[i + stride]);
        out[i] = m[0] * a0 + m[1] * a1;
        out[i + stride] = m[2] * a0 + m[3] * a1;
    }
    out
}

/// A 2×2 from one of the kernel's classes: gate entries at random or
/// special angles, fixed-gate entries, or random diagonal, real,
/// imaginary-off-diagonal and dense matrices.
fn random_matrix(rng: &mut StdRng) -> [C64; 4] {
    let special = [0.0, FRAC_PI_2, -FRAC_PI_2, PI];
    let theta = if rng.gen::<f64>() < 0.3 {
        special[rng.gen_range(0..special.len())]
    } else {
        rng.gen_range(-PI..PI)
    };
    let gate = ROTATIONS[rng.gen_range(0..ROTATIONS.len())];
    let fixed = SINGLE_FIXED[rng.gen_range(0..SINGLE_FIXED.len())];
    let class = rng.gen_range(0..8usize);
    let mut x = || rng.gen_range(-1.0..1.0);
    match class {
        0 => gate.entries(theta),
        1 => gate.derivative_entries(theta),
        2 => fixed.entries(),
        3 => fixed.inverse_entries(),
        4 => [c64(x(), x()), C64::ZERO, C64::ZERO, c64(x(), x())],
        5 => [c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0)],
        6 => [c64(x(), 0.0), c64(0.0, x()), c64(0.0, x()), c64(x(), 0.0)],
        _ => [c64(x(), x()), c64(x(), x()), c64(x(), x()), c64(x(), x())],
    }
}

/// Random unnormalized amplitudes, some of them exactly zero.
fn random_amps(rng: &mut StdRng, n: usize) -> Vec<C64> {
    (0..1usize << n)
        .map(|_| {
            if rng.gen::<f64>() < 0.1 {
                C64::ZERO
            } else {
                c64(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            }
        })
        .collect()
}

fn bits(amps: &[C64]) -> Vec<(u64, u64)> {
    amps.iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

#[test]
fn every_loop_matches_the_dense_formula_and_the_parallel_kernel() {
    let _guard = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    forall(
        0x6b65726e,
        cases(200),
        |rng| {
            let n = rng.gen_range(1..8usize);
            (random_amps(rng, n), random_matrix(rng))
        },
        |(amps, m)| {
            let n = amps.len().trailing_zeros() as usize;
            for qubit in 0..n {
                let expected = dense_reference(amps, qubit, m);
                set_par_threshold(usize::MAX);
                let mut serial = State::from_amplitudes_unnormalized(amps.clone()).unwrap();
                serial.apply_single(qubit, m).unwrap();
                set_par_threshold(0);
                let mut parallel = State::from_amplitudes_unnormalized(amps.clone()).unwrap();
                parallel.apply_single(qubit, m).unwrap();
                reset_par_threshold();
                for (i, (got, want)) in serial.amplitudes().iter().zip(&expected).enumerate() {
                    prop_assert!(
                        got.re == want.re && got.im == want.im,
                        "qubit {qubit}, amplitude {i}: kernel {got:?}, dense formula {want:?}"
                    );
                }
                prop_assert!(
                    bits(serial.amplitudes()) == bits(parallel.amplitudes()),
                    "qubit {qubit}: parallel kernel differs from serial in the bits"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn fixed_gate_ops_allocate_nothing() {
    let _guard = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    plateau_obs::set_metrics_enabled(false);
    // The parallel path collects its task list; this check is about the
    // gate, so pin the serial kernels.
    set_par_threshold(usize::MAX);
    assert!(
        set_profiling(true),
        "counting allocator is installed in this binary; profiling must engage"
    );
    let mut circuit = Circuit::new(3).unwrap();
    for g in SINGLE_FIXED {
        circuit.push_fixed(g, &[1]).unwrap();
    }
    for g in [FixedGate::Cz, FixedGate::Cx, FixedGate::Cy, FixedGate::Swap] {
        circuit.push_fixed(g, &[2, 0]).unwrap();
    }
    let mut state = State::zero(3);
    let run = |state: &mut State| {
        for op in circuit.ops() {
            op.apply(state, &[]).unwrap();
            op.apply_inverse(state, &[]).unwrap();
        }
    };
    run(&mut state);
    let (bytes0, count0) = thread_allocated();
    run(&mut state);
    let (bytes1, count1) = thread_allocated();
    reset_par_threshold();
    assert_eq!(
        (count1 - count0, bytes1 - bytes0),
        (0, 0),
        "fixed-gate apply/apply_inverse allocated"
    );
}
