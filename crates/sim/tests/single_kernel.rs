//! The plane kernels against dense reference loops written on interleaved
//! complex amplitudes: the single-qubit kernel (`State::apply_single`) in
//! every class on every target qubit, the controlled, two-qubit and CZ
//! kernels and the diagonal superkernel. Each is compared with `==` and,
//! serial against forced-parallel, in the bits. A [`CountingAllocator`]
//! is installed in this test binary for the allocation checks: fixed-gate
//! application and the state's in-place resets allocate nothing, and a
//! fresh state allocates exactly its two planes.

use plateau_linalg::{c64, C64};
use plateau_obs::alloc::{set_profiling, thread_allocated, CountingAllocator};
use plateau_rng::check::{cases, forall};
use plateau_rng::{prop_assert, Rng, StdRng};
use plateau_sim::{
    compile, reset_par_threshold, set_par_threshold, Circuit, FixedGate, RotationGate, Segment,
    State, TwoQubitRotationGate,
};
use std::f64::consts::{FRAC_PI_2, PI};
use std::sync::Mutex;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The tests set the process-wide parallel threshold.
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
                for (i, (got, want)) in serial.to_amplitudes().iter().zip(&expected).enumerate() {
                    prop_assert!(
                        got.re == want.re && got.im == want.im,
                        "qubit {qubit}, amplitude {i}: kernel {got:?}, dense formula {want:?}"
                    );
                }
                prop_assert!(
                    bits(&serial.to_amplitudes()) == bits(&parallel.to_amplitudes()),
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

/// One random matrix of each single-qubit kernel class, in the order
/// diagonal, real, real-diagonal/imaginary-off-diagonal, dense.
fn one_of_each_class(rng: &mut StdRng) -> [[C64; 4]; 4] {
    let mut x = || rng.gen_range(-1.0..1.0);
    [
        [c64(x(), x()), C64::ZERO, C64::ZERO, c64(x(), x())],
        [c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0), c64(x(), 0.0)],
        [c64(x(), 0.0), c64(0.0, x()), c64(0.0, x()), c64(x(), 0.0)],
        [c64(x(), x()), c64(x(), x()), c64(x(), x()), c64(x(), x())],
    ]
}

/// Applies `kernel` to a state of `amps` serially and with every kernel
/// forced parallel; checks both against `expected` with `==` and against
/// each other in the bits.
fn check_kernel(
    what: &str,
    amps: &[C64],
    expected: &[C64],
    kernel: impl Fn(&mut State),
) -> Result<(), String> {
    set_par_threshold(usize::MAX);
    let mut serial = State::from_amplitudes_unnormalized(amps.to_vec()).unwrap();
    kernel(&mut serial);
    set_par_threshold(0);
    let mut parallel = State::from_amplitudes_unnormalized(amps.to_vec()).unwrap();
    kernel(&mut parallel);
    reset_par_threshold();
    let got = serial.to_amplitudes();
    for (i, (g, w)) in got.iter().zip(expected).enumerate() {
        prop_assert!(
            g.re == w.re && g.im == w.im,
            "{what}, amplitude {i}: kernel {g:?}, dense reference {w:?}"
        );
    }
    prop_assert!(
        bits(&got) == bits(&parallel.to_amplitudes()),
        "{what}: parallel kernel differs from serial in the bits"
    );
    Ok(())
}

#[test]
fn every_class_on_every_qubit_matches_the_dense_formula() {
    let _guard = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    forall(
        0x636c6173,
        cases(40),
        |rng| {
            let n = rng.gen_range(1..8usize);
            (random_amps(rng, n), one_of_each_class(rng))
        },
        |(amps, classes)| {
            let n = amps.len().trailing_zeros() as usize;
            for (class, m) in classes.iter().enumerate() {
                for qubit in 0..n {
                    let expected = dense_reference(amps, qubit, m);
                    check_kernel(
                        &format!("class {class}, qubit {qubit}"),
                        amps,
                        &expected,
                        |s| s.apply_single(qubit, m).unwrap(),
                    )?;
                }
            }
            Ok(())
        },
    );
}

/// Two distinct qubits of an `n`-qubit register.
fn qubit_pair(rng: &mut StdRng, n: usize) -> (usize, usize) {
    let a = rng.gen_range(0..n);
    (a, (a + rng.gen_range(1..n)) % n)
}

#[test]
fn controlled_two_qubit_and_cz_kernels_match_dense_references() {
    let _guard = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    forall(
        0x71756164,
        cases(120),
        |rng| {
            let n = rng.gen_range(2..8usize);
            let gate = [
                TwoQubitRotationGate::Rxx,
                TwoQubitRotationGate::Ryy,
                TwoQubitRotationGate::Rzz,
            ][rng.gen_range(0..3usize)];
            let two = gate.entries(rng.gen_range(-PI..PI));
            (
                random_amps(rng, n),
                random_matrix(rng),
                two,
                qubit_pair(rng, n),
            )
        },
        |(amps, m, two, (a, b))| {
            let (a, b) = (*a, *b);
            // Controlled: control a, target b.
            let (cmask, stride) = (1 << a, 1 << b);
            let mut expected = amps.clone();
            for i in (0..amps.len()).filter(|i| i & cmask != 0 && i & stride == 0) {
                let (a0, a1) = (amps[i], amps[i + stride]);
                expected[i] = m[0] * a0 + m[1] * a1;
                expected[i + stride] = m[2] * a0 + m[3] * a1;
            }
            check_kernel(&format!("controlled {a}→{b}"), amps, &expected, |s| {
                s.apply_controlled_single(a, b, m).unwrap()
            })?;

            // Two-qubit: the 4×4 in the |first = a, second = b⟩ basis,
            // each output accumulated over the quad in (high bit, low
            // bit) order with fused-form multiply-adds.
            let (fa, fb) = (1usize << a, 1usize << b);
            let (s_lo, s_hi) = (fa.min(fb), fa.max(fb));
            let index = |pos: usize| {
                let (bit_hi, bit_lo) = (pos >> 1, pos & 1);
                let (bit_a, bit_b) = if fa == s_hi {
                    (bit_hi, bit_lo)
                } else {
                    (bit_lo, bit_hi)
                };
                2 * bit_a + bit_b
            };
            let mut expected = amps.clone();
            for i in (0..amps.len()).filter(|i| i & (s_lo | s_hi) == 0) {
                let members = [i, i + s_lo, i + s_hi, i + s_hi + s_lo];
                for (pos, &out) in members.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (src, &inp) in members.iter().enumerate() {
                        acc = two[index(pos) * 4 + index(src)].mul_add(amps[inp], acc);
                    }
                    expected[out] = acc;
                }
            }
            check_kernel(&format!("two-qubit ({a}, {b})"), amps, &expected, |s| {
                s.apply_two(a, b, two).unwrap()
            })?;

            // CZ: negate where both bits are set.
            let both = fa | fb;
            let expected: Vec<C64> = amps
                .iter()
                .enumerate()
                .map(|(i, &x)| if i & both == both { -x } else { x })
                .collect();
            check_kernel(&format!("cz ({a}, {b})"), amps, &expected, |s| {
                s.apply_cz(a, b).unwrap()
            })
        },
    );
}

#[test]
fn diagonal_superkernel_matches_the_elementwise_product() {
    let _guard = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    forall(
        0x64696167,
        cases(40),
        |rng| {
            let n = rng.gen_range(2..8usize);
            // A run of static diagonal ops the compiler folds into one
            // superkernel: a CZ chain with bound RZ and a T.
            let mut c = Circuit::new(n).unwrap();
            for q in 0..n - 1 {
                c.cz(q, q + 1).unwrap();
            }
            c.push_rotation_const(
                RotationGate::Rz,
                rng.gen_range(0..n),
                rng.gen_range(-PI..PI),
            )
            .unwrap();
            c.push_fixed(FixedGate::T, &[rng.gen_range(0..n)]).unwrap();
            (random_amps(rng, n), c)
        },
        |(amps, c)| {
            let compiled = compile(c);
            let Some(Segment::Diagonal { diag, .. }) = compiled.segments().first() else {
                return Err("the diagonal run did not compile to a superkernel".into());
            };
            let d = |i: usize| c64(diag[i], diag[amps.len() + i]);
            let forward: Vec<C64> = amps.iter().enumerate().map(|(i, &a)| a * d(i)).collect();
            check_kernel("superkernel", amps, &forward, |s| {
                s.apply_diagonal(diag).unwrap()
            })?;
            let inverse: Vec<C64> = amps
                .iter()
                .enumerate()
                .map(|(i, &a)| a * d(i).conj())
                .collect();
            check_kernel("inverse superkernel", amps, &inverse, |s| {
                s.apply_diagonal_conj(diag).unwrap()
            })
        },
    );
}

#[test]
fn a_state_is_one_allocation_and_resets_in_place() {
    let _guard = THRESHOLD.lock().unwrap_or_else(|e| e.into_inner());
    plateau_obs::set_metrics_enabled(false);
    assert!(
        set_profiling(true),
        "counting allocator is installed in this binary; profiling must engage"
    );
    let delta = |f: &mut dyn FnMut()| {
        let (b0, c0) = thread_allocated();
        f();
        let (b1, c1) = thread_allocated();
        (b1 - b0, c1 - c0)
    };
    // Warm up: the first bump of each `sim.state.*` counter registers it.
    State::zero(1).reset_zero();
    for n in [1usize, 5, 10] {
        let mut state = None;
        assert_eq!(
            delta(&mut || state = Some(State::zero(n))),
            (16u64 << n, 1),
            "State::zero({n}) allocates exactly one buffer of both planes"
        );
        let mut state = state.unwrap();
        let mut other = State::zero(n);
        other.apply_fixed(FixedGate::H, &[0]).unwrap();
        assert_eq!(
            delta(&mut || state.copy_from(&other)),
            (0, 0),
            "copy_from allocated"
        );
        assert_eq!(state, other);
        assert_eq!(
            delta(&mut || state.reset_zero()),
            (0, 0),
            "reset_zero allocated"
        );
        assert_eq!(state, State::zero(n));
    }
}
